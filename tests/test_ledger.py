"""The run ledger: each benchmark command's exit code and output digest.

tests/ledger.json holds, for every command line that some seed of a
perfbench workload can run (perfbench/workloads.all_operations), in
structured and in text form, the exit code and the sha256 of stdout; and
the same for verify-paper --format structured at five seeds.
verify-paper's timings are taken out before hashing, so the digest pins
every other byte of its output, the refuted criteria 8 and 9 included.
The test reruns every line in process through cli.main and compares.

    PYTHONPATH=src python tests/test_ledger.py    # re-records the ledger
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from skewdna import cli  # noqa: E402

LEDGER = Path(__file__).with_name("ledger.json")
SEEDS = (1, 2, 3, 20902, 424242)
_STRUCTURED = ("--format", "structured")
# verify-paper's per-check seconds: a JSON field, or a text column "( 0.01s)"
_SECONDS = re.compile(r'"seconds": [-+.\deE]+|\( *[\d.]+s\)')


def command_lines() -> list[tuple[str, ...]]:
    lines = []
    for workload in workloads.WORKLOADS:
        for argv in workloads.all_operations(workload):
            i = argv.index("--format")  # every workload line asks for structured output
            lines += [argv, argv[:i] + argv[i + 2:]]
    lines += [("verify-paper", *_STRUCTURED, "--seed", str(seed)) for seed in SEEDS]
    return lines


def entry(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    text = out.getvalue()
    if argv[0] == "verify-paper":
        text = _SECONDS.sub("", text)
    return {"exit": code, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}


def record() -> dict:
    return {shlex.join(argv): entry(argv) for argv in command_lines()}


def test_every_benchmark_command_prints_its_recorded_output():
    want = json.loads(LEDGER.read_text())
    got = record()
    assert len(got) == 125  # 60 lines in two forms, and five seeds
    assert sorted(key for key in got.keys() | want.keys()
                  if got.get(key) != want.get(key)) == []


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
