"""Record the expected answer of every operation any seed can produce.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``.  Run it only at a commit whose answers
are the reference; the benchmark fails every operation whose answer later
differs.  An operation that exits with a parse error (2) or a cap refusal
(3) is refused: such answers are meant to change, so no workload may hold
one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import EXPECTED, run_op

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import skewdna.cli as cli

    expected = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.all_operations(workload):
            code, out, seconds = run_op(cli, argv)
            key = workloads.answer_key(argv)
            print(f"{seconds:8.2f}s exit {code}  {key}", flush=True)
            if code not in (0, 1):
                raise SystemExit(f"{key}: exit {code}; no workload may hold it")
            expected[key] = workloads.answer(argv, code, out)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
