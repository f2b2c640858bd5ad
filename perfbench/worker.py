"""One benchmark worker: a fresh, single-threaded process.

It imports ``skewdna`` once, timing the import, then calls
``skewdna.cli.main(argv)`` for each operation of the workload in sequence,
capturing stdout in memory, and checks every answer against
``expected.json``.  ``run.py`` starts it and reads the one JSON line it
prints.

With ``--trace 0`` it repeats the operation list until ``--seconds`` have
passed (at least once).  With ``--trace 1`` it runs the list once, traced,
and reports the per-layer metrics.  A second, untraced pass in the same run
would take verify-paper past the 180-s limit of one run, so the tracing
overhead is estimated by calibration (``Tracer.overhead_s``) instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import metrics
import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


@dataclass
class OpResult:
    argv: tuple
    seconds: float
    out_bytes: int
    answer: dict
    check_seconds: dict = field(default_factory=dict)  # verify-paper only


def run_op(cli, argv) -> tuple[int, str, float]:
    """Exit code, captured stdout and wall seconds of one CLI call."""
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))  # looked up per call, so tracing sees it
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, buf.getvalue(), perf_counter() - t0


def run_pass(cli, ops) -> list[OpResult]:
    results = []
    for argv in ops:
        code, out, seconds = run_op(cli, argv)
        result = OpResult(argv, seconds, len(out.encode()), workloads.answer(argv, code, out))
        if argv[0] == "verify-paper" and code in (0, 1):
            result.check_seconds = {r["name"]: r["seconds"] for r in json.loads(out)["results"]}
        results.append(result)
    return results


def failures(results, expected: dict) -> list[str]:
    """Keys of the operations whose answer differs from the expected one."""
    bad = []
    for r in results:
        key = workloads.answer_key(r.argv)
        if r.answer != expected.get(key):
            bad.append(key)
    return bad


def layer_metrics(stats: dict, traced: list[OpResult], overhead_s: float) -> dict:
    """Per-layer values from the tracer's stats and the traced pass.

    The verify check times come from verify-paper's own structured output,
    and the cli subcommand times from the calls into ``cli.main``; both
    include the tracing overhead.
    """
    out = {}
    for group, quantities in metrics.GROUP_METRICS:
        st = stats.get(group, {})
        calls = st.get("calls", 0)
        for q, _, _ in quantities:
            if q == "self_s":
                value = st.get("self", 0.0)
            elif q == "repeat_frac":
                value = st.get("repeats", 0) / calls if calls else 0.0
            else:
                value = st.get(q, 0)
            out[f"{group}.{q}"] = value
    check_seconds = {}
    for r in traced:
        check_seconds.update(r.check_seconds)
    for name in metrics.VERIFY_CHECKS:
        out[f"verify.{name}.s"] = check_seconds.get(name, 0.0)
    for sub in metrics.SUBCOMMANDS:
        out[f"cli.{sub}.s"] = sum(r.seconds for r in traced if r.argv[0] == sub)
    out["cli.self_s"] = stats["cli.main"].get("self", 0.0)
    out["cli.out_bytes"] = sum(r.out_bytes for r in traced)
    for mod in metrics.MODULES:
        out[f"{mod}.self_s"] = sum(st.get("self", 0.0) for g, st in stats.items()
                                   if g.split(".")[0] == mod)
    out["trace.overhead_s"] = overhead_s
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import skewdna.cli as cli

    ops = workloads.operations(workload, seed)
    if not trace:
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(cli, ops))
        results = [r for p in passes for r in p]
        values = {
            "wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from tracing import Tracer

        with Tracer() as tracer:
            results = run_pass(cli, ops)
        values = layer_metrics(tracer.stats, results, tracer.overhead_s())
    expected = json.loads(EXPECTED.read_text())
    return {"attempted": len(results), "failed": failures(results, expected),
            "metrics": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup-only", action="store_true",
                   help="only time the import, then exit")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = perf_counter()
    import skewdna.cli  # noqa: F401
    import skewdna.verify  # noqa: F401
    setup_s = perf_counter() - t0

    result = {"setup_s": setup_s, "skewdna": skewdna.__file__}
    if not args.setup_only:
        if args.workload is None:
            p.error("--workload is required")
        result.update(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
