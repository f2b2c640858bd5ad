"""skewdna benchmark.

    python3 perfbench/run.py --workload cli-medium --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Workers import ``skewdna`` from the
checkout's ``src`` directory; there is nothing to build.  Every process is
started and waited for in sequence, one worker at a time:

1. one set-up worker that is not counted (it writes the bytecode caches);
2. half of SETUP_SAMPLES set-up workers that only time the import;
3. the workload worker (see worker.py), which times the import as well;
4. the other half of the set-up workers.

``setup_s`` is the median of the import times; taking them on both sides of
the workload spreads them over the run.  With ``--trace 0`` the
end-to-end metrics are printed, with ``--trace 1`` the per-layer ones; the
last line of stdout is the result as one JSON object.  The answers of every
operation are checked; ``attempted`` and ``failed`` count operations, so
``failed / attempted`` is the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 8
DEADLINE_S = 175  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} still running at the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["skewdna"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported skewdna from {result['skewdna']}, not {SRC}")
    return result


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S

    def setup_s() -> float:
        return _worker(["--setup-only"], deadline)["setup_s"]

    setup_s()
    setups = [setup_s() for _ in range(SETUP_SAMPLES // 2)]
    res = _worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))], deadline)
    setups += [res["setup_s"]] + [setup_s() for _ in range(SETUP_SAMPLES // 2)]
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    names = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {
        "correct": not res["failed"],
        "attempted": res["attempted"],
        "failed": len(res["failed"]),
        "failed_ops": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="skewdna benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "skewdna" / "__init__.py").is_file():
        print(f"run.py: no skewdna sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()}")
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>16.6f} {m['unit']}")
    print(f"fail_frac {result['failed']}/{result['attempted']}")
    for key in result.pop("failed_ops"):
        print(f"FAILED {key}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
