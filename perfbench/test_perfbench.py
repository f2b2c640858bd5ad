"""Self-tests of the benchmark harness; each runs in a few seconds."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import skewdna.cli as cli  # noqa: E402
import skewdna.verify as verify  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECTED = json.loads(worker.EXPECTED.read_text())

# one cheap operation per CLI workload, drawn from its pools
SMALL = {
    "cli-medium": ("check", "--n", "12", "--property", "complement", "--format", "structured",
                   "--gen", "v*x^4 + w*v"),
    "cli-large": ("build", "--n", "402", "--format", "structured", "--gen", "v*x^4 + v*x^2 + v"),
}
FAST_CHECKS = 5  # the leading verify checks take milliseconds


def _skewdna_bindings() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "skewdna" or name.startswith("skewdna.")
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_operation_passes_traced_and_untraced(workload):
    argv = SMALL[workload]
    assert argv in workloads.all_operations(workload)
    plain = worker.run_pass(cli, [argv])
    with Tracer() as tracer:
        traced = worker.run_pass(cli, [argv])
    assert worker.failures(plain + traced, EXPECTED) == []
    assert traced[0].answer == plain[0].answer
    assert tracer.stats["cli.main"]["calls"] == 1


def test_verify_paper_answer_matches_on_fast_checks(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", verify.ALL_CHECKS[:FAST_CHECKS])
    argv = workloads.operations("verify-paper", seed=7)[0]
    (result,) = worker.run_pass(cli, [argv])
    expected = EXPECTED[workloads.answer_key(argv)]
    assert result.answer["exit"] == 0 and expected["exit"] == 1
    assert result.answer["results"] == expected["results"][:FAST_CHECKS]
    assert list(result.check_seconds) == list(metrics.VERIFY_CHECKS[:FAST_CHECKS])


def test_corrupted_expected_answer_counts_as_failure():
    argv = SMALL["cli-medium"]
    results = worker.run_pass(cli, [argv])
    assert worker.failures(results, EXPECTED) == []
    corrupted = copy.deepcopy(EXPECTED)
    key = workloads.answer_key(argv)
    corrupted[key]["holds"] = not corrupted[key]["holds"]
    assert worker.failures(results, corrupted) == [key]


def test_tracer_wraps_every_binding_and_restores_it():
    import skewdna.analysis as analysis
    import skewdna.codes as codes
    import skewdna.dna as dna

    before = _skewdna_bindings()
    with Tracer():
        # names imported into other modules are wrapped there too
        assert dna.remainder_membership is codes.remainder_membership
        assert dna.remainder_membership is not before[("skewdna.codes", "remainder_membership")]
        assert analysis.skew_shift is codes.skew_shift
        assert analysis.skew_shift is not before[("skewdna.codes", "skew_shift")]
        assert verify.ALL_CHECKS[0] is verify.check_element_dna_table
        assert verify.ALL_CHECKS is not before[("skewdna.verify", "ALL_CHECKS")]
        worker.run_pass(cli, [SMALL["cli-large"]])
    after = _skewdna_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_splits_self_time_from_child_spans():
    with Tracer() as tracer:
        worker.run_pass(cli, [SMALL["cli-medium"]])
    st = tracer.stats
    assert st["codes.materialize"]["calls"] == 1
    assert st["codes.materialize"]["words"] == 1 << 16
    assert st["codes.span_basis"]["basis_vectors"] == 16
    # materialize's inclusive time holds span_basis, its self time does not
    assert st["codes.materialize"]["time"] >= (st["codes.materialize"]["self"]
                                               + st["codes.span_basis"]["time"]) * 0.999
    values = worker.layer_metrics(st, [], tracer.overhead_s(calls=100, rounds=1))
    assert set(values) == {name for name, _, _ in metrics.PER_LAYER}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, specs in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(specs)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
