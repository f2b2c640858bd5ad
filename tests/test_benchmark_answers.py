"""The benchmark's recorded answers, held in the main test suite.

Every command line that any seed of a perfbench workload can run goes
through cli.main in process, and its answer (perfbench/workloads.answer) is
compared with perfbench/expected.json, as the benchmark worker compares
them.  A change that alters an answer fails here, not first in a benchmark
run.  The test only reads perfbench/.
"""

import json
import sys
from pathlib import Path

import pytest

from skewdna import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(worker.EXPECTED.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_gives_its_recorded_answer(workload):
    results = worker.run_pass(cli, workloads.all_operations(workload))
    assert worker.failures(results, EXPECTED) == []
