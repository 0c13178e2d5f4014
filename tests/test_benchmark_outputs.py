"""The benchmark's workloads print the bytes it recorded for them.

``perfbench/run.py`` times each workload and counts a run whose stdout
differs from ``perfbench/expected.json`` as a failure.  This test runs the
same argument lists through ``cli.main`` in process, for every seed that
picks a different input, so a byte change in a benchmark output fails the
test suite as well.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from twotori import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: the module's dataclass looks itself up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


RUN = load_run()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())
CASES = [(name, seed) for name in RUN.WORKLOADS for seed in range(len(RUN.Z2_ALPHA_GRID))]


@pytest.mark.parametrize("name, seed", CASES)
def test_workload_prints_the_recorded_bytes(name, seed):
    want = EXPECTED[RUN.expected_key(name, seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(RUN.workload_args(name, seed))
    assert code == want["exit"]
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == want["sha256"]
