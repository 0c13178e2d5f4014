"""Start-up and process exit: what a fresh interpreter loads, and how a crash exits.

Each check runs in a new interpreter, since the modules that other tests
import would hide what ``import twotori`` or one CLI command loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names of the package and the submodule each one lives in.
EXPORTS = {
    "ring": ["EisensteinPoly", "SeriesError", "bernoulli", "eisenstein_poly"],
    "series": ["NotQuasiModular", "QSeries", "QuasiModularPoly", "eisenstein",
               "eta_normalized", "qd", "to_quasimodular"],
    "virasoro": ["CPoly", "VirState", "alpha_coefficients", "apply_mode",
                 "beta_coefficients", "lambda_vector", "lambda_vector_direct",
                 "partitions_of_weight"],
    "zhu": ["BasePartition", "DiffOp", "one_point", "specialize", "structure_check",
            "to_theta_basis", "to_z_basis"],
    "sewing": ["AMatrix", "PeriodData", "a2_degenerate", "a_matrix", "degenerate_tau",
               "log_det_I_minus", "period_matrix", "resolvent_11", "weighted_resolvent_11"],
    "genus2": ["ModulePair", "OperatorEpsSeries", "degeneration_sum", "taylor_shift",
               "verify_detHi", "verify_heisenberg_degeneration", "verify_theta_degeneration",
               "z2_heisenberg", "z2_heisenberg_degenerate", "z2_module_degenerate",
               "z2_module_pair"],
    "reports": ["Check", "Report"],
}


def python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def loaded_after(code: str) -> list:
    # The twotori submodules in sys.modules after running ``code``.
    done = python(code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
                         " if m.startswith('twotori.'))))")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_after("import twotori") == []


@pytest.mark.parametrize("argv", [
    ["compute", "z2-module", "--alpha-sq", "2", "--rank", "2", "--eps-order", "2",
     "--q-order", "2"],
    ["verify", "heisenberg-degen", "--eps-order", "4", "--q-order", "2"],
    ["compute", "z2-heisenberg", "--eps-order", "2", "--q-order", "2"]])
def test_z2_module_loads_neither_virasoro_nor_zhu(argv):
    # The closed forms read the pinched operator and the sewing pass only,
    # never the Zhu-recursion route.
    loaded = loaded_after(f"from twotori import cli\ncli.main({argv!r})")
    assert "twotori.sewing" in loaded and "twotori.genus2" in loaded
    assert "twotori.zhu" not in loaded and "twotori.virasoro" not in loaded


def added_by(argv: list) -> list:
    # The modules a CLI run adds to sys.modules, from a snapshot taken before
    # twotori is imported, so modules that site hooks load do not count.
    done = python("import json, sys\nbefore = set(sys.modules)\nfrom twotori import cli\n"
                  f"cli.main({argv!r})\n"
                  "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["verify", "structure", "--max-weight", "6", "--q-order", "6"],
    ["verify", "modular-identities", "--q-order", "4"], ["beta"], ["lambda"],
    ["compute", "eisenstein", "--k", "4"], ["compute", "eta"],
    ["compute", "onepoint", "--partition", "2,2"]])
def test_commands_without_sewing_load_neither_sewing_nor_genus2(argv):
    added = added_by(argv)
    assert "twotori.cli" in added
    assert "twotori.sewing" not in added and "twotori.genus2" not in added


def test_structure_loads_the_ring_but_not_the_series_engine():
    # The structure suite reads Zhu operators as exact polynomials only, and
    # table output needs no json.
    added = added_by(["verify", "structure", "--max-weight", "6", "--q-order", "6"])
    assert "twotori.ring" in added
    assert not {"twotori.series", "twotori.sewing", "twotori.genus2", "json"} & set(added)


def test_no_command_loads_dataclasses_or_inspect():
    for argv in (["compute", "z2-module", "--alpha-sq", "2", "--rank", "2",
                  "--eps-order", "4", "--q-order", "4"],
                 ["verify", "all", "--eps-order", "4", "--q-order", "4", "--max-weight", "4"]):
        added = added_by(argv)
        assert "twotori.sewing" in added
        assert "dataclasses" not in added and "inspect" not in added


def test_every_public_name_resolves_to_its_home_object():
    assert sum(map(len, EXPORTS.values())) == 48
    done = python(
        "import importlib, json, sys\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = []\n"
        "for home, names in exports.items():\n"
        "    for name in names:\n"
        "        obj = getattr(importlib.import_module('twotori'), name)\n"
        "        exec(f'from twotori import {name} as got')\n"
        "        want = getattr(importlib.import_module('twotori.' + home), name)\n"
        "        if not (obj is got is want):\n"
        "            wrong.append(name)\n"
        "star = {}\n"
        "exec('from twotori import *', star)\n"
        "print(json.dumps([wrong, sorted(star)]))")
    assert done.returncode == 0, done.stderr
    wrong, star = json.loads(done.stdout)
    assert wrong == []
    assert {n for names in EXPORTS.values() for n in names} <= set(star)


def test_unknown_name_is_an_attribute_error():
    done = python("import twotori\ntwotori.no_such_name")
    assert done.returncode == 1
    assert "AttributeError: module 'twotori' has no attribute 'no_such_name'" in done.stderr


def test_internal_fault_exits_3_with_its_traceback():
    # A fault inside a suite is not a failed check (1) or bad input (2):
    # ``python -m twotori`` prints the traceback and exits 3, with nothing
    # on stdout.
    done = python(
        "import runpy, sys\n"
        "from twotori import genus2\n"
        "from twotori.ring import SeriesError\n"
        "def broken(*args, **kwargs):\n"
        "    raise SeriesError('injected fault')\n"
        "genus2.verify_detHi = broken\n"
        "sys.argv = ['twotori', 'verify', 'detHi', '--eps-order', '4', '--q-order', '4']\n"
        "runpy.run_module('twotori', run_name='__main__')")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert "SeriesError: injected fault" in done.stderr


@pytest.mark.parametrize("argv", [["verify", "modular-identities"],
                                  ["verify", "detHi", "--eps-order", "4", "--q-order", "4"]])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # A reader that closes the pipe early (``twotori ... | head -1``) is no
    # internal fault: the run prints nothing to stderr and exits 141, the
    # code of a process killed by SIGPIPE.  The read end is closed before
    # the child starts, so its first write meets the closed pipe.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "twotori", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")
