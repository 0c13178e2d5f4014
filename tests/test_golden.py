"""Golden-output corpus: CLI stdout compared byte for byte, plus exit codes.

Each case is an argument list, the exit code it must return, and a file
under ``tests/golden/`` holding its exact stdout.  Refactors that claim
unchanged behaviour are judged against this corpus.  After a deliberate
output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from twotori.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code)
CASES = {
    "beta_table": (["beta"], 0),
    "beta_json": (["beta", "--max", "20", "--format", "json"], 0),
    "lambda_table": (["lambda", "--max-weight", "6"], 0),
    "lambda_json": (["lambda", "--max-weight", "6", "--format", "json"], 0),
    "eisenstein_table": (["compute", "eisenstein", "--k", "4", "--q-order", "6"], 0),
    "eisenstein_json": (["compute", "eisenstein", "--k", "6", "--format", "json"], 0),
    "eisenstein_odd": (["compute", "eisenstein", "--k", "5", "--q-order", "4"], 0),
    "eta_table": (["compute", "eta", "--q-order", "10"], 0),
    "eta_json": (["compute", "eta", "--q-order", "5", "--format", "json"], 0),
    "tau_degen_table": (["compute", "tau-degen", "--eps-order", "6", "--q-order", "6"], 0),
    "tau_degen_json": (["compute", "tau-degen", "--eps-order", "4", "--q-order", "4",
                        "--format", "json"], 0),
    "tau_degen_raw_coeffs": (["compute", "tau-degen", "--eps-order", "8", "--q-order", "1"], 0),
    "period_table": (["compute", "period", "--eps-order", "4", "--q-order", "3"], 0),
    "period_json": (["compute", "period", "--eps-order", "4", "--q-order", "2",
                     "--format", "json"], 0),
    "z2_heisenberg_table": (["compute", "z2-heisenberg", "--eps-order", "4",
                             "--q-order", "3"], 0),
    "z2_heisenberg_json": (["compute", "z2-heisenberg", "--eps-order", "2",
                            "--q-order", "2", "--format", "json"], 0),
    "z2_module_table": (["compute", "z2-module", "--alpha-sq", "1", "--beta-sq", "2",
                         "--alpha-dot-beta", "1", "--rank", "2",
                         "--eps-order", "4", "--q-order", "3"], 0),
    "z2_module_json": (["compute", "z2-module", "--alpha-sq", "1/2", "--eps-order", "2",
                        "--q-order", "2", "--format", "json"], 0),
    "z2_module_wide": (["compute", "z2-module", "--alpha-sq", "3", "--beta-sq", "2",
                        "--alpha-dot-beta", "-1", "--rank", "2",
                        "--eps-order", "8", "--q-order", "6"], 0),
    # One case per subset of nonzero pairings the sewing pass selects entries by.
    "z2_module_beta_only": (["compute", "z2-module", "--beta-sq", "2", "--rank", "2",
                             "--eps-order", "4", "--q-order", "3"], 0),
    "z2_module_cross_only": (["compute", "z2-module", "--alpha-dot-beta", "-1",
                              "--eps-order", "4", "--q-order", "3"], 0),
    "z2_module_zero_pairing": (["compute", "z2-module", "--rank", "3",
                                "--eps-order", "4", "--q-order", "3"], 0),
    "z2_heisenberg_wide": (["compute", "z2-heisenberg", "--eps-order", "6",
                            "--q-order", "4", "--matrix-size", "8"], 0),
    "onepoint_z": (["compute", "onepoint", "--partition", "2,2", "--q-order", "6"], 0),
    "onepoint_theta": (["compute", "onepoint", "--partition", "4,2", "--basis", "theta",
                        "--q-order", "6"], 0),
    "onepoint_json": (["compute", "onepoint", "--partition", "3", "--q-order", "4",
                       "--format", "json"], 0),
    # Exact Zhu coefficients past weight 6, with non-integral values and odd parts.
    "onepoint_theta_w12": (["compute", "onepoint", "--partition", "6,4,2", "--basis", "theta",
                            "--q-order", "12"], 0),
    "onepoint_odd_w12": (["compute", "onepoint", "--partition", "5,3,2,2", "--q-order", "10"], 0),
    "onepoint_odd_theta_json": (["compute", "onepoint", "--partition", "5,3,2,2", "--basis",
                                 "theta", "--q-order", "8", "--format", "json"], 0),
    # q-order 0 leaves no equation to recognize E2 by: the raw-series fallback.
    "onepoint_fallback": (["compute", "onepoint", "--partition", "2", "--q-order", "0"], 0),
    "verify_modular_table": (["verify", "modular-identities", "--q-order", "10"], 0),
    "verify_modular_json": (["verify", "modular-identities", "--format", "json"], 0),
    "verify_detHi_table": (["verify", "detHi", "--eps-order", "6", "--q-order", "4"], 0),
    "verify_detHi_json": (["verify", "detHi", "--eps-order", "4", "--q-order", "4",
                           "--format", "json"], 0),
    "verify_heisenberg_table": (["verify", "heisenberg-degen", "--eps-order", "6",
                                 "--q-order", "6"], 0),
    "verify_heisenberg_json": (["verify", "heisenberg-degen", "--eps-order", "4",
                                "--q-order", "4", "--format", "json"], 0),
    "verify_theta_table": (["verify", "theta-degen", "--alpha-sq", "1", "--eps-order", "6",
                            "--q-order", "6"], 0),
    "verify_theta_json": (["verify", "theta-degen", "--alpha-sq", "1/4", "--rank", "2",
                           "--eps-order", "4", "--q-order", "4", "--format", "json"], 0),
    "verify_structure_table": (["verify", "structure", "--max-weight", "6",
                                "--q-order", "8"], 0),
    "verify_structure_json": (["verify", "structure", "--max-weight", "4",
                               "--q-order", "6", "--format", "json"], 0),
    "verify_all_table": (["verify", "all"], 0),
    "verify_all_json": (["verify", "all", "--eps-order", "4", "--q-order", "4",
                         "--max-weight", "4", "--format", "json"], 0),
    # Orders the benchmark does not run: odd eps, q-order 1, rank 3, non-dyadic alpha^2.
    "verify_detHi_eps14_q2": (["verify", "detHi", "--eps-order", "14", "--q-order", "2"], 0),
    "verify_theta_rank3": (["verify", "theta-degen", "--alpha-sq", "3/5", "--rank", "3",
                            "--eps-order", "12", "--q-order", "5"], 0),
    "verify_theta_q_order_one": (["verify", "theta-degen", "--alpha-sq", "2", "--rank", "2",
                                  "--eps-order", "9", "--q-order", "1"], 0),
    "verify_all_json_10_6_8": (["verify", "all", "--eps-order", "10", "--q-order", "6",
                                "--max-weight", "8", "--format", "json"], 0),
    "usage_missing_k": (["compute", "eisenstein"], 2),
    "usage_bad_partition": (["compute", "onepoint", "--partition", "2,3"], 2),
    "usage_theta_beta": (["verify", "theta-degen", "--beta-sq", "1"], 2),
    "usage_matrix_size": (["compute", "period", "--eps-order", "6",
                           "--matrix-size", "4"], 2),
    "usage_eps_order_zero": (["verify", "detHi", "--eps-order", "0"], 2),
    "usage_max_weight_one": (["verify", "structure", "--max-weight", "1"], 2),
    "usage_structure_q_order": (["verify", "structure", "--max-weight", "8",
                                 "--q-order", "3"], 2),
    "usage_all_q_order_zero": (["verify", "all", "--eps-order", "4", "--max-weight", "4",
                                "--q-order", "0"], 2),
    "usage_detHi_q_order_zero": (["verify", "detHi", "--eps-order", "4", "--q-order", "0"], 2),
    "usage_heisenberg_q_order_zero": (["verify", "heisenberg-degen", "--eps-order", "4",
                                       "--q-order", "0"], 2),
    "usage_theta_q_order_zero": (["verify", "theta-degen", "--eps-order", "4",
                                  "--q-order", "0"], 2),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    argv, want_code = CASES[name]
    code, stdout, stderr = run_cli(argv)
    assert code == want_code, stderr
    if want_code == 2:
        assert stderr.startswith("error: ") or stderr.startswith("usage: ")
    assert stdout == (GOLDEN_DIR / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, want_code) in sorted(CASES.items()):
        code, stdout, stderr = run_cli(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}: {stderr}")
        (GOLDEN_DIR / f"{name}.out").write_bytes(stdout)
