"""CLI contract tests: output shapes, exit codes, determinism, config file."""

import json
from fractions import Fraction

import pytest

from twotori import cli, genus2, ring, series, sewing, virasoro, zhu
from twotori.cli import main
from twotori.series import _quasimodular_solver
from twotori.zhu import structure_check

from test_series import qseries_from_json

# The module each function that a command runs lives in: cli calls the
# sewing and genus2 functions through their modules, so a test patches them
# there.
HOME = {"_structure_report": cli, "_modular_identities_report": cli,
        "verify_detHi": genus2, "verify_heisenberg_degeneration": genus2,
        "verify_theta_degeneration": genus2, "z2_heisenberg": genus2,
        "z2_module_pair": genus2, "degenerate_tau": sewing, "period_matrix": sewing}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBeta:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "beta", "--max", "14")
        assert code == 0
        assert "-1/12" in out and "1/464486400" in out
        assert out.count("\n") == 8  # header + seven rows

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "beta", "--max", "2")
        assert code == 0
        assert "-1/12" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "beta", "--max", "6")
        assert code == 0
        assert json.loads(out)["betas"] == {"2": "-1/12", "4": "-1/480",
                                            "6": "1/12096"}

    def test_odd_max_is_usage_error(self, capsys):
        code, _, err = run(capsys, "beta", "--max", "13")
        assert code == 2 and "even" in err

    def test_max_above_its_cap_is_refused_up_front(self, capsys, monkeypatch):
        # The table grows fast with --max (80 takes about 1 s, 160 about
        # 26 s), so past the cap the command exits 2 before any work; the
        # cap itself is accepted.
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before the cap check")

        monkeypatch.setattr(virasoro, "beta_coefficients", must_not_run)
        code, out, err = run(capsys, "beta", "--max", "66")
        assert code == 2 and out == ""
        assert "--max must be <= 64" in err
        monkeypatch.setattr(virasoro, "beta_coefficients", lambda max_k: ())
        assert run(capsys, "beta", "--max", "64")[0] == 0


class TestLambda:
    def test_weights(self, capsys):
        code, out, _ = run(capsys, "lambda", "--max-weight", "6")
        assert code == 0
        assert "(-1/12) * L[-2]" in out
        assert "(1) * vacuum" in out
        assert "(-1/10368) * L[-2]*L[-2]*L[-2]" in out
        assert "agrees: True" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "lambda", "--max-weight", "4")
        data = json.loads(out)
        assert code == 0 and data["dual_oracle_agrees"] is True
        assert data["weights"]["4"][0]["partition"] == [2, 2]

    def test_odd_weight_usage_error(self, capsys):
        code, _, _ = run(capsys, "lambda", "--max-weight", "5")
        assert code == 2


class TestCompute:
    def test_eisenstein_odd_is_zero(self, capsys):
        code, out, _ = run(capsys, "compute", "eisenstein", "--k", "3")
        assert code == 0 and out.startswith("0")

    def test_eisenstein_requires_k(self, capsys):
        code, _, _ = run(capsys, "compute", "eisenstein")
        assert code == 2

    def test_eta(self, capsys):
        code, out, _ = run(capsys, "compute", "eta", "--q-order", "3")
        assert code == 0
        assert out.strip() == "q^(1/24)*(1 - q - q^2 + O(q^4))"

    def test_tau_degen_quasimodular_render(self, capsys):
        code, out, _ = run(capsys, "compute", "tau-degen",
                           "--eps-order", "6", "--q-order", "6")
        assert code == 0
        assert out.startswith("(-1/12)*eps^2 + 1/144*E2*eps^4")

    def test_onepoint_symbols(self, capsys):
        code, out, _ = run(capsys, "compute", "onepoint", "--partition", "2,2")
        assert code == 0
        assert out.strip() == "D^2 + 2*E2*D + 1/2*E4*C"

    def test_onepoint_bad_partition(self, capsys):
        code, _, err = run(capsys, "compute", "onepoint", "--partition", "2,1")
        assert code == 2 and "partition" in err

    def test_z2_module_json_parses(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "--eps-order", "4",
                           "--q-order", "2", "compute", "z2-module",
                           "--alpha-sq", "1/4", "--rank", "2")
        assert code == 0
        series = qseries_from_json(json.loads(out))
        lead = series.block(0)
        # q1 offset: alpha^2/2 - rank/24 = 1/8 - 1/12
        assert lead.offsets[0] == Fraction(1, 8) - Fraction(1, 12)

    def test_period_table(self, capsys):
        code, out, _ = run(capsys, "compute", "period",
                           "--eps-order", "3", "--q-order", "2")
        assert code == 0
        assert "d11 = " in out and "d22 = " in out and "d12 = " in out


class TestVerify:
    def test_modular_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "modular-identities", "--q-order", "20")
        assert code == 0
        assert "OK: 3/3" in out

    def test_detHi_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "detHi",
                           "--eps-order", "6", "--q-order", "4")
        assert code == 0 and "FAIL" not in out

    def test_theta_degen_flags(self, capsys):
        code, out, _ = run(capsys, "verify", "theta-degen", "--alpha-sq", "1",
                           "--rank", "1", "--eps-order", "6", "--q-order", "4")
        assert code == 0 and "alpha^2=1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify",
                           "heisenberg-degen", "--eps-order", "4", "--q-order", "4")
        data = json.loads(out)
        assert code == 0 and data["pass"] is True
        check = data["reports"][0]["checks"][0]
        assert {"name", "pass", "order", "expected", "computed"} <= set(check)

    def test_matrix_size_must_cover_eps_order(self, capsys):
        code, _, err = run(capsys, "verify", "detHi", "--eps-order", "6",
                           "--matrix-size", "4")
        assert code == 2 and "matrix size" in err

    def test_structure_needs_a_spare_equation(self, capsys):
        # q-order 3 gives weight 8 (4 monomials) a square system, from which
        # no coefficient could be recognized: the CLI refuses that order up
        # front.  The library check reads the exact E2/E4/E6 polynomials, so
        # it needs no q-coefficients and holds at any order.
        assert structure_check((2, 2, 2, 2), 3).passed
        code, out, err = run(capsys, "verify", "structure", "--max-weight", "8",
                             "--q-order", "3")
        assert code == 2 and out == ""
        assert "--q-order >= 4" in err

    @pytest.mark.parametrize("argv, need", [
        (("structure", "--max-weight", "8", "--q-order", "3"), 4),
        (("structure", "--max-weight", "9", "--q-order", "3"), 4),
        (("structure", "--max-weight", "14", "--q-order", "7"), 8),
        (("all", "--eps-order", "4", "--max-weight", "4", "--q-order", "0"), 2)])
    def test_recognition_needs_a_q_order(self, capsys, monkeypatch, argv, need):
        # The q-order must reach the number of quasi-modular monomials of the
        # top weight; below it every structure check is refused before any
        # suite runs (at q-order 0 the identity checks compare q^0 alone).
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the order check")

        for name in ("_structure_report", "verify_detHi", "_modular_identities_report"):
            monkeypatch.setattr(HOME[name], name, must_not_run)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"--q-order >= {need}" in err

    @pytest.mark.parametrize("argv", [
        ("structure", "--max-weight", "8", "--q-order", "4"),
        ("all", "--eps-order", "4", "--max-weight", "4", "--q-order", "2")])
    def test_recognition_passes_at_its_minimum_q_order(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and "FAIL" not in out

    def test_internal_fault_is_not_usage_error(self, capsys, monkeypatch):
        # A singular quasi-modular basis is a program fault: it must escape
        # the usage-error mapping (exit 2) and the raw-series fallback of
        # the eps-series display.
        monkeypatch.setattr(series, "quasimodular_monomials",
                            lambda weight: [(weight // 2, 0, 0)] * 2)
        _quasimodular_solver.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="rank-deficient"):
                main(["compute", "tau-degen", "--eps-order", "4", "--q-order", "4"])
        finally:
            _quasimodular_solver.cache_clear()

    @pytest.mark.parametrize("fault", [ring.SeriesError("internal"), ValueError("internal")])
    def test_fault_inside_a_suite_is_not_usage_error(self, capsys, monkeypatch, fault):
        # Only bad user input exits 2; a SeriesError or ValueError raised
        # while a suite runs is a program fault and is not caught.
        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr(genus2, "verify_detHi", broken)
        with pytest.raises(type(fault), match="internal"):
            main(["verify", "detHi", "--eps-order", "4", "--q-order", "4"])

    @pytest.mark.parametrize("flag", ["--beta-sq", "--alpha-dot-beta"])
    def test_theta_degen_needs_beta_zero(self, capsys, monkeypatch, flag):
        # A nonzero beta is refused as bad input before the suite runs.
        def must_not_run(*args, **kwargs):
            raise AssertionError("the suite ran before the beta check")

        monkeypatch.setattr(genus2, "verify_theta_degeneration", must_not_run)
        code, out, err = run(capsys, "verify", "theta-degen", flag, "1")
        assert code == 2 and out == ""
        assert "needs beta = 0" in err

    @pytest.mark.parametrize("suite", ["detHi", "heisenberg-degen", "theta-degen"])
    def test_degeneration_suites_need_q_order_1(self, capsys, monkeypatch, suite):
        # At q-order 0 these suites would compare the q^0 coefficient alone
        # and print OK; the order is refused before any suite runs.
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the order check")

        for name in ("verify_detHi", "verify_heisenberg_degeneration",
                     "verify_theta_degeneration"):
            monkeypatch.setattr(HOME[name], name, must_not_run)
        code, out, err = run(capsys, "verify", suite, "--eps-order", "4", "--q-order", "0")
        assert code == 2 and out == ""
        assert "--q-order >= 1" in err

    def test_modular_identities_need_q_order_1(self, capsys, monkeypatch):
        # At q-order 0 the identities would compare q^0 alone and print
        # three PASS lines; the order is refused before the suite runs.
        def must_not_run(*args, **kwargs):
            raise AssertionError("the suite ran before the order check")

        monkeypatch.setattr(cli, "_modular_identities_report", must_not_run)
        code, out, err = run(capsys, "verify", "modular-identities", "--q-order", "0")
        assert code == 2 and out == ""
        assert "verify modular-identities needs --q-order >= 1" in err

    def test_structure_fails_on_a_weight_breaking_recursion(self, capsys, monkeypatch):
        # A recursion that reads E_{k+r+2} where E_{k+r} belongs mixes
        # weights: the structure suite must report FAIL lines and exit 1,
        # not crash or exit as a usage error.
        monkeypatch.setattr(zhu, "eisenstein_poly", lambda k: ring.eisenstein_poly(k + 2))
        zhu._op_for_word.cache_clear()
        try:
            code, out, _ = run(capsys, "verify", "structure", "--max-weight", "6",
                               "--q-order", "8")
        finally:
            zhu._op_for_word.cache_clear()
        assert code == 1
        assert "FAIL  coefficient of C^0 qd^1 is quasi-modular of weight 2" in out
        assert "only monomials of weight 2" in out

    @pytest.mark.parametrize("suite, eps", [("heisenberg-degen", "3"), ("all", "2")])
    def test_heisenberg_degen_needs_eps_order_4(self, capsys, monkeypatch, suite, eps):
        # Refused before any suite runs, as a usage error that names the flag.
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the order check")

        for name in ("verify_detHi", "verify_heisenberg_degeneration", "_modular_identities_report"):
            monkeypatch.setattr(HOME[name], name, must_not_run)
        code, out, err = run(capsys, "verify", suite, "--eps-order", eps)
        assert code == 2 and out == ""
        assert "--eps-order" in err and "4" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "detHi"), ("verify", "theta-degen"), ("compute", "tau-degen"),
        ("compute", "period"), ("compute", "z2-heisenberg"), ("compute", "z2-module")])
    def test_moment_matrices_need_eps_order_1(self, capsys, monkeypatch, argv):
        # Refused before any matrix is built, naming --eps-order rather than
        # the matrix size the user never gave.
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before the order check")

        for name in ("verify_detHi", "verify_theta_degeneration", "degenerate_tau",
                     "period_matrix", "z2_heisenberg", "z2_module_pair"):
            monkeypatch.setattr(HOME[name], name, must_not_run)
        code, out, err = run(capsys, *argv, "--eps-order", "0")
        assert code == 2 and out == ""
        assert "--eps-order >= 1" in err and "matrix size" not in err

    @pytest.mark.parametrize("suite, weight", [("structure", "0"), ("structure", "1"),
                                               ("all", "0"), ("all", "1")])
    def test_structure_needs_max_weight_2(self, capsys, monkeypatch, suite, weight):
        # Below weight 2 there is no structure check: refused up front rather
        # than reported as "OK: 0/0 checks passed".
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the order check")

        for name in ("_structure_report", "verify_detHi", "_modular_identities_report"):
            monkeypatch.setattr(HOME[name], name, must_not_run)
        code, out, err = run(capsys, "verify", suite, "--max-weight", weight)
        assert code == 2 and out == ""
        assert "--max-weight >= 2" in err

    @pytest.mark.parametrize("flag", sorted(cli.MAX_ORDERS))
    @pytest.mark.parametrize("argv", [("verify", "all"), ("compute", "z2-module")])
    def test_an_order_above_its_cap_is_refused_up_front(self, capsys, monkeypatch, flag, argv):
        # One past the cap exits 2 with a message naming the flag, and no
        # suite or sewing pass starts.
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before the cap check")

        for name in ("_structure_report", "_modular_identities_report", "verify_detHi",
                     "verify_heisenberg_degeneration", "verify_theta_degeneration",
                     "z2_module_pair"):
            monkeypatch.setattr(HOME[name], name, must_not_run)
        cap = cli.MAX_ORDERS[flag]
        orders = {"eps_order": 4, "q_order": 4, "max_weight": 4, "matrix_size": 4, flag: cap + 1}
        options = [x for key, value in orders.items()
                   for x in (f"--{key.replace('_', '-')}", str(value))]
        code, out, err = run(capsys, *argv, *options)
        assert code == 2 and out == ""
        assert f"--{flag.replace('_', '-')} must be <= {cap}" in err

    def test_unknown_suite_usage(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2


class TestConfigAndDeterminism:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps-order=4\nq-order=3\nformat=json\n# comment\n")
        code, out, _ = run(capsys, "--config", str(cfg), "compute", "tau-degen")
        assert code == 0
        assert json.loads(out)["variable"] == "eps"

    def test_config_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q-order=3\n")
        code, out, _ = run(capsys, "--config", str(cfg), "--q-order", "5",
                           "compute", "eta")
        assert code == 0 and "O(q^6)" in out

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qorder=3\n")
        code, _, err = run(capsys, "--config", str(cfg), "compute", "eta")
        assert code == 2 and "unknown key" in err

    def test_bad_config_format(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")
        code, out, err = run(capsys, "--config", str(cfg), "compute", "eta")
        assert code == 2 and out == "" and "format must be one of table, json" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ("compute", "tau-degen", "--eps-order", "6", "--q-order", "4")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_matrix_size_invariance(self, capsys, tmp_path):
        # --matrix-size is checked and capped but changes no output: an
        # expansion through eps^T reads matrix indices <= T only.  Each
        # input runs at sizes eps, eps + 1, eps + 3 and the cap, and once
        # with the size from a config file.
        cfg = tmp_path / "run.cfg"
        for argv, eps in [
                (("--format", "json", "compute", "tau-degen", "--q-order", "4"), 6),
                (("compute", "period", "--q-order", "3"), 4),
                (("compute", "z2-heisenberg", "--q-order", "3"), 4),
                (("compute", "z2-module", "--alpha-sq", "1", "--beta-sq", "2", "--rank", "2",
                  "--q-order", "3"), 4),
                (("verify", "detHi", "--q-order", "3"), 4),
                (("verify", "theta-degen", "--alpha-sq", "1", "--q-order", "3"), 4),
                (("verify", "heisenberg-degen", "--q-order", "3"), 4)]:
            base = (*argv, "--eps-order", str(eps))
            code, plain, _ = run(capsys, *base)
            assert code == 0 and plain
            for size in (eps, eps + 1, eps + 3, cli.MAX_ORDERS["matrix_size"]):
                assert run(capsys, *base, "--matrix-size", str(size)) == (0, plain, ""), size
            cfg.write_text(f"matrix-size={eps + 1}\n")
            assert run(capsys, "--config", str(cfg), *base) == (0, plain, "")

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
    def test_matrix_size_help_says_what_the_flag_does(self, capsys, argv):
        # The size truncates nothing, so the help names its bounds and that
        # it changes no output, on the main parser and on each command.
        code, out, _ = run(capsys, *argv)
        text = " ".join(out.split())
        assert code == 0 and "truncation size" not in text
        assert "--matrix-size MATRIX_SIZE at least the eps order, at most 64; changes no " \
               "output" in text

    def test_theta_degen_ignores_max_weight(self, capsys):
        # The degeneration sum runs to the eps order, whatever --max-weight
        # says; only lambda and the structure suite read that flag.
        base = ("verify", "theta-degen", "--alpha-sq", "1",
                "--eps-order", "6", "--q-order", "6")
        _, plain, _ = run(capsys, *base)
        _, heavy, _ = run(capsys, *base, "--max-weight", "12")
        assert plain == heavy


class TestVerifyAll:
    def test_full_gate(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--eps-order", "6",
                           "--q-order", "4", "--max-weight", "6")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("== ") >= 7  # one header per report
