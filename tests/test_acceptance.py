"""Acceptance criteria, one test per criterion.

Every comparison is an exact rational equality (tolerance zero).  Each test
prints a PASS line with its runtime; stated runtime budgets are asserted.
Run with `pytest tests/test_acceptance.py -v -s` (or via `twotori verify all`).
"""

import time
from fractions import Fraction as F

import pytest

from twotori.cli import main
from twotori.genus2 import (
    ModulePair,
    degeneration_sum,
    taylor_shift,
    verify_detHi,
    verify_theta_degeneration,
    z2_heisenberg_degenerate,
    z2_module_degenerate,
)
from twotori.series import QSeries, eisenstein, eta_normalized, qd
from twotori.sewing import (
    a2_degenerate,
    a_matrix,
    degenerate_logdet,
    degenerate_tau,
    log_det_I_minus,
    weighted_resolvent_11,
)
from twotori.virasoro import (
    VirState,
    lambda_vector,
    lambda_vector_direct,
    partitions_of_weight,
)
from twotori.zhu import BasePartition, one_point, structure_check, to_theta_basis

from test_genus2 import specialize_sum
from test_series import is_even, times_eps


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def report(self, number, text):
        ok = self.elapsed < self.budget
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text} "
              f"({self.elapsed:.2f}s, budget {self.budget}s)")
        assert ok, f"runtime {self.elapsed:.2f}s exceeded {self.budget}s budget"


def test_criterion_1_beta_table(capsys):
    """All seven factored-map coefficients, through the CLI."""
    expected = {2: "-1/12", 4: "-1/480", 6: "1/12096", 8: "-1/138240",
                10: "1/2280960", 12: "-389/13586227200", 14: "1/464486400"}
    with Stopwatch(1.0) as sw:
        code = main(["beta", "--max", "14"])
        out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 7
    for line, (k, val) in zip(lines, sorted(expected.items())):
        idx, beta = line.split()
        assert int(idx) == k and beta == val
    with capsys.disabled():
        sw.report(1, "beta table matches all seven appendix values exactly")


def test_criterion_2_lambda_vectors():
    """Displayed descendant components, and dual-construction agreement <= 12."""
    with Stopwatch(10.0) as sw:
        lam = lambda_vector(12)
        assert lam[2] == VirState({(2,): F(-1, 12)})
        assert lam[4] == VirState({(2, 2): F(1, 288), (4,): F(-1, 480)})
        assert lam[6] == VirState({(2, 2, 2): F(-1, 10368), (4, 2): F(1, 5760),
                                   (6,): F(1, 12096)})
        direct = lambda_vector_direct(12)
        for n in range(13):
            assert lam[n] == direct[n]
    sw.report(2, "lambda components match and both constructions agree to weight 12")


def test_criterion_3_modular_identities():
    """qd E2 = 5 E4 - E2^2 and qd eta = -E2 eta / 2, to q-order 20."""
    with Stopwatch(1.0) as sw:
        T = 20
        e2 = eisenstein(2, T)
        assert qd(e2) == eisenstein(4, T) * 5 - e2 * e2
        eta = eta_normalized(T)
        assert qd(eta) == e2 * eta * F(-1, 2)
    sw.report(3, "modular identities hold exactly to q-order 20")


def _tau_series():
    return degenerate_tau(8, 8)


def _reference_tau(N):
    # The same series from the matrix-vector chain over matrices of size N.
    A20 = a2_degenerate(N, 8)
    return times_eps(weighted_resolvent_11(A20, a_matrix(1, N, 8, 8), A20, 8))


def test_criterion_4_degenerate_modulus():
    """2 pi i (tau - tau1) = -eps^2/12 + E2 eps^4/144 + O(eps^6), q-order 8."""
    with Stopwatch(5.0) as sw:
        d = _tau_series()
        assert d.block(2) == QSeries.const("q1", F(-1, 12), 8)
        assert d.block(4) == eisenstein(2, 8, "q1") * F(1, 144)
        assert d.block(0).is_zero()
        for n in (1, 3, 5, 7):
            assert d.block(n).is_zero()
        assert is_even(d)
    sw.report(4, "degenerate modulus expansion matches with vanishing odd orders")


def _heisenberg_series(N):
    q, eps = 10, 6
    delta = degenerate_tau(q, eps)
    eta1 = eta_normalized(q, "q1")
    z1 = taylor_shift(eta1.inv(), delta)
    lim = z2_heisenberg_degenerate(q, eps)
    return {
        "z1_ratio": z1 * eta1.embed(z1.vars, (z1.truncs[0], q)),
        "det": (log_det_I_minus(a_matrix(1, N, eps, q), a2_degenerate(N, eps), eps)
                * F(-1, 2)).exp(),
        "ratio": lim * z1.inv(),
    }


def test_criterion_5_heisenberg_degeneration():
    """Free-boson pinching ratio and both intermediate proof expansions, q-order 10."""
    with Stopwatch(30.0) as sw:
        series = _heisenberg_series(6)
        q = 10
        e2, e4 = eisenstein(2, q, "q1"), eisenstein(4, q, "q1")
        # 1/eta(q) relative to 1/eta(q1)
        assert series["z1_ratio"].block(2) == e2 * F(-1, 24)
        assert series["z1_ratio"].block(4) == e2 * e2 * F(1, 384) + e4 * F(5, 576)
        # det(I - A1 A2(0))^(-1/2)
        assert series["det"].block(2) == e2 * F(-1, 24)
        assert series["det"].block(4) == e2 * e2 * F(1, 384) + e4 * F(1, 96)
        # lim q2^(1/24) Z / Z^(1)(q) = 1 + 0 eps^2 + E4/576 eps^4 + O(eps^6)
        ratio = series["ratio"]
        assert ratio.block(0) == QSeries.one("q1", q)
        assert ratio.block(2).is_zero()
        assert ratio.block(4) == e4 * F(1, 576)
        assert is_even(ratio)
    sw.report(5, "Heisenberg degeneration ratio and proof intermediates exact "
                 "to q-order 10")


def test_criterion_6_central_identity():
    """H_l = det(I - A1 A2(0))^(-C/2) delta^l / l! in symbolic C, l <= 4."""
    with Stopwatch(300.0) as sw:
        report = verify_detHi(eps_trunc=8, q_trunc=6)
        for check in report.checks:
            assert check.passed, check.name
    sw.report(6, "determinant identity holds identically in C for l <= 4, "
                 "eps-order 8, q-order 6")


ACCEPTANCE_PAIRS = ((F(0), 1), (F(1), 1), (F(1, 4), 2), (F(2), 1))


def test_criterion_7_main_theorem():
    """Three-way degeneration equality for the four module pairs, eps 8, q 6."""
    with Stopwatch(600.0) as sw:
        for alpha_sq, rank in ACCEPTANCE_PAIRS:
            report = verify_theta_degeneration(ModulePair(rank, alpha_sq),
                                               eps_trunc=8, q_trunc=6)
            for check in report.checks:
                assert check.passed, (alpha_sq, rank, check.name)
    sw.report(7, "normalized partition function degenerates to the genus-one "
                 "function for all four module pairs")


def test_criterion_8_structural_properties():
    """Prop-style C-degree and weight bounds for every PBW monomial <= 10."""
    with Stopwatch(300.0) as sw:
        for n in range(2, 11):
            for parts in partitions_of_weight(n):
                op = one_point(VirState.monomial(parts), 8)
                assert structure_check(parts, 8, op=op).passed, parts
                theta_op = to_theta_basis(op)
                assert structure_check(parts, 8, op=theta_op).passed, parts
    sw.report(8, "C-degree and quasi-modular weight structure verified for "
                 "all monomials of weight <= 10")


def _theta_series():
    out = {}
    for alpha_sq, rank in ACCEPTANCE_PAIRS:
        p = ModulePair(rank, alpha_sq)
        ds = degeneration_sum(8, 6)
        zm = z2_module_degenerate(p, 6, 8)
        zh = z2_heisenberg_degenerate(6, 8)
        key = f"a{alpha_sq}_r{rank}"
        out[f"{key}_lim"] = zm * (zh ** rank).inv()
        out[f"{key}_zhu"] = specialize_sum(
            ds, BasePartition(QSeries.monomial("q1", alpha_sq / 2, 6), F(rank)))
    return out


def test_criterion_9_truncation_soundness():
    """Criteria 4-7 series are byte-identical at matrix sizes N and N + 3.

    The engine's matrices are fixed by the eps order, so the sizes enter
    through the reference matrices, whose series must equal the engine's.
    """
    with Stopwatch(600.0) as sw:
        def snapshot(N):
            series = {"tau": _reference_tau(N)}
            series.update(_heisenberg_series(N))
            series["logdet"] = log_det_I_minus(a_matrix(1, N, 8, 6),
                                               a2_degenerate(N, 8), 8)
            series.update(_theta_series())
            return {name: s.to_json() for name, s in series.items()}

        small = snapshot(8)
        large = snapshot(11)
        assert set(small) == set(large)
        for name in small:
            assert small[name] == large[name], name
        assert small["tau"] == _tau_series().to_json()
        assert small["logdet"] == degenerate_logdet(6, 8).to_json()
    sw.report(9, "all degeneration series byte-identical at matrix sizes 8 and 11, "
                 "and equal to the engine's")
