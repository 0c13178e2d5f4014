"""Genus-two closed forms, the operator degeneration sum, and the verifiers."""

from fractions import Fraction as F
from math import factorial

import pytest

from twotori.ring import EisensteinPoly, OperatorPoly, eisenstein_poly
from twotori.series import QSeries, eisenstein, eta_normalized
from twotori.genus2 import (
    H_VARS,
    PREFACTOR_NOTE,
    ModulePair,
    OperatorEpsSeries,
    _times_q,
    degeneration_sum,
    taylor_shift,
    verify_detHi,
    verify_heisenberg_degeneration,
    verify_theta_degeneration,
    z2_heisenberg,
    z2_heisenberg_degenerate,
    z2_module_degenerate,
    z2_module_pair,
)
from twotori import genus2, sewing
from twotori.cli import main
from twotori.sewing import (
    _eps_series,
    a2_degenerate,
    a_matrix,
    degenerate_tau,
    log_det_I_minus,
    period_matrix,
    resolvent_11,
    weighted_resolvent_11,
)
from twotori.reports import Check, Report
from twotori.virasoro import VirState
from twotori.zhu import THETA_BASIS, BasePartition, DiffOp, one_point, specialize, to_theta_basis

from test_series import agrees_with, divided_by, is_even, set_second_to_zero, times_eps
from test_work_counts import clear_caches


def partition_numbers(trunc):
    """Oracle: p(n) by the Euler recurrence with pentagonal numbers."""
    p = [1]
    for n in range(1, trunc + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = (-1) ** (k + 1)
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


# -- the free-boson closed forms as they were computed on their own ----------------


def eta_prefactor(q1_trunc: int, q2_trunc: int) -> QSeries:
    # (eta(q1) eta(q2))^-1, the eta factor of the rank-1 free boson.
    vars, truncs = ("q1", "q2"), (q1_trunc, q2_trunc)
    return (eta_normalized(q1_trunc, "q1").inv().embed(vars, truncs)
            * eta_normalized(q2_trunc, "q2").inv().embed(vars, truncs))


def oracle_z2_heisenberg(q1_trunc, q2_trunc, eps_trunc, N):
    # (eta(q1) eta(q2))^-1 det(I - A1 A2)^(-1/2), from the log-det of the
    # moment matrices of size N alone.
    logdet = log_det_I_minus(a_matrix(1, N, eps_trunc, q1_trunc),
                             a_matrix(2, N, eps_trunc, q2_trunc), eps_trunc)
    return _times_q((logdet * F(-1, 2)).exp(), eta_prefactor(q1_trunc, q2_trunc))


# -- the closed forms as q-series exps, kept as the oracles of the exps in the rings --


def oracle_z2_module_pair(p, q1_trunc, q2_trunc, eps_trunc):
    # exp(-(r/2) log det(I - A1 A2) + sum c d) on (eps, q1, q2) series, times
    # the (q1, q2) prefactor (eta(q1) eta(q2))^-r q1^(a.a/2) q2^(b.b/2).
    pairing = {"d11": p.alpha_sq / 2, "d22": p.beta_sq / 2, "d12": p.alpha_dot_beta}
    pairing = {name: c for name, c in pairing.items() if c}
    logdet, d = sewing.sewing_data(q1_trunc, q2_trunc, eps_trunc, tuple(pairing))
    arg = logdet * F(-p.rank, 2)
    for name, c in pairing.items():
        arg = arg + d[name] * c
    mono = QSeries(("q1", "q2"), {(0, 0): 1}, (q1_trunc, q2_trunc),
                   offsets=(p.alpha_sq / 2, p.beta_sq / 2))
    return _times_q(arg.exp(), eta_prefactor(q1_trunc, q2_trunc) ** p.rank * mono)


def oracle_degenerate_det(q1_trunc, eps_trunc, r):
    # det(I - A1 A2(0))^(-r/2), the q1-series exp of the pinched log-det.
    return (sewing.degenerate_logdet(q1_trunc, eps_trunc) * F(-r, 2)).exp()


def qseries_z2_module_degenerate(p, q1_trunc, eps_trunc):
    # The pinched closed form from q1-series exps of the pinched log-det and
    # delta, times q1^(alpha^2/2) eta(q1)^-r.
    det = oracle_degenerate_det(q1_trunc, eps_trunc, p.rank)
    if p.alpha_sq:
        det = det * (degenerate_tau(q1_trunc, eps_trunc) * (p.alpha_sq / 2)).exp()
    pre = (QSeries.monomial("q1", p.alpha_sq / 2, q1_trunc)
           * eta_normalized(q1_trunc, "q1").inv() ** p.rank)
    return _times_q(det, pre)


def reference_pinched(q1_trunc, eps_trunc, N):
    # log det(I - A1 A2(0)) and delta = eps (A2(0) (I - A1 A2(0))^(-1))(1,1)
    # from the moment matrices of size N >= eps order: the log-det
    # reference and the matrix-vector chain.
    A1, A20 = a_matrix(1, N, eps_trunc, q1_trunc), a2_degenerate(N, eps_trunc)
    return (log_det_I_minus(A1, A20, eps_trunc),
            times_eps(weighted_resolvent_11(A20, A1, A20, eps_trunc)))


def oracle_z2_heisenberg_degenerate(q1_trunc, eps_trunc, N):
    # eta(q1)^-1 det(I - A1 A2(0))^(-1/2), with no delta factor.
    det = (reference_pinched(q1_trunc, eps_trunc, N)[0] * F(-1, 2)).exp()
    return _times_q(det, eta_normalized(q1_trunc, "q1").inv())


# -- the pinched-surface quantities as they were computed before memoization -------


def oracle_z2_module_degenerate(p, q1_trunc, eps_trunc, N):
    # lim q2^(r/24) Z^(2)_{alpha,0}, every factor but the reference log-det
    # and delta built afresh on each call.
    logdet, delta = reference_pinched(q1_trunc, eps_trunc, N)
    det = (logdet * F(-p.rank, 2)).exp()
    if p.alpha_sq:
        det = det * (delta * (p.alpha_sq / 2)).exp()
    pre = (QSeries.monomial("q1", p.alpha_sq / 2, q1_trunc)
           * eta_normalized(q1_trunc, "q1").inv() ** p.rank)
    return _times_q(det, pre)


def oracle_taylor_shift(f, delta):
    # sum_l (delta^l / l!) qd^l f, the powers of delta built in the loop.
    dpow = QSeries.one(delta.vars, delta.truncs)
    out = _times_q(dpow, f)
    df = f
    ord_ = max(delta._ord_bounds()[0], 1)
    for l in range(1, delta.truncs[0] // ord_ + 1):
        dpow = dpow * delta * F(1, l)
        if dpow.is_zero():
            break
        df = df.qd()
        out = out + _times_q(dpow, df)
    return out


def specialize_sum(ds, base) -> QSeries:
    """The degeneration sum at a concrete base: each eps^n operator
    specialized (``zhu.specialize``), as an eps-series over the base's
    variable."""
    return QSeries.from_blocks("eps", {n: specialize(op, base) for n, op in ds.terms.items()},
                               ds.eps_trunc)


def oracle_eta_ratio(ops: dict, s: int) -> dict:
    """{n: block} of eta(q)^s / eta(q1)^s in Q[E2, E4, E6] for s = +-1 by a
    scalar recurrence: the shift sum_l (delta^l / l!) qd^l eta^s, over eta^s,
    with delta^l / l! the qd^l C^0 part of the eps^n operator.
    qd^l eta^s = P_l eta^s for P_0 = 1 and P_(l+1) = qd P_l - (s E2/2) P_l,
    since qd eta = -(E2/2) eta."""
    step = EisensteinPoly({(1, 0, 0): F(-s, 2)})
    P, out = [EisensteinPoly.const(1)], {}
    for n, op in ops.items():
        x = EisensteinPoly()
        for (l, j, *k), v in op.coeffs.items():
            if not j:
                while len(P) <= l:
                    P.append(P[-1].qd() + step * P[-1])
                x = x + P[l] * EisensteinPoly({tuple(k): v})
        if not x.is_zero():
            out[n] = x
    return out


def oracle_extract_H(ds, l):
    # H_l by a scan over every operator's Fraction coefficients, per l.
    return QSeries(("eps", *H_VARS),
                   {(n, m, j): c for n, op in ds.terms.items()
                    for (i, j), s in op.series().items() if i == l
                    for (m,), c in s.coeffs.items()},
                   (ds.eps_trunc, ds.q_trunc, ds.eps_trunc))


# -- the q-series suites, kept as the oracles of the suites in the rings ----------


def _fmt_eps(series, eps_trunc):
    return str(series.truncate((min(eps_trunc, series.truncs[0]), *series.truncs[1:])))


def oracle_verify_detHi(eps_trunc, q_trunc) -> Report:
    # H_l and det(I - A1 A2(0))^(-C/2) delta^l / l! as eps-series over (q1,
    # C)-series, compared to (eps_trunc, q_trunc, eps_trunc).
    report = Report(title="determinant form of the degeneration coefficients",
                    notes=[PREFACTOR_NOTE])
    ds = genus2.degeneration_sum(eps_trunc, q_trunc)
    vars, truncs = ("eps", *H_VARS), (eps_trunc, q_trunc, eps_trunc)

    def lift(s):
        return s.embed(vars, (*s.truncs, eps_trunc))

    delta = lift(sewing.degenerate_tau(q_trunc, eps_trunc))
    logdet = lift(sewing.degenerate_logdet(q_trunc, eps_trunc))
    det = (logdet * QSeries(vars, {(0, 0, 1): F(-1, 2)}, truncs)).exp()
    det_delta_l = det
    for l in range(eps_trunc // 2 + 1):
        if l:
            det_delta_l = det_delta_l * delta
        lhs = ds.extract_H(l)
        rhs = det_delta_l * F(1, factorial(l))
        ok = agrees_with(lhs, rhs, truncs)
        report.add(f"H_{l} == det(I-A1*A2(0))^(-C/2) * delta^{l}/{l}!", ok,
                   order=f"eps<={eps_trunc}, q<={q_trunc}, symbolic C",
                   expected=str(rhs) if not ok else "",
                   computed=str(lhs) if not ok else "")
        report.add(f"H_{l} = O(eps^{2 * l})", lhs._ord_bounds()[0] >= 2 * l,
                   order=f"eps<={eps_trunc}")
        bound_ok = all(2 * j <= n - 2 * l for n, _, j in lhs.nums)
        report.add(f"C-degree of H_{l} bounded by n/2 - {l}", bound_ok,
                   order=f"eps<={eps_trunc}")
    return report


def oracle_verify_theta_degeneration(p, eps_trunc, q_trunc) -> Report:
    # The three routes (a), (b), (c) as eps-series over q1, compared to
    # (eps_trunc, q_trunc).
    r = p.rank
    report = Report(
        title=f"torus degeneration of the normalized partition function "
              f"(alpha^2={genus2.rat_str(p.alpha_sq)}, r={r})",
        notes=[PREFACTOR_NOTE])
    delta = sewing.degenerate_tau(q_trunc, eps_trunc)
    eta1 = eta_normalized(q_trunc, "q1")
    theta1 = QSeries.monomial("q1", p.alpha_sq / 2, q_trunc)
    unnormalized = _times_q(z2_module_degenerate(p, q_trunc, eps_trunc), eta1 ** r)
    normalizer = _times_q(z2_heisenberg_degenerate(q_trunc, eps_trunc), eta1) ** r
    theta_lim = divided_by(unnormalized, normalizer)
    theta_taylor = taylor_shift(theta1, delta)
    ds = genus2.degeneration_sum(eps_trunc, q_trunc)
    zhu_side = specialize_sum(ds, BasePartition(theta1, F(r)))

    through = (eps_trunc, q_trunc)
    ok_ab = agrees_with(theta_lim, theta_taylor, through)
    report.add("lim Theta^(2) == Theta^(1)(q) (closed form vs Taylor shift)",
               ok_ab, order=f"eps<={eps_trunc}, q<={q_trunc}",
               expected="" if ok_ab else _fmt_eps(theta_taylor, eps_trunc),
               computed="" if ok_ab else _fmt_eps(theta_lim, eps_trunc))
    ok_c = agrees_with(zhu_side, unnormalized, through)
    report.add("Zhu-recursion degeneration sum == closed-form limit "
               "(eta^r reattached)", ok_c,
               order=f"eps<={eps_trunc}, q<={q_trunc}",
               expected="" if ok_c else _fmt_eps(unnormalized, eps_trunc),
               computed="" if ok_c else _fmt_eps(zhu_side, eps_trunc))
    det_r = oracle_degenerate_det(q_trunc, eps_trunc, r)
    report.add("operator route == det^(-r/2) * shifted Theta^(1)",
               agrees_with(zhu_side, det_r * theta_taylor, through),
               order=f"eps<={eps_trunc}, q<={q_trunc}")
    report.add("only even eps powers appear", is_even(theta_lim) and is_even(zhu_side),
               order=f"eps<={eps_trunc}")
    return report


def oracle_verify_heisenberg_degeneration(eps_trunc, q_trunc) -> Report:
    # The free-boson lines as eps-series over q1: eta(q1)^(+-1) Taylor-shifted
    # to the pinched modulus, the closed form divided block by block, and
    # each eps block compared with the expected series through q1^q_trunc.
    report = Report(title="free-boson torus degeneration", notes=[PREFACTOR_NOTE])
    e2 = eisenstein(2, q_trunc, "q1")
    e4 = eisenstein(4, q_trunc, "q1")
    delta = sewing.degenerate_tau(q_trunc, eps_trunc)
    eta1 = eta_normalized(q_trunc, "q1")

    def check_coeff(name, series, n, expected):
        got = series.block(n)
        ok = agrees_with(got, expected, through=min(q_trunc, got.trunc, expected.trunc))
        report.add(name, ok, order=f"q<={q_trunc}",
                   expected=str(expected) if not ok else "",
                   computed=str(got) if not ok else "")

    eta_ratio = _times_q(taylor_shift(eta1, delta), eta1.inv())
    check_coeff("eta(q)/eta(q1) at eps^2", eta_ratio, 2, e2 * F(1, 24))
    check_coeff("eta(q)/eta(q1) at eps^4", eta_ratio, 4,
                -(e2 * e2 * F(1, 1152) + e4 * F(5, 576)))
    z1_ratio = _times_q(taylor_shift(eta1.inv(), delta), eta1)
    check_coeff("eta(q)^-1 ratio at eps^2", z1_ratio, 2, e2 * F(-1, 24))
    check_coeff("eta(q)^-1 ratio at eps^4", z1_ratio, 4,
                e2 * e2 * F(1, 384) + e4 * F(5, 576))
    det = _eps_series(genus2._at(genus2._pinched_operator(eps_trunc), 1, 0), eps_trunc,
                      lambda x: x.to_qseries(q_trunc, "q1"), EisensteinPoly())
    check_coeff("det^(-1/2) at eps^2", det, 2, e2 * F(-1, 24))
    check_coeff("det^(-1/2) at eps^4", det, 4, e2 * e2 * F(1, 384) + e4 * F(1, 96))
    lim = _times_q(z2_heisenberg_degenerate(q_trunc, eps_trunc), eta1)
    ratio = divided_by(lim, z1_ratio)
    check_coeff("degeneration ratio at eps^0", ratio, 0, QSeries.one("q1", q_trunc))
    check_coeff("degeneration ratio at eps^2", ratio, 2, QSeries.zero("q1", q_trunc))
    check_coeff("degeneration ratio at eps^4", ratio, 4, e4 * F(1, 576))
    report.add("only even eps powers appear", is_even(lim) and is_even(ratio),
               order=f"eps<={eps_trunc}")
    return report


def theta_series(blocks, p, eps_trunc, q_trunc):
    # Blocks in Q[E2, E4, E6] times q1^(alpha^2/2), as an eps-series over q1.
    mono = QSeries.monomial("q1", p.alpha_sq / 2, q_trunc)
    return _eps_series(blocks, eps_trunc, lambda x: x.to_qseries(q_trunc, "q1") * mono,
                       EisensteinPoly())


def ring_theta_objects(monkeypatch, p, e, q):
    # The closed form (a) and the Zhu side (c) the ring suite compares: the
    # first quotient it takes and the first polynomials it evaluates.
    quotients, evaluated = [], []
    quotient, at = genus2._quotient_blocks, genus2._at
    monkeypatch.setattr(genus2, "_quotient_blocks", lambda *a: quotients.append(quotient(*a))
                        or quotients[-1])
    monkeypatch.setattr(genus2, "_at", lambda *a: evaluated.append(at(*a)) or evaluated[-1])
    verify_theta_degeneration(p, e, q)
    monkeypatch.undo()
    return quotients[0], evaluated[0]


# (q1, eps, N): N is the size of the oracles' matrices
PINCHED_ORDERS = [(0, 1, 1), (3, 4, 4), (4, 4, 7), (5, 6, 6), (6, 8, 8), (2, 8, 11)]
PINCHED_PAIRS = [ModulePair(), ModulePair(1, F(1)), ModulePair(2, F(1, 4)), ModulePair(1, F(2)),
                 ModulePair(3, F(-2, 3))]


class TestPinchedMemos:
    # Memoized pinched quantities must equal the uncached computation.
    @pytest.mark.parametrize("q1, e, N", PINCHED_ORDERS)
    @pytest.mark.parametrize("p", PINCHED_PAIRS)
    def test_module_degenerate_equals_oracle(self, p, q1, e, N):
        assert z2_module_degenerate(p, q1, e) == oracle_z2_module_degenerate(p, q1, e, N)

    @pytest.mark.parametrize("q1, e", [(3, 4), (5, 6), (6, 8)])
    def test_one_entry_per_orders(self, q1, e):
        # One cache entry and one result object per pair and orders, equal
        # to the oracle over matrices of size e and of size e + 3.
        genus2._z2_module_degenerate.cache_clear()
        p = ModulePair(1, F(1))
        got = z2_module_degenerate(p, q1, e)
        assert z2_module_degenerate(p, q1, e) is got
        assert genus2._z2_module_degenerate.cache_info().currsize == 1
        assert got == oracle_z2_module_degenerate(p, q1, e, e)
        assert got == oracle_z2_module_degenerate(p, q1, e, e + 3)

    def test_free_boson_is_the_zero_pair_entry(self):
        genus2._z2_module_degenerate.cache_clear()
        assert z2_heisenberg_degenerate(4, 6) is z2_module_degenerate(ModulePair(1, F(0)), 4, 6)
        assert genus2._z2_module_degenerate.cache_info().currsize == 1

    @pytest.mark.parametrize("q1, e, N", PINCHED_ORDERS)
    def test_taylor_shift_equals_oracle(self, q1, e, N):
        delta = degenerate_tau(q1, e)
        assert delta == reference_pinched(q1, e, N)[1]
        eta = eta_normalized(q1, "q1")
        for f in (eta, eta.inv(), QSeries.monomial("q1", F(3, 2), q1),
                  eisenstein(2, q1, "q1") * eisenstein(4, q1, "q1") + QSeries.one("q1", q1)):
            assert taylor_shift(f, delta) == oracle_taylor_shift(f, delta)

    def test_taylor_shift_by_a_non_pinched_delta(self):
        # A delta with an eps^1 term and one that is zero: the table stops
        # at the first zero power, as the loop did.
        delta = QSeries(("eps", "q1"), {(1, 0): F(1, 3), (2, 1): -2, (5, 2): F(7, 5)}, (6, 4))
        f = QSeries("q1", {0: 2, 1: F(-1, 2), 3: 5}, 4, offsets=F(1, 24))
        for d in (delta, times_eps(delta), QSeries.zero(("eps", "q1"), (6, 4))):
            assert taylor_shift(f, d) == oracle_taylor_shift(f, d)

    @pytest.mark.parametrize("q1, e, N", PINCHED_ORDERS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_degenerate_det_is_exp_of_the_logdet(self, r, q1, e, N):
        # det(I - A1 A2(0))^(-r/2), read off the closed-form operator at C = r
        # and qd = 0, is the q1-series exp of the pinched log-det.
        logdet = reference_pinched(q1, e, N)[0]
        det = _eps_series(genus2._at(genus2._pinched_operator(e), r, 0), e,
                          lambda x: x.to_qseries(q1, "q1"), EisensteinPoly())
        assert det == (logdet * F(-r, 2)).exp() == oracle_degenerate_det(q1, e, r)

    @pytest.mark.parametrize("e", range(4, 17))
    @pytest.mark.parametrize("s", [1, -1])
    def test_eta_ratios_equal_the_scalar_recurrence(self, s, e):
        # The free-boson eta ratios by the ring's eta rewrite, whose P table
        # the Theta basis change shares, against the recurrence they replaced.
        closed = genus2._pinched_operator(e)
        got = genus2._eta_shift(closed, s)
        assert got == oracle_eta_ratio(closed, s) and set(got) == set(range(0, e + 1, 2))

    @pytest.mark.parametrize("e, q", [(2, 3), (4, 4), (6, 5), (8, 8)])
    def test_extract_H_equals_oracle(self, e, q):
        ds = degeneration_sum(e, q)
        for l in range(e // 2 + 2):
            assert ds.extract_H(l) == oracle_extract_H(ds, l)


def free_boson_objects(monkeypatch, e, q):
    """The blocks the free-boson suite divides: det^(-1/2) (lim times
    eta(q1)) and the shifted eta(q1)^-1 ratio, and their quotient, the
    degeneration ratio, all in Q[E2, E4, E6]."""
    quotients = []
    quotient = genus2._quotient_blocks
    monkeypatch.setattr(genus2, "_quotient_blocks",
                        lambda *a: quotients.append((*a[:2], quotient(*a))) or quotients[-1][2])
    verify_heisenberg_degeneration(e, q)
    monkeypatch.undo()
    (det, z1_ratio, ratio), = quotients
    return det, z1_ratio, ratio


def oracle_theta_closed_form(p, q1, e, N):
    # Line 1's side (a) as it was taken: the pair's limit times the
    # eps-series inverse of the free boson's to the r-th.
    return (oracle_z2_module_degenerate(p, q1, e, N)
            * (oracle_z2_heisenberg_degenerate(q1, e, N) ** p.rank).inv())


def oracle_free_boson_ratio(q1, e, N):
    # The free-boson degeneration ratio as it was taken: lim times the
    # eps-series inverse of the shifted eta(q1)^-1.
    z1 = taylor_shift(eta_normalized(q1, "q1").inv(), reference_pinched(q1, e, N)[1])
    return oracle_z2_heisenberg_degenerate(q1, e, N) * z1.inv()


# (eps, q, N): N is the size of the oracles' matrices
SUITE_ORDERS = [(4, 4, 4), (6, 5, 6), (8, 6, 8), (4, 3, 7), (12, 12, 12)]


class TestQuotientsAgainstInverses:
    # The suites divide by the free-boson forms block by block; the objects
    # they compare must equal the ones the eps-series inverses gave.
    @pytest.mark.parametrize("e, q, N", SUITE_ORDERS)
    @pytest.mark.parametrize("p", PINCHED_PAIRS)
    def test_theta_closed_form(self, monkeypatch, p, e, q, N):
        # The suite compares the closed form (a) and the Zhu side (c) as
        # polynomial blocks; times q1^(alpha^2/2) they are the series the
        # eps-series inverse and the q-series closed form gave.
        theta_lim, zhu_side = ring_theta_objects(monkeypatch, p, e, q)
        got, want = theta_series(theta_lim, p, e, q), oracle_theta_closed_form(p, q, e, N)
        assert got == want and str(got) == str(want)
        unnormalized = _times_q(z2_module_degenerate(p, q, e), eta_normalized(q, "q1") ** p.rank)
        assert theta_series(zhu_side, p, e, q) == unnormalized

    @pytest.mark.parametrize("e, q, N", SUITE_ORDERS)
    def test_free_boson_ratio(self, monkeypatch, e, q, N):
        # The suite divides polynomial blocks; expanded in q1 they are the
        # series the eps-series inverse, the Taylor shift and the q-series
        # closed form gave.
        det, z1_ratio, ratio = (theta_series(blocks, ModulePair(), e, q)
                                for blocks in free_boson_objects(monkeypatch, e, q))
        want = oracle_free_boson_ratio(q, e, N)
        assert ratio == want and str(ratio) == str(want)
        eta1 = eta_normalized(q, "q1")
        assert det == _times_q(z2_heisenberg_degenerate(q, e), eta1)
        z1 = taylor_shift(eta1.inv(), reference_pinched(q, e, N)[1])
        assert z1_ratio == _times_q(z1, eta1).truncate((e, q))


# (q1, q2, eps, N): N is the size of the oracles' matrices
FREE_BOSON_ORDERS = [(0, 0, 1, 1), (3, 2, 4, 4), (2, 3, 4, 6), (4, 4, 6, 6), (6, 5, 8, 9),
                     (1, 0, 2, 2)]


# (q1, q2, eps): unequal orders and q-order 0 included
PAIR_ORDERS = [(10, 10, 10), (12, 7, 15), (2, 2, 2), (0, 0, 3), (5, 0, 4), (0, 6, 6), (3, 9, 8)]
PAIRS_TO_RANK_4 = [ModulePair(), ModulePair(1, F(1)), ModulePair(2, F(2)),
                   ModulePair(3, F(1, 4), F(2), F(-1, 3)), ModulePair(1, 0, F(3, 5)),
                   ModulePair(2, 0, 0, F(1, 2)), ModulePair(4, F(2), F(1), F(1, 2)), ModulePair(4)]


class TestClosedFormsAgainstQSeriesExps:
    # Each closed form is one exp in its ring, expanded once per eps block;
    # it must equal the exp of the expanded exponent, truncation orders and
    # offsets included.
    @pytest.mark.parametrize("q1, q2, e", PAIR_ORDERS)
    @pytest.mark.parametrize("p", PAIRS_TO_RANK_4)
    def test_module_pair(self, p, q1, q2, e):
        got, want = z2_module_pair(p, q1, q2, e), oracle_z2_module_pair(p, q1, q2, e)
        assert got == want and str(got) == str(want)

    @pytest.mark.parametrize("q1, e", [(0, 1), (3, 4), (4, 7), (8, 8), (12, 12), (1, 9), (0, 6)])
    @pytest.mark.parametrize("p", [ModulePair(), ModulePair(1, F(1)), ModulePair(2, F(1, 4)),
                                   ModulePair(3, F(-2, 3)), ModulePair(4, F(3, 5))])
    def test_module_degenerate(self, p, q1, e):
        got, want = z2_module_degenerate(p, q1, e), qseries_z2_module_degenerate(p, q1, e)
        assert got == want and str(got) == str(want)


class TestFreeBosonIsZeroPairing:
    # The free-boson forms are the module forms at zero pairing; they must
    # equal the standalone closed forms as objects, as text and as JSON.
    @pytest.mark.parametrize("q1, q2, e, N", FREE_BOSON_ORDERS)
    def test_full(self, q1, q2, e, N):
        got, want = z2_heisenberg(q1, q2, e), oracle_z2_heisenberg(q1, q2, e, N)
        assert got == want
        assert str(got) == str(want) and got.to_json() == want.to_json()

    @pytest.mark.parametrize("q1, q2, e, N", FREE_BOSON_ORDERS)
    def test_degenerate(self, q1, q2, e, N):
        got, want = z2_heisenberg_degenerate(q1, e), oracle_z2_heisenberg_degenerate(q1, e, N)
        assert got == want
        assert str(got) == str(want) and got.to_json() == want.to_json()


class TestModulePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulePair(0)
        p = ModulePair(2, F(1, 4), F(1), F(1, 3))
        assert (p.alpha_sq, p.beta_sq, p.alpha_dot_beta) == (F(1, 4), F(1), F(1, 3))

    def test_value_semantics(self):
        # A memo key: equal pairs are equal and hash alike, and a pair is
        # immutable.
        p = ModulePair(1, alpha_sq=F(2))
        assert p == ModulePair(1, 2) and hash(p) == hash(ModulePair(1, "2"))
        assert ModulePair() == ModulePair(1, F(0)) != p
        with pytest.raises(AttributeError):
            p.rank = 2


class TestReportValues:
    # Report and Check compare and print field by field, and a Report keeps
    # the lists it is given.
    def test_equal_reports_compare_equal(self):
        a, b = Report("t", ["n"]), Report("t", ["n"])
        a.add("x", True)
        b.add("x", True)
        assert a == b and a != Report("t", ["n"]) and a != Report("u", ["n"], b.checks)
        assert a.checks == [Check("x", True)] and hash(Check("x", True)) == hash(Check("x", 1))
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(AttributeError):
            a.checks[0].passed = False

    def test_repr_names_the_fields(self):
        assert repr(Check("x", True)) == \
            "Check(name='x', passed=True, order='', expected='', computed='')"
        assert repr(Report("t")) == "Report(title='t', notes=[], checks=[])"

    def test_report_holds_the_lists_it_is_given(self):
        notes, checks = ["n"], []
        report = Report("t", notes, checks)
        report.add("x", False)
        assert report.notes is notes and checks == [Check("x", False)]
        assert Report("t").notes is not Report("t").notes


class TestTaylorShift:
    def test_constant_is_fixed(self):
        delta = degenerate_tau(4, 4)
        s = taylor_shift(QSeries.one("q1", 4), delta)
        assert s.blocks() == {0: QSeries.one("q1", 4)}

    def test_monomial_exponentiates(self):
        # sum_l (d^l/l!) a^l q^a = e^(a d) q^a
        delta = degenerate_tau(5, 6)
        a = F(3, 2)
        mono = QSeries.monomial("q1", a, 5)
        lhs = taylor_shift(mono, delta)
        shift = (delta * a).exp()
        rhs = shift * mono.embed(shift.vars, (shift.truncs[0], 5))
        assert agrees_with(lhs, rhs, (6, 5))


class TestClosedForms:
    def test_heisenberg_leading_term_counts_partitions(self):
        z = z2_heisenberg(5, 5, 4)
        lead = z.block(0)
        p = partition_numbers(5)
        assert lead.offsets == (F(-1, 24), F(-1, 24))
        for m in range(6):
            for n in range(6):
                assert lead.coeff(m, n) == p[m] * p[n]

    def test_heisenberg_even_and_stable(self):
        a = z2_heisenberg(3, 3, 4)
        assert is_even(a)
        for N in (4, 7):
            assert a.to_json() == oracle_z2_heisenberg(3, 3, 4, N).to_json()

    def test_module_pair_reduces_to_heisenberg(self):
        p = ModulePair(1)
        assert z2_module_pair(p, 3, 3, 4) == z2_heisenberg(3, 3, 4)

    def test_module_pair_leading_term(self):
        p = ModulePair(2, alpha_sq=F(1))
        z = z2_module_pair(p, 3, 3, 4)
        lead = z.block(0)
        assert lead.offsets == (F(1, 2) - F(2, 24), F(-2, 24))

    def test_full_z2_pinches_to_degenerate_form(self):
        # q2-series truncated to constants + eta(q2) offset cancelled
        # reproduces the closed degenerate form entry by entry
        full = z2_heisenberg(6, 0, 6)
        deg = z2_heisenberg_degenerate(6, 6)
        for n in range(7):
            sliced = set_second_to_zero(full.block(n) * QSeries(("q1", "q2"), {(0, 0): 1},
                                                                (6, 0), offsets=(0, F(1, 24))))
            assert agrees_with(sliced, deg.block(n))

    def test_module_degenerate_pinches_consistently(self):
        p = ModulePair(1, alpha_sq=F(1))
        full = z2_module_pair(p, 5, 0, 4)
        deg = z2_module_degenerate(p, 5, 4)
        for n in range(5):
            sliced = set_second_to_zero(full.block(n) * QSeries(("q1", "q2"), {(0, 0): 1},
                                                                (5, 0), offsets=(0, F(1, 24))))
            assert agrees_with(sliced, deg.block(n))

    def test_degenerate_module_requires_beta_zero(self):
        with pytest.raises(ValueError):
            z2_module_degenerate(ModulePair(1, F(1), F(1)), 4, 4)


def operator_at(ds, n: int) -> DiffOp:
    """The eps^n operator of a degeneration sum, zero where it has none."""
    return ds.terms.get(n, DiffOp(THETA_BASIS, {}, ds.q_trunc))


def operator_series_json(ds) -> dict:
    """A degeneration sum as nested eps JSON, one operator per eps power."""
    return {"variable": "eps", "trunc": ds.eps_trunc,
            "coeffs": {str(n): ds.terms[n].to_json() for n in sorted(ds.terms)}}


class TestDegenerationSum:
    def test_leading_operator_is_identity(self):
        ds = degeneration_sum(4, 6)
        assert operator_at(ds, 0) == DiffOp.identity("Theta", 6)

    def test_weight_two_operator(self):
        ds = degeneration_sum(2, 6)
        expected = DiffOp("Theta", {(1, 0): F(-1, 12),
                                    (0, 1): eisenstein_poly(2) * F(-1, 24)}, 6)
        assert operator_at(ds, 2) == expected

    def test_shared_operators_are_read_only(self):
        # degeneration_sum and the recursion's cache hand the same DiffOp
        # to every caller, so no caller may change it.
        op = operator_at(degeneration_sum(4, 4), 2)
        with pytest.raises(AttributeError):
            op.nums.clear()
        with pytest.raises(TypeError):
            op.nums[(0, 0, 0, 0, 0)] = 1
        with pytest.raises(AttributeError):
            op.nums = {}
        assert operator_at(degeneration_sum(4, 4), 2).nums == op.nums and not op.is_zero()

    def test_specialized_to_heisenberg(self):
        ds = degeneration_sum(2, 8)
        sp = specialize_sum(ds, BasePartition.heisenberg(1, 8, "q1"))
        assert sp.block(0) == QSeries.one("q1", 8)
        assert sp.block(2) == eisenstein(2, 8, "q1") * F(-1, 24)

    def test_extract_H_values(self):
        ds = degeneration_sum(4, 6)
        H0, H1 = ds.extract_H(0), ds.extract_H(1)
        truncs = (6, 4)
        assert H0.block(0) == QSeries.one(H_VARS, truncs)
        assert H1.block(2) == QSeries.const(H_VARS, F(-1, 12), truncs)
        assert H0.block(2) == (eisenstein(2, 6, "q1").embed(H_VARS, truncs)
                                   * QSeries(H_VARS, {(0, 1): F(-1, 24)}, truncs))
        with pytest.raises(ValueError):
            ds.extract_H(-1)

    def test_json_shapes(self):
        ds = degeneration_sum(2, 4)
        js = operator_series_json(ds)
        assert js["variable"] == "eps" and "0" in js["coeffs"]
        H0 = ds.extract_H(0).to_json()
        assert H0["variable"] == "eps" and H0["coeffs"]["0"]["variables"] == list(H_VARS)


class TestVerifiers:
    def test_detHi_small(self):
        rep = verify_detHi(eps_trunc=6, q_trunc=4)
        assert rep.passed
        assert len(rep.checks) == 12

    @pytest.mark.parametrize("n, l_over", [(2, 1), (4, 2)])
    def test_detHi_identity_fails_on_a_perturbed_H(self, monkeypatch, n, l_over):
        # The identity and the C-degree bound must be able to FAIL: add
        # C*E4*eps^n (eps^4 the top eps order) to every H_l; both checks
        # have to notice it, and the C-degree bound must fail for H_l_over,
        # where 1 > n/2 - l_over.  A failed identity prints both sides.
        perturb_H(monkeypatch, {l: n for l in range(3)})
        rep = verify_detHi(eps_trunc=4, q_trunc=3)
        identity = [c for c in rep.checks if " == det(I-A1*A2(0))" in c.name]
        assert len(identity) == 3
        for c in identity:
            assert not c.passed and c.expected and c.computed
        name = f"C-degree of H_{l_over} bounded by n/2 - {l_over}"
        bound = [c for c in rep.checks if c.name == name]
        assert len(bound) == 1 and not bound[0].passed

    def test_heisenberg_degeneration(self):
        rep = verify_heisenberg_degeneration(eps_trunc=6, q_trunc=6)
        assert rep.passed

    def test_heisenberg_degeneration_needs_eps_order_4(self):
        with pytest.raises(ValueError, match="eps_trunc >= 4"):
            verify_heisenberg_degeneration(eps_trunc=3, q_trunc=4)

    @pytest.mark.parametrize("alpha_sq,rank", [(F(0), 1), (F(1), 1), (F(1, 4), 2)])
    def test_theta_degeneration(self, alpha_sq, rank):
        rep = verify_theta_degeneration(ModulePair(rank, alpha_sq),
                                        eps_trunc=6, q_trunc=4)
        assert rep.passed

    def test_theta_degeneration_requires_beta_zero(self):
        with pytest.raises(ValueError):
            verify_theta_degeneration(ModulePair(1, F(1), F(1)), 4, 4)

    def test_reports_record_prefactor_note(self):
        rep = verify_detHi(eps_trunc=4, q_trunc=4)
        assert any("q2^(r/24)" in n for n in rep.notes)

    def test_report_json_schema(self):
        rep = verify_heisenberg_degeneration(eps_trunc=4, q_trunc=4)
        js = rep.to_json()
        assert js["pass"] is True
        assert all({"name", "pass", "order", "expected", "computed"} <= set(c)
                   for c in js["checks"])


class TestModulePairLeadingValue:
    def test_eps0_coefficient_value(self):
        # beta = 0: leading term is q1^(a^2/2) / (eta(q1) eta(q2))^r exactly
        p = ModulePair(2, alpha_sq=F(1))
        lead = z2_module_pair(p, 4, 4, 4).block(0)
        eta1 = eta_normalized(4, "q1").inv() ** 2
        eta2 = eta_normalized(4, "q2").inv() ** 2
        want = ((QSeries.monomial("q1", F(1, 2), 4) * eta1).embed(("q1", "q2"), (4, 4))
                * eta2.embed(("q1", "q2"), (4, 4)))
        assert lead == want


class TestTorusSwapSymmetry:
    def test_heisenberg_symmetric_in_both_tori(self):
        # gluing is symmetric: every eps coefficient is a symmetric array
        z = z2_heisenberg(4, 4, 6)
        for n in range(7):
            c = z.block(n)
            assert c.offsets[0] == c.offsets[1]
            for (m, k), v in c.coeffs.items():
                assert c.coeff(k, m) == v, (n, m, k)


# -- raising the orders keeps every known coefficient ---------------------------

PAIR = ModulePair(2, alpha_sq=F(1), beta_sq=F(2), alpha_dot_beta=F(1))
PINCHED = ModulePair(1, alpha_sq=F(1, 4))


def _period_parts(e, q):
    pd = period_matrix(q, q, e)
    return [pd.d11, pd.d22, pd.d12]


def _sewing_pair(e, q):
    return a_matrix(1, e, e, q), a_matrix(2, e, e, q)


def _resolvents(e, q):
    A1, A2 = _sewing_pair(e, q)
    return [resolvent_11(A1, A2, e), resolvent_11(A2, A1, e)]


def _weighted_resolvents(e, q):
    A1, A2 = _sewing_pair(e, q)
    return [weighted_resolvent_11(A2, A1, A2, e), weighted_resolvent_11(A1, A2, A1, e)]


TRUNCATED = {
    "degenerate_tau": lambda e, q: [degenerate_tau(q, e)],
    "period_matrix": _period_parts,
    "z2_module_pair": lambda e, q: [z2_module_pair(PAIR, q, q, e)],
    "z2_module_degenerate": lambda e, q: [z2_module_degenerate(PINCHED, q, e)],
    "z2_heisenberg": lambda e, q: [z2_heisenberg(q, q, e)],
    "log_det_I_minus": lambda e, q: [log_det_I_minus(*_sewing_pair(e, q), e)],
    "resolvent_11": _resolvents,
    "weighted_resolvent_11": _weighted_resolvents,
}


def _one_point_terms(q):
    # The series of every (qd^i, C^j) term, i, j <= weight, of the 1-point
    # operators of a few descendants; an absent term is the zero series.
    out = []
    for parts in [(2,), (2, 2), (3, 3), (4, 2)]:
        op, w = one_point(VirState.monomial(parts), q), sum(parts)
        out += [op.coeff(i, j).to_qseries(q) for i in range(w + 1) for j in range(w + 1)]
    return out


# q-series results, which take only the q-order.
Q_TRUNCATED = {
    "one_point": _one_point_terms,
    "eisenstein": lambda q: [eisenstein(k, q) for k in (2, 4, 6, 10)],
    "eta_normalized": lambda q: [eta_normalized(q)],
}


class TestTruncationMetamorphic:
    @pytest.mark.parametrize("e, q", [(2, 1), (4, 2), (4, 3)])
    @pytest.mark.parametrize("name", sorted(TRUNCATED))
    def test_higher_orders_agree_with_lower(self, name, e, q):
        # Every coefficient a result claims at (e, q) must survive at
        # (e+2, q+3): a truncation order that claims too much shows here.
        low, high = TRUNCATED[name](e, q), TRUNCATED[name](e + 2, q + 3)
        for a, b in zip(low, high):
            assert a.truncs[0] >= e
            assert agrees_with(a, b, (e,) + (q,) * (len(a.vars) - 1))

    @pytest.mark.parametrize("e, q", [(2, 1), (4, 2), (4, 3)])
    @pytest.mark.parametrize("name", sorted(Q_TRUNCATED))
    def test_q_series_agree_with_higher_orders(self, name, e, q):
        # The same check for the q-series builders: every coefficient they
        # claim at q must survive at q+3 (e only names the shared grid).
        low, high = Q_TRUNCATED[name](q), Q_TRUNCATED[name](q + 3)
        for a, b in zip(low, high, strict=True):
            assert a.trunc >= q
            assert agrees_with(a, b, a.trunc)

    @pytest.mark.parametrize("e, q", [(4, 2), (4, 3)])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_extract_H_agrees_with_higher_orders(self, l, e, q):
        low = degeneration_sum(e, q).extract_H(l)
        high = degeneration_sum(e + 2, q + 3).extract_H(l)
        assert low.truncs[0] >= e
        assert low.vars == ("eps", *H_VARS) and low.truncs[1:] == (q, e)
        assert agrees_with(low, high, (e, q, e))


# -- truncation soundness: every claimed coefficient survives two more orders -----

SOUND_PAIR = ModulePair(2, alpha_sq=F(1), beta_sq=F(2), alpha_dot_beta=F(-1))


def _compute_objects(e, q):
    # The eps-series ``twotori compute`` prints.
    pd = period_matrix(q, q, e)
    return {"tau-degen": degenerate_tau(q, e), "period d11": pd.d11,
            "period d22": pd.d22, "period d12": pd.d12, "z2-heisenberg": z2_heisenberg(q, q, e),
            "z2-module": z2_module_pair(SOUND_PAIR, q, q, e)}


SOUND_THETA = ModulePair(2, F(1, 4))


def _suite_objects(monkeypatch, e, q):
    # The objects the degeneration suites compare, as polynomial blocks, and
    # the pair whose q1^(alpha^2/2) they stand over: line 1's closed form and
    # the Zhu side for one pair, and the free-boson ratio.
    theta_lim, zhu_side = ring_theta_objects(monkeypatch, SOUND_THETA, e, q)
    ratio = free_boson_objects(monkeypatch, e, q)[2]
    return {"closed form (a)": (theta_lim, SOUND_THETA), "Zhu side": (zhu_side, SOUND_THETA),
            "free-boson ratio": (ratio, ModulePair())}


def assert_cut_back(low, high, e, q):
    # low claims (at least) eps^e and q^q; high, cut back to what low
    # claims, must equal it.
    assert low.vars == high.vars and low.truncs[0] >= e
    assert all(t >= q for t in low.truncs[1:])
    assert high.truncate(low.truncs) == low


class TestTruncationSoundness:
    @pytest.mark.parametrize("e, q", [(2, 2), (4, 3), (6, 6), (3, 5)])
    def test_compute_objects(self, e, q):
        low, high = _compute_objects(e, q), _compute_objects(e + 2, q + 2)
        for name in low:
            assert_cut_back(low[name], high[name], e, q)

    @pytest.mark.parametrize("q", [2, 4, 6])
    @pytest.mark.parametrize("parts", [(2,), (2, 2), (3, 3), (4, 2, 2), (6,)])
    def test_onepoint(self, parts, q):
        for basis in (lambda op: op, to_theta_basis):
            low = basis(one_point(VirState.monomial(parts), q)).series()
            high = basis(one_point(VirState.monomial(parts), q + 2)).series()
            for key, s in high.items():
                cut = s.truncate(q)
                assert cut == low[key] if key in low else cut.is_zero()
            assert set(low) <= set(high)

    @pytest.mark.parametrize("e, q", [(4, 3), (6, 6), (4, 5)])
    def test_theta_suite_objects(self, monkeypatch, e, q):
        # A polynomial block claimed at eps^n <= e is the same at e + 2, and
        # so is its q-expansion cut back to q.
        low, high = _suite_objects(monkeypatch, e, q), _suite_objects(monkeypatch, e + 2, q + 2)
        for name in low:
            (lo, p), (hi, _) = low[name], high[name]
            assert lo == {n: x for n, x in hi.items() if n <= e} and 0 in lo
            assert_cut_back(theta_series(lo, p, e, q), theta_series(hi, p, e + 2, q + 2), e, q)


# -- the suites in the rings against the q-series suites ----------------------------

E4 = EisensteinPoly({(0, 1, 0): 1})
THETA_PAIRS = [ModulePair(1), ModulePair(1, F(1)), ModulePair(2, F(1, 4)), ModulePair(1, F(2)),
               ModulePair(3, F(3, 5))]
# (eps, q): unequal orders, odd eps and q-order 1 included.
RING_SUITE_ORDERS = [(4, 4), (6, 1), (8, 6), (5, 3), (9, 1), (10, 2), (12, 12)]


def perturb_H(monkeypatch, where: dict) -> None:
    """Add C*E4 at eps^where[l] to H_l, the qd^l part of the operators of
    the degeneration sum, for each l in ``where``."""
    degeneration = genus2.degeneration_sum

    def perturbed(e, q):
        ds = degeneration(e, q)
        terms = dict(ds.terms)
        for l, n in where.items():
            op = terms.get(n, DiffOp(THETA_BASIS, {}, q))
            terms[n] = DiffOp(THETA_BASIS, op + OperatorPoly({(l, 1, 0, 1, 0): 1}), q)
        return OperatorEpsSeries(terms, e, q)

    monkeypatch.setattr(genus2, "degeneration_sum", perturbed)


def perturb_pinched(monkeypatch, which: int, n: int) -> None:
    """Add E4/7 to block n of the pinched log-det (which = 0) or delta (1),
    wherever the memo of the pinched pass is read: the sewing route only.
    Run it with the ``cleared`` fixture, so no memo keeps the perturbation."""
    blocks = sewing._degenerate_sewing

    def perturbed(eps_trunc):
        out = list(blocks(eps_trunc))
        out[which] = {**out[which], n: out[which].get(n, EisensteinPoly()) + E4 * F(1, 7)}
        return tuple(out)

    for module in (sewing, genus2):
        monkeypatch.setattr(module, "_degenerate_sewing", perturbed)


def perturb_det_constant(monkeypatch) -> None:
    """Add C*E4/7 to the eps^0 operator of the closed form: a constant term
    of det(I - A1 A2(0))^(-C/2) other than 1, where the exp of the pinched
    log-det cannot put one.  The qd^l C^0 parts, delta^l/l!, stay as they
    are.  Run it with the ``cleared`` fixture."""
    operator = genus2._pinched_operator

    def perturbed(eps_trunc):
        ops = dict(operator(eps_trunc))
        ops[0] = ops[0] + OperatorPoly({(0, 1, 0, 1, 0): F(1, 7)})
        return ops

    monkeypatch.setattr(genus2, "_pinched_operator", perturbed)


# (which, n) of ``perturb_pinched``, or (None, 0) for ``perturb_det_constant``:
# each perturbation of the free-boson lines in TestPerturbations.
FREE_BOSON_PERTURBATIONS = [(0, 2), (0, 4), (1, 2), (1, 4), (0, 3), (1, 3), (None, 0)]


def perturb_free_boson(monkeypatch, which, n) -> None:
    if which is None:
        perturb_det_constant(monkeypatch)
    else:
        perturb_pinched(monkeypatch, which, n)


@pytest.fixture
def cleared():
    # Memos filled under a perturbation must not outlive the test.
    clear_caches()
    yield
    clear_caches()


def failed(report) -> list:
    return [c.name for c in report.checks if not c.passed]


class TestRingSuitesAgainstQSeriesSuites:
    # The q-series suites are the oracles: the suites in the rings give the
    # same reports, check by check, and a failed check prints the same
    # expected and computed series.
    @pytest.mark.parametrize("e, q", RING_SUITE_ORDERS)
    def test_detHi(self, e, q):
        got, want = verify_detHi(e, q), oracle_verify_detHi(e, q)
        assert got == want and got.passed and len(got.checks) == 3 * (e // 2 + 1)

    @pytest.mark.parametrize("e, q", RING_SUITE_ORDERS)
    @pytest.mark.parametrize("p", THETA_PAIRS)
    def test_theta(self, p, e, q):
        got, want = verify_theta_degeneration(p, e, q), oracle_verify_theta_degeneration(p, e, q)
        assert got == want and got.passed and len(got.checks) == 4

    @pytest.mark.parametrize("which, n", [(0, 4), (1, 6)])
    def test_failed_checks_print_the_q_series(self, monkeypatch, cleared, which, n):
        perturb_pinched(monkeypatch, which, n)
        reports = [(verify_detHi(8, 6), oracle_verify_detHi(8, 6))]
        reports += [(verify_theta_degeneration(p, 8, 6), oracle_verify_theta_degeneration(p, 8, 6))
                    for p in THETA_PAIRS]
        assert any(c.expected and c.computed for got, _ in reports for c in got.checks)
        for got, want in reports:
            assert got == want

    @pytest.mark.parametrize("e, q", [(4, 1), (5, 3), (8, 6), (12, 12), (16, 2)])
    def test_heisenberg(self, e, q):
        got = verify_heisenberg_degeneration(e, q)
        want = oracle_verify_heisenberg_degeneration(e, q)
        assert got == want and got.passed and len(got.checks) == 10

    @pytest.mark.parametrize("which, n", FREE_BOSON_PERTURBATIONS)
    def test_failed_free_boson_lines_print_the_q_series(self, monkeypatch, cleared, which, n):
        # Under each perturbation of TestPerturbations both suites fail the
        # same lines and print the same expanded sides.
        perturb_free_boson(monkeypatch, which, n)
        got = verify_heisenberg_degeneration(8, 6)
        want = oracle_verify_heisenberg_degeneration(8, 6)
        assert not got.passed and got == want

    def test_a_failed_H_identity_prints_the_q_series(self, monkeypatch, cleared):
        # The computed side is H_l as extract_H expands it.
        perturb_H(monkeypatch, {1: 4})
        got, want = verify_detHi(6, 5), oracle_verify_detHi(6, 5)
        assert failed(got) == ["H_1 == det(I-A1*A2(0))^(-C/2) * delta^1/1!"] and got == want
        check = next(c for c in got.checks if not c.passed)
        assert check.computed == str(genus2.degeneration_sum(6, 5).extract_H(1))


class TestPerturbations:
    # Each perturbation enters one route only, at eps order 8 after the
    # caches are cleared, and fails the checks it reaches.  Line 1 of a
    # theta pair compares two sewing-route objects, so neither pinched
    # perturbation fails it (the open finding of ROADMAP item 1).
    PAIRS = [ModulePair(1), ModulePair(1, F(1)), ModulePair(2, F(1, 4)), ModulePair(1, F(2))]
    LINES_2_3 = ["Zhu-recursion degeneration sum == closed-form limit (eta^r reattached)",
                 "operator route == det^(-r/2) * shifted Theta^(1)"]

    @staticmethod
    def identities(ls):
        return [f"H_{l} == det(I-A1*A2(0))^(-C/2) * delta^{l}/{l}!" for l in ls]

    def test_logdet_block_4(self, monkeypatch, cleared):
        perturb_pinched(monkeypatch, 0, 4)
        assert failed(verify_detHi(8, 6)) == self.identities([0, 1, 2])
        for p in self.PAIRS:
            assert failed(verify_theta_degeneration(p, 8, 6)) == self.LINES_2_3

    def test_delta_block_6(self, monkeypatch, cleared):
        perturb_pinched(monkeypatch, 1, 6)
        assert failed(verify_detHi(8, 6)) == self.identities([1, 2])
        for p in self.PAIRS:
            assert failed(verify_theta_degeneration(p, 8, 6)) == (
                self.LINES_2_3 if p.alpha_sq else [])

    # The free-boson lines, in report order.
    ETA = ["eta(q)/eta(q1) at eps^2", "eta(q)/eta(q1) at eps^4"]
    ETA_INV = ["eta(q)^-1 ratio at eps^2", "eta(q)^-1 ratio at eps^4"]
    DET = ["det^(-1/2) at eps^2", "det^(-1/2) at eps^4"]
    RATIO = [f"degeneration ratio at eps^{n}" for n in (0, 2, 4)]
    EVEN = ["only even eps powers appear"]

    def test_logdet_block_2_fails_det_and_ratio(self, monkeypatch, cleared):
        # The eta ratios read the C^0 parts of the closed form, which the
        # log-det (a coefficient of C) never reaches.
        perturb_pinched(monkeypatch, 0, 2)
        assert failed(verify_heisenberg_degeneration(8, 6)) == self.DET + self.RATIO[1:]

    def test_logdet_block_4_fails_det_and_ratio_at_eps4(self, monkeypatch, cleared):
        perturb_pinched(monkeypatch, 0, 4)
        assert failed(verify_heisenberg_degeneration(8, 6)) == [self.DET[1], self.RATIO[2]]

    def test_delta_block_2_fails_the_eta_ratios_and_ratio(self, monkeypatch, cleared):
        # det^(-1/2) is read at qd = 0, which delta never reaches.
        perturb_pinched(monkeypatch, 1, 2)
        assert failed(verify_heisenberg_degeneration(8, 6)) == (
            self.ETA + self.ETA_INV + self.RATIO[1:])

    def test_delta_block_4_fails_the_eps4_lines_it_reaches(self, monkeypatch, cleared):
        perturb_pinched(monkeypatch, 1, 4)
        assert failed(verify_heisenberg_degeneration(8, 6)) == [
            self.ETA[1], self.ETA_INV[1], self.RATIO[2]]

    @pytest.mark.parametrize("which", [0, 1])
    def test_an_odd_block_fails_the_evenness_line_only(self, monkeypatch, cleared, which):
        # eps^3 enters eps^4 only times an eps^1 block, and there is none.
        perturb_pinched(monkeypatch, which, 3)
        assert failed(verify_heisenberg_degeneration(8, 6)) == self.EVEN

    def test_det_constant_term_fails_the_ratio(self, monkeypatch, cleared):
        # The only perturbation that reaches the eps^0 line: the ratio is
        # det^(-1/2) over a unit, so a wrong eps^0 block of det carries into
        # every block of the ratio, while det^(-1/2) at eps^2 and eps^4 and
        # the eta ratios stay right.
        perturb_det_constant(monkeypatch)
        assert failed(verify_heisenberg_degeneration(8, 6)) == self.RATIO

    @pytest.mark.parametrize("which, n", FREE_BOSON_PERTURBATIONS)
    def test_eta_ratios_equal_the_scalar_recurrence(self, monkeypatch, cleared, which, n):
        # Under each perturbation, the eta ratios the suite reads off the
        # closed form by the ring's eta rewrite are those of the scalar
        # recurrence it replaced.
        perturb_free_boson(monkeypatch, which, n)
        calls, shift = [], genus2._eta_shift
        monkeypatch.setattr(genus2, "_eta_shift",
                            lambda ops, s: calls.append((ops, s, shift(ops, s))) or calls[-1][2])
        verify_heisenberg_degeneration(8, 6)
        assert [s for _, s, _ in calls] == [1, -1]
        for ops, s, got in calls:
            assert got == oracle_eta_ratio(ops, s)

    def test_det_constant_term_stops_the_theta_quotients(self, monkeypatch, cleared):
        # The theta lines divide by det^(-r/2), whose eps^0 block the
        # quotient reads as 1: a wrong one is an internal fault, raised and
        # never a usage error, not a quotient taken as if it were 1.
        perturb_det_constant(monkeypatch)
        for p in self.PAIRS:
            with pytest.raises(ArithmeticError):
                verify_theta_degeneration(p, 8, 6)
        with pytest.raises(ArithmeticError):
            main(["verify", "theta-degen", "--eps-order", "4", "--q-order", "4"])

    @pytest.mark.parametrize("l", range(5))
    def test_C_E4_in_H(self, monkeypatch, cleared, l):
        # C*E4 at eps^(2l) in H_l: C-degree 1 > n/2 - l = 0.
        perturb_H(monkeypatch, {l: 2 * l})
        assert failed(verify_detHi(8, 6)) == [
            *self.identities([l]), f"C-degree of H_{l} bounded by n/2 - {l}"]
