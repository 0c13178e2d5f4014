"""Sewing-matrix tests: entries, determinant/resolvent expansions, period data."""

import math
from fractions import Fraction as F

import pytest

from twotori.ring import EisensteinPoly, SeriesError, bernoulli
from twotori import sewing
from twotori.series import QSeries, eisenstein
from twotori.sewing import (
    AMatrix,
    _check_sizes,
    _dot,
    _embed,
    _eps_series,
    _index_pairs,
    _Minors,
    _pinched_coeff,
    _Rationals,
    _sewing_pass,
    a2_degenerate,
    a_matrix,
    degenerate_logdet,
    degenerate_tau,
    log_det_I_minus,
    period_matrix,
    resolvent_11,
    sewing_data,
    weighted_resolvent_11,
)

from test_series import agrees_with, divided_by, is_even, set_second_to_zero, times_eps


# -- the powers route, kept as the oracle of the minors route -----------------------


def _mat_mul(A, B, zero: QSeries):
    # Sums start from ``zero``, so every entry is cut to its eps order
    # whatever the matrix size.
    size = len(A)
    out = []
    for k in range(size):
        row = []
        for l in range(size):
            acc = zero
            for m in range(size):
                if A[k][m].is_zero() or B[m][l].is_zero():
                    continue
                acc = acc + A[k][m] * B[m][l]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _power_sums(A, B, eps_trunc: int):
    """log det(I - A B) = -sum_{n>=1} Tr(P^n)/n with P = A B, and the period
    data read off the first row and column of sum_n P^n = (I - P)^(-1):
    d11 = eps (B R)(1,1), d22 = eps (R A)(1,1), d12 = -eps R(1,1).

    One pass over P^n, 2n <= eps_trunc: every entry of P^n is O(eps^(2n)),
    so the n-sums are exact at eps^eps_trunc.
    """
    _check_sizes(eps_trunc, A.size, B.size)
    (a, b), zero = _embed(A, B)
    P = _mat_mul(a, b, zero)
    row = [zero + 1] + [zero] * (A.size - 1)
    col = list(row)
    logdet = zero
    power = P
    n = 1
    while 2 * n <= eps_trunc:
        if n > 1:
            power = _mat_mul(power, P, zero)
        tr = zero
        for k in range(A.size):
            tr = tr + power[k][k]
        logdet = logdet + tr * F(-1, n)
        row = [r + x for r, x in zip(row, power[0])]
        col = [c + p[0] for c, p in zip(col, power)]
        n += 1
    d11 = times_eps(_dot(b[0], col, zero))
    d22 = times_eps(_dot(row, [r[0] for r in a], zero))
    d12 = -times_eps(col[0])
    return logdet, d11, d22, d12


class TestMinorsAgainstPowers:
    # The minors route must equal the powers route as QSeries objects,
    # truncation orders included; the powers route multiplies matrices of
    # size N >= eps order, and the size changes nothing.
    @pytest.mark.parametrize("T", range(2, 13))
    @pytest.mark.parametrize("extra", [0, 3])
    def test_bivariate(self, T, extra):
        q1, q2 = ((3, 1), (0, 2), (2, 4))[T % 3]
        N = T + extra
        A1, A2 = a_matrix(1, N, T, q1), a_matrix(2, N, T, q2)
        logdet, d11, d22, d12 = _power_sums(A1, A2, T)
        got_logdet, d = sewing_data(q1, q2, T, ("d11", "d22", "d12"))
        assert got_logdet == logdet
        assert (d["d11"], d["d22"], d["d12"]) == (d11, d22, d12)

    def test_only_the_entries_asked_for(self):
        # Each entry is the same whatever else the pass sums alongside it.
        full = sewing_data(2, 3, 6, ("d11", "d22", "d12"))
        for wanted in [(), ("d11",), ("d22",), ("d12", "d11")]:
            logdet, d = sewing_data(2, 3, 6, wanted)
            assert logdet == full[0]
            assert d == {name: full[1][name] for name in wanted}

    @pytest.mark.parametrize("T", range(1, 17))
    def test_degenerate(self, T):
        q = min(T, 8)
        logdet, d11, _, _ = _power_sums(a_matrix(1, T, T, q), a2_degenerate(T, T), T)
        assert degenerate_logdet(q, T) == logdet
        assert degenerate_tau(q, T) == d11

    def test_all_numerators_of_the_degenerate_pass(self):
        # The pinched pass asks for d11 only; the pass sums d22 and d12 of
        # A1 and A2(0) just as well.
        T, q, N = 9, 3, 11
        b = _Minors(lambda k, l: _Rationals({(): _pinched_coeff(k, l)}), T + 1,
                    _Rationals({(): 1}))
        logdet, d = _sewing_pass(EisensteinPoly, T, ("d11", "d22", "d12"), b)

        def expanded(blocks, trunc):
            return _eps_series(blocks, trunc, lambda p: p.to_qseries(q, "q1"), EisensteinPoly())

        want = _power_sums(a_matrix(1, N, T, q), a2_degenerate(N, T), T)
        assert (expanded(logdet, T), *(expanded(d[name], T + 1) for name in ENTRIES)) == want


@pytest.mark.parametrize("limit", range(14))
def test_index_pairs_stay_below_the_limit(limit):
    # A sum through eps^limit reads no matrix index >= limit, so no pass
    # needs the size of the matrices.
    assert all(x < limit for S, U, _ in _index_pairs(limit) for x in S + U)


# -- the per-product pass, kept as the oracle of the pass in the rings --------------


def is_zero(x) -> bool:
    return x == 0 if isinstance(x, F) else x.is_zero()


def per_product_minor_sums(A, B, eps_trunc: int, wanted=()):
    """The sewing pass over the q-series entries of A and B, as one QSeries
    product per Cauchy-Binet term: both minors embedded in the variables of
    the product, the products added one by one per eps block, and each
    period entry N * exp(-log det)."""
    _check_sizes(eps_trunc, A.size, B.size)
    T = min(eps_trunc, A.eps_trunc, B.eps_trunc)
    _, full = _embed(A, B)
    qvars, qtruncs = full.vars[1:], full.truncs[1:]
    zero = QSeries.zero(full.vars, (T, *qtruncs))
    block_zero = zero.block_zero()
    a, b = (_Minors(m.coeff, T + 1, m.entries[0][0].block_zero() + 1) for m in (A, B))
    sums = {name: {} for name in ("det", *wanted)}

    def lifted(minors, S, U):
        x = minors[S, U]
        return x.embed(qvars, qtruncs) if isinstance(x, QSeries) else x

    def product(x, y):
        return None if is_zero(x) or is_zero(y) else x * y

    def add(name, n, sign, term):
        if term is not None and name in sums:
            acc = sums[name].get(n, block_zero)
            sums[name][n] = acc + term if sign > 0 else acc - term

    for S, U, n in _index_pairs(T + 1):
        sign = -1 if len(S) % 2 else 1
        if n <= T:
            term = product(lifted(a, S, U), lifted(b, U, S))
            add("det", n, sign, term)
            if 1 not in S:
                add("d12", n, sign, term)
        if S[:1] == U[:1] == (1,):
            if "d11" in sums:
                add("d11", n - 1, sign, product(lifted(a, S[1:], U[1:]), lifted(b, U, S)))
            if "d22" in sums:
                add("d22", n - 1, sign, product(lifted(a, S, U), lifted(b, U[1:], S[1:])))
    series = {name: QSeries.from_blocks("eps", blocks, T) if blocks else zero
              for name, blocks in sums.items()}
    logdet = series.pop("det").log()
    inv_det = (-logdet).exp() if wanted else None
    return logdet, {name: -times_eps(N * inv_det) for name, N in series.items()}


ENTRIES = ("d11", "d22", "d12")


class TestOuterProductPass:
    # The pass in Q[E(q1)] (x) Q[E(q2)] and in Q[E(q1)] equals the
    # per-product pass over the q-series entries as QSeries objects,
    # truncation orders included.
    @pytest.mark.parametrize("eps, q1, q2", [(6, 6, 6), (8, 5, 7), (10, 10, 10), (12, 12, 12)])
    def test_bivariate(self, eps, q1, q2):
        A1, A2 = a_matrix(1, eps, eps, q1), a_matrix(2, eps, eps, q2)
        assert sewing_data(q1, q2, eps, ENTRIES) == per_product_minor_sums(A1, A2, eps, ENTRIES)

    @pytest.mark.parametrize("eps, N", [(8, 8), (12, 12), (16, 16), (8, 11)])
    def test_pinched(self, eps, N):
        A1, A20 = a_matrix(1, N, eps, eps), a2_degenerate(N, eps)
        logdet, d = per_product_minor_sums(A1, A20, eps, ("d11",))
        assert degenerate_logdet(eps, eps) == logdet
        assert degenerate_tau(eps, eps) == d["d11"]

    def test_matrices_in_one_variable_are_summed(self):
        # log_det_I_minus multiplies minors as series, so two matrices in
        # one q-variable are summed like any other pair.
        A1 = a_matrix(1, 4, 4, 2)
        assert log_det_I_minus(A1, A1, 4) == _power_sums(A1, A1, 4)[0]


# (q1, eps, N): N is the size of the oracle's matrices
RING_ORDERS = [(12, 12, 12), (16, 16, 16), (20, 20, 20), (24, 24, 24), (7, 10, 12), (6, 8, 8),
               (12, 12, 14), (3, 9, 9), (0, 6, 6), (20, 8, 11)]


class TestPinchedRingPass:
    # The pinched pass in Q[E2, E4, E6] equals the per-product pass over the
    # q1-series entries of A1 and A2(0), its oracle, as QSeries objects,
    # truncation orders included.
    @pytest.mark.parametrize("q, T, N", RING_ORDERS)
    def test_against_the_q1_series_pass(self, q, T, N):
        logdet, d = per_product_minor_sums(a_matrix(1, N, T, q), a2_degenerate(N, T), T,
                                           ("d11",))
        assert degenerate_logdet(q, T) == logdet
        assert degenerate_tau(q, T) == d["d11"]

    @pytest.mark.parametrize("T", [1, 2, 5, 8, 13, 16])
    def test_integer_minors_are_the_rational_minors(self, monkeypatch, T):
        # A2(0)'s minors come from the integer matrix D c over D^|S|; each
        # one the pass reads equals the minor taken in _Rationals, and the
        # blocks are the pass's over the _Rationals table.
        passes = []
        monkeypatch.setattr(sewing, "_sewing_pass",
                            lambda *a: passes.append(a) or _sewing_pass(*a))
        sewing._degenerate_sewing.cache_clear()
        got = sewing._degenerate_sewing(T)
        sewing._degenerate_sewing.cache_clear()
        (ring, eps, wanted, b), = passes
        rational = _Minors(lambda k, l: _Rationals({(): _pinched_coeff(k, l)}), T + 1,
                           _Rationals({(): 1}))
        assert (ring, eps, wanted) == (EisensteinPoly, T, ("d11",))
        assert b and all(type(m) is _Rationals and m == rational[key] for key, m in b.items())
        logdet, d = _sewing_pass(EisensteinPoly, T, ("d11",), rational)
        assert got == (logdet, d["d11"])

    def test_refuses_what_the_matrices_refuse(self):
        # The moment matrices start at eps^1, so eps order 0 has no pass.
        with pytest.raises(ValueError, match="eps order must be >= 1"):
            degenerate_logdet(4, 0)


class TestBlockDivision:
    # N.divided_by(det) is N / det by the eps-block recurrence; it must
    # equal the product with exp(-log det) that it replaced.
    @pytest.mark.parametrize("A, B, eps", [
        (a_matrix(1, 8, 8, 6), a_matrix(2, 8, 8, 6), 8),
        (a_matrix(1, 10, 10, 7), a2_degenerate(10, 10), 10)])
    def test_against_exp_of_minus_log_det(self, A, B, eps):
        logdet = log_det_I_minus(A, B, eps)
        det = logdet.exp()
        numerators = [times_eps(det.truncate((eps - 1, *det.truncs[1:]))),
                      QSeries(det.vars, {(1, *(1,) * (len(det.vars) - 1)): F(3, 7),
                                         (4, *(0,) * (len(det.vars) - 1)): -2}, det.truncs),
                      QSeries.zero(det.vars, det.truncs)]
        for N in numerators:
            assert divided_by(N, det) == N * (-logdet).exp()

    def test_one_variable(self):
        det = QSeries("eps", {0: 1, 2: F(-1, 3), 3: 5}, 7)
        N = QSeries("eps", {1: 2, 4: F(1, 9)}, 7)
        assert divided_by(N, det) == N * (-det.log()).exp() == N * det.inv()

    def test_cut_at_the_smaller_eps_order(self):
        det = QSeries("eps", {0: 1, 2: F(1, 2)}, 5)
        N = QSeries("eps", {0: 1, 1: 1}, 9)
        assert divided_by(N, det) == N.truncate(5) * det.inv()

    @pytest.mark.parametrize("det", [
        QSeries("eps", {0: 2, 2: 1}, 4),
        QSeries("eps", {2: 1}, 4),
        QSeries(("eps", "q1"), {(0, 0): 1, (0, 1): 1}, (4, 3)),
        QSeries(("eps", "q1"), {(0, 0): 1}, (4, 3), (0, F(1, 2)))])
    def test_needs_a_unit_eps0_block(self, det):
        N = QSeries(det.vars, {(1,) * len(det.vars): 1}, det.truncs)
        with pytest.raises(SeriesError, match="division"):
            divided_by(N, det)


class TestEpsTruncation:
    # Asked for a lower eps order than the matrices carry, each result is
    # cut to that order and agrees there with the full-order result.
    A1, A20 = a_matrix(1, 8, 8, 4), a2_degenerate(8, 8)

    def check(self, route):
        low, full = route(4), route(8)
        assert low.truncs[0] == 4
        assert low == full.truncate((4, *full.truncs[1:]))

    def test_log_det(self):
        self.check(lambda e: log_det_I_minus(self.A1, self.A20, e))

    def test_resolvent(self):
        self.check(lambda e: resolvent_11(self.A1, self.A20, e))

    def test_weighted_resolvent(self):
        self.check(lambda e: weighted_resolvent_11(self.A20, self.A1, self.A20, e))


class TestEntryShape:
    # The minors route reads entry (k, l) as one block at eps^((k+l)/2) and
    # refuses a matrix that breaks that shape.
    @pytest.mark.parametrize("k, l, power", [(1, 1, 2), (1, 2, 1), (2, 3, 3)])
    def test_misplaced_block_raises(self, k, l, power):
        A = a_matrix(1, 4, 4, 2)
        rows = [list(r) for r in A.entries]
        rows[k - 1][l - 1] = rows[k - 1][l - 1] + QSeries.from_blocks(
            "eps", {power: QSeries.one("q1", 2)}, 4)
        with pytest.raises(SeriesError):
            log_det_I_minus(AMatrix(A.size, tuple(map(tuple, rows)), A.eps_trunc),
                            a2_degenerate(4, 4), 4)


def const_q1(c, q_trunc):
    return QSeries.const("q1", c, q_trunc)


def eps_series(blocks, trunc):
    return QSeries.from_blocks("eps", blocks, trunc)


class TestMomentMatrix:
    def test_entry_11(self):
        A = a_matrix(1, 3, 4, 4)
        assert A.entry(1, 1) == eps_series({1: eisenstein(2, 4, "q1")}, 4)

    def test_entry_12_vanishes(self):
        assert a_matrix(1, 3, 4, 4).entry(1, 2).is_zero()

    def test_entry_22(self):
        A = a_matrix(2, 3, 4, 4)
        assert A.entry(2, 2) == eps_series({2: eisenstein(4, 4, "q2") * -3}, 4)

    def test_entry_13(self):
        # (k,l)=(1,3): (-1)^4 * 3!/(3*0!*2!) = 1, so entry is eps^2 E4
        A = a_matrix(1, 3, 4, 4)
        assert A.entry(1, 3) == eps_series({2: eisenstein(4, 4, "q1")}, 4)

    def test_odd_sum_entries_zero(self):
        A = a_matrix(1, 5, 6, 3)
        for k in range(1, 6):
            for l in range(1, 6):
                if (k + l) % 2:
                    assert A.entry(k, l).is_zero()


class TestDegenerateMatrix:
    def test_entry_11(self):
        assert a2_degenerate(3, 4).entry(1, 1) == eps_series({1: F(-1, 12)}, 4)

    def test_entry_13_from_b4(self):
        # (-1)^3 B_4 / (3*4*0!*2!) = (1/30)/24 = 1/720
        assert bernoulli(4) == F(-1, 30)
        assert a2_degenerate(3, 4).entry(1, 3) == eps_series({2: F(1, 720)}, 4)

    def test_matches_q_to_zero_limit(self):
        # E_k(0) = -B_k/k! makes the two entry formulas coincide
        A2q0 = a_matrix(2, 5, 6, 0)
        A20 = a2_degenerate(5, 6)
        for k in range(1, 6):
            for l in range(1, 6):
                lifted = A20.entry(k, l).embed(("eps", "q2"), (6, 0))
                assert agrees_with(A2q0.entry(k, l), lifted)


class TestLogDet:
    def test_eps0_term_vanishes(self):
        L = log_det_I_minus(a_matrix(1, 4, 4, 4), a2_degenerate(4, 4), 4)
        assert L.block(0).is_zero()

    def test_leading_term_with_degenerate_factor(self):
        L = log_det_I_minus(a_matrix(1, 6, 6, 6), a2_degenerate(6, 6), 6)
        assert L.block(2) == eisenstein(2, 6, "q1") * F(1, 12)

    def test_half_determinant_expansion(self):
        # det(I - A1 A2(0))^(-1/2) through eps^4, from the degeneration proof
        L = log_det_I_minus(a_matrix(1, 6, 6, 8), a2_degenerate(6, 6), 6)
        det = (L * F(-1, 2)).exp()
        e2, e4 = eisenstein(2, 8, "q1"), eisenstein(4, 8, "q1")
        assert det.block(0) == const_q1(1, 8)
        assert det.block(2) == e2 * F(-1, 24)
        assert det.block(4) == e2 * e2 * F(1, 384) + e4 * F(1, 96)
        assert is_even(det)

    def test_size_check(self):
        with pytest.raises(SeriesError):
            log_det_I_minus(a_matrix(1, 3, 6, 4), a2_degenerate(3, 6), 6)

    def test_conjugation_invariance(self):
        # Test-only unconjugated route: entries x(k,l)/sqrt(kl) with rational
        # x; sqrt factors pair up, giving 1/m weights inside products and 1/k
        # weights on the trace diagonal.
        eps_trunc, q_trunc, N = 6, 5, 6
        tt = eps_trunc
        zero = QSeries.zero(("eps", "q1"), (tt, q_trunc))

        def x1(k, l):
            if (k + l) % 2 or k + l > 2 * eps_trunc:
                return zero
            c = F((-1) ** (l + 1) * math.factorial(k + l - 1),
                  math.factorial(k - 1) * math.factorial(l - 1))
            return eps_series({(k + l) // 2: eisenstein(k + l, q_trunc, "q1") * c}, tt)

        def x20(k, l):
            if (k + l) % 2 or k + l > 2 * eps_trunc:
                return zero
            c = F((-1) ** l, (k + l) * math.factorial(k - 1) * math.factorial(l - 1)) \
                * bernoulli(k + l)
            return eps_series({(k + l) // 2: QSeries.const("q1", c, q_trunc)}, tt)

        # P = A1 A2(0) in paired form: p(k,l)/sqrt(kl) with
        # p(k,l) = sum_m x1(k,m) x20(m,l) / m
        def paired_mul(xa, xb):
            def entry(k, l):
                acc = zero
                for m in range(1, N + 1):
                    acc = acc + xa(k, m) * xb(m, l) * F(1, m)
                return acc
            return entry

        p = paired_mul(x1, x20)
        logdet = zero
        pn = p
        n = 1
        while 2 * n <= eps_trunc:
            if n > 1:
                pn_prev = pn
                pn = paired_mul(lambda k, l, f=pn_prev: f(k, l), p)
            tr = zero
            for k in range(1, N + 1):
                tr = tr + pn(k, k) * F(1, k)
            logdet = logdet + tr * F(-1, n)
            n += 1

        module_logdet = log_det_I_minus(a_matrix(1, N, eps_trunc, q_trunc),
                                        a2_degenerate(N, eps_trunc), eps_trunc)
        assert agrees_with(logdet, module_logdet, (eps_trunc, q_trunc))


class TestResolvent:
    def test_identity_at_leading_order(self):
        r = resolvent_11(a_matrix(1, 4, 4, 3), a_matrix(2, 4, 4, 3), 4)
        assert r.block(0) == QSeries.one(("q1", "q2"), (3, 3))

    def test_weighted_leading_entry(self):
        # (A2(0) (I - A1 A2(0))^-1)(1,1) = -eps/12 + O(eps^3)
        w = weighted_resolvent_11(a2_degenerate(4, 4), a_matrix(1, 4, 4, 4),
                                  a2_degenerate(4, 4), 4)
        assert w.block(1) == const_q1(F(-1, 12), 4)
        assert w.block(2).is_zero()


class TestDegenerateTau:
    def test_printed_coefficients(self):
        d = degenerate_tau(8, 6)
        assert d.block(2) == const_q1(F(-1, 12), 8)
        assert d.block(4) == eisenstein(2, 8, "q1") * F(1, 144)

    def test_low_and_odd_orders_vanish(self):
        d = degenerate_tau(8, 6)
        assert d.block(0).is_zero() and d.block(1).is_zero() and d.block(3).is_zero()
        assert is_even(d)

    @pytest.mark.parametrize("q, e, N", [(3, 4, 4), (2, 6, 7), (1, 2, 2)])
    def test_fused_pass_equals_weighted_resolvent(self, q, e, N):
        # delta is read off the first column of sum_n (A1 A2(0))^n formed for
        # the log-det; the matrix-vector chain over matrices of size N is
        # the oracle.
        A20 = a2_degenerate(N, e)
        want = times_eps(weighted_resolvent_11(A20, a_matrix(1, N, e, q), A20, e))
        assert degenerate_tau(q, e) == want

    def test_matrix_size_stability(self):
        # The chains over matrices of sizes 6 and 9 give the same JSON.
        got = degenerate_tau(6, 6).to_json()
        for N in (6, 9):
            A20 = a2_degenerate(N, 6)
            want = times_eps(weighted_resolvent_11(A20, a_matrix(1, N, 6, 6), A20, 6))
            assert got == want.to_json()


class TestPeriodMatrix:
    def test_leading_orders(self):
        pd = period_matrix(3, 3, 4)
        assert pd.d11.block(0).is_zero() and pd.d22.block(0).is_zero()
        assert pd.d12.block(1) == -QSeries.one(("q1", "q2"), (3, 3))

    def test_d11_leading_is_e2_of_q2(self):
        pd = period_matrix(3, 3, 4)
        e2 = eisenstein(2, 3, "q2").embed(("q1", "q2"), (3, 3))
        assert pd.d11.block(2) == e2

    def test_swap_symmetry(self):
        # d22 is d11 with the torus labels exchanged
        pd = period_matrix(3, 3, 4)
        swapped = {(n, m): c for (m, n), c in pd.d11.block(2).coeffs.items()}
        assert swapped == pd.d22.block(2).coeffs

    @pytest.mark.parametrize("q1, q2, e, N", [(3, 2, 4, 4), (2, 3, 6, 7), (1, 1, 2, 2)])
    def test_shared_chain_equals_separate_resolvents(self, q1, q2, e, N):
        # d11, d22 and d12 are read off the powers of A1 A2 formed for the
        # log-det (d22 by push-through); each must equal its own
        # matrix-vector resolvent chain over matrices of size N, the oracle.
        A1, A2 = a_matrix(1, N, e, q1), a_matrix(2, N, e, q2)
        pd = period_matrix(q1, q2, e)
        assert pd.d11 == times_eps(weighted_resolvent_11(A2, A1, A2, e))
        assert pd.d22 == times_eps(weighted_resolvent_11(A1, A2, A1, e))
        assert pd.d12 == -times_eps(resolvent_11(A1, A2, e))

    def test_even_and_size_stable(self):
        # The chains over matrices of sizes 4 and 7 give the same JSON.
        pd = period_matrix(2, 2, 4)
        for N in (4, 7):
            A1, A2 = a_matrix(1, N, 4, 2), a_matrix(2, N, 4, 2)
            assert pd.d11.to_json() == times_eps(weighted_resolvent_11(A2, A1, A2, 4)).to_json()
            assert pd.d12.to_json() == (-times_eps(resolvent_11(A1, A2, 4))).to_json()


class TestZeroMatrixResolvent:
    def test_identity_resolvent(self):
        # (I - 0*B)^(-1)(1,1) = 1
        tt = 4
        zero = AMatrix(4, tuple(tuple(QSeries.zero("eps", tt) for _ in range(4))
                                for _ in range(4)), tt)
        r = resolvent_11(zero, a2_degenerate(4, 4), 4)
        assert r == eps_series({0: F(1)}, tt)


class TestDegenerateTauHigherOrder:
    def test_eps6_by_chain_enumeration(self):
        # oracle: eps^6 receives exactly three index chains of total
        # eps-power 5, raised by the final factor eps:
        #   A20(1,1) A1(1,3) A20(3,1) and A20(1,3) A1(3,1) A20(1,1),
        #   each contributing -E4/2880, and the all-ones five-matrix chain
        #   A20(1,1) (A1(1,1) A20(1,1))^2 contributing -E2^2/1728.
        d = degenerate_tau(8, 8)
        e2 = eisenstein(2, 8, "q1")
        e4 = eisenstein(4, 8, "q1")
        assert d.block(6) == -e2 * e2 * F(1, 1728) - e4 * F(1, 1440)

    def test_period_matrix_degenerates_to_tau(self):
        # q2 -> 0 slice of the full d11 reproduces the Bernoulli-route modulus
        pd = period_matrix(6, 0, 6)
        d = degenerate_tau(6, 6)
        for n in range(7):
            assert agrees_with(set_second_to_zero(pd.d11.block(n)), d.block(n))


class TestDeterminantAgainstLeibniz:
    def test_trace_log_equals_permanent_expansion(self):
        # fully independent: det(I - A1 A2(0)) by the Leibniz permutation sum
        # versus exp of the trace-log expansion
        from itertools import permutations

        N, eps, q = 5, 4, 4
        A, B = a_matrix(1, N, eps, q), a2_degenerate(N, eps)
        (a, b), zero = _embed(A, B)
        P = _mat_mul(a, b, zero)
        one = zero + 1
        M = [[(one - P[i][j]) if i == j else -P[i][j] for j in range(N)]
             for i in range(N)]

        def sign(perm):
            inv = sum(1 for i in range(N) for j in range(i + 1, N)
                      if perm[i] > perm[j])
            return -1 if inv % 2 else 1

        det = zero
        for perm in permutations(range(N)):
            term = one
            for i, j in enumerate(perm):
                term = term * M[i][j]
            det = det + term * sign(perm)

        via_log = log_det_I_minus(a_matrix(1, N, eps, q),
                                  a2_degenerate(N, eps), eps).exp()
        assert agrees_with(det, via_log, (eps, q))
