"""Series-ring tests: frozen values from independent oracles plus properties."""

from fractions import Fraction as F
from itertools import product
from math import comb, factorial, floor, gcd
from operator import le, lt

import pytest
from hypothesis import example, given, settings, strategies as st

from twotori import ring, series
from twotori.ring import (
    EisensteinPoly,
    SeriesError,
    bernoulli,
    eisenstein_poly,
    quasimodular_monomials,
)
from twotori.genus2 import taylor_shift
from twotori.series import (
    NotQuasiModular,
    QSeries,
    QuasiModularPoly,
    _quasimodular_solver,
    eisenstein,
    eta_normalized,
    qd,
    to_quasimodular,
)
from twotori.sewing import degenerate_tau


# -- independent oracles -------------------------------------------------------

def sigma(n: int, k: int) -> int:
    """Divisor power sum, by brute enumeration."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eta_pentagonal(trunc: int) -> dict:
    """Euler-product coefficients via the pentagonal number theorem."""
    coeffs = {0: F(1)}
    m = 1
    while True:
        p1 = m * (3 * m - 1) // 2
        p2 = m * (3 * m + 1) // 2
        if p1 > trunc and p2 > trunc:
            break
        if p1 <= trunc:
            coeffs[p1] = F((-1) ** m)
        if p2 <= trunc:
            coeffs[p2] = F((-1) ** m)
        m += 1
    return coeffs


# -- series operations no program path needs, kept as oracles -----------------


def agrees_with(a: QSeries, b: QSeries, through=None) -> bool:
    """Exact agreement of the known parts of a and b (offset-aligned).

    ``through`` (an int for every variable, or one order per variable)
    demands agreement through those mantissa orders and raises if either
    side is not known that far.
    """
    a._check_var(b)
    # Orders count from the lower offset of each variable, as after
    # _aligned; the box is what both sides know.
    base = tuple(map(min, a.offsets, b.offsets))
    box = tuple(floor(min(oa + ta, ob + tb) - m) for oa, ta, ob, tb, m in zip(
        a.offsets, a.truncs, b.offsets, b.truncs, base))
    if through is not None:
        need = a._box(through)
        if any(map(lt, box, need)):
            raise SeriesError(f"series only known to order {box}, need {need}")
        box = need
    try:
        x, y = a._aligned(b)
    except SeriesError:
        # Offsets a non-integer apart: no exponent lies in both supports,
        # so the sides agree when neither has a term inside the box.
        for s in (a, b):
            upto = tuple(floor(t + m - o) for t, m, o in zip(box, base, s.offsets))
            if any(all(map(le, e, upto)) for e in s.nums):
                return False
        return True
    return all(x.nums.get(e, 0) * y.den == y.nums.get(e, 0) * x.den
               for e in x.nums.keys() | y.nums.keys() if all(map(le, e, box)))


def divided_by(s: QSeries, u: QSeries) -> QSeries:
    """s / u for u with zero offsets whose v^0 coefficient is exactly 1, v
    the first variable: ``_quotient_blocks`` over the v-blocks, cut at the
    smaller v order of the two."""
    s._check_var(u)
    u._check_unit_block("division")
    trunc = min(s.truncs[0], u.truncs[0])
    zero = s.block_zero()
    h = series._quotient_blocks(s.blocks(), u.blocks(), trunc, u.block_zero() + 1)
    return QSeries.from_blocks(s.vars[0], h or {0: zero}, trunc)


def is_even(s: QSeries) -> bool:
    """True when every nonzero coefficient of s sits at an even power of its
    first variable."""
    return all(e[0] % 2 == 0 for e in s.nums)


def compose(f: QSeries, g: QSeries) -> QSeries:
    """f(g) for one-variable g with zero constant term and zero offset, by
    Horner on the numerators of f and one division by its denominator."""
    f._check_var(g)
    if f.offset != 0:
        raise SeriesError("composition requires zero offset on the outer series")
    if g.offset != 0 or g.constant_term() != 0:
        raise SeriesError("composition requires g(0)=0")
    trunc = min(f.trunc, g.trunc)
    result = QSeries.zero(f.var, trunc)
    for n in range(f.trunc, -1, -1):
        result = result * g
        c = f.nums.get((n,))
        if c is not None:
            result = result + c
    return result.truncate(trunc) * F(1, f.den)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def qseries_strategy(trunc=5, var="q", offset=0):
    return st.dictionaries(st.integers(min_value=0, max_value=trunc), small_fracs,
                           max_size=4).map(
        lambda d: QSeries(var, d, trunc, offset))


def qseries_from_json(obj: dict) -> QSeries:
    """Read the README JSON of a series (``QSeries.to_json``) back: the
    nested eps form, one variable, or several.  The round-trip oracle."""
    if obj.get("variable") == "eps":
        return QSeries.from_blocks("eps", {int(n): F(c) if isinstance(c, str)
                                           else qseries_from_json(c)
                                           for n, c in obj["coeffs"].items()}, int(obj["trunc"]))
    coeffs = {tuple(map(int, k.split(","))): F(c) for k, c in obj["coeffs"].items()}
    if "variables" in obj:
        return QSeries(obj["variables"], coeffs, obj["truncs"], map(F, obj["offsets"]))
    return QSeries((obj["variable"],), coeffs, (obj["trunc"],), (F(obj["offset"]),))


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)

    def test_odd_vanish(self):
        for k in (3, 5, 7, 9, 11, 13):
            assert bernoulli(k) == 0

    def test_against_recurrence(self):
        # independent oracle: sum_{j<k} C(k,j) B_j = 0 for k >= 2
        for k in range(2, 16):
            assert sum(comb(k, j) * bernoulli(j) for j in range(k)) == 0


class TestEisenstein:
    def test_e2_divisor_sums(self):
        e2 = eisenstein(2, 10)
        assert e2.coeff(0) == F(-1, 12)
        for n in range(1, 11):
            assert e2.coeff(n) == 2 * sigma(n, 1)

    def test_e4_values(self):
        e4 = eisenstein(4, 2)
        assert e4.coeff(0) == F(1, 720)
        assert e4.coeff(1) == F(1, 3)
        assert e4.coeff(2) == 3

    def test_general_normalization(self):
        for k in (4, 6, 8, 10, 12):
            ek = eisenstein(k, 6)
            assert ek.coeff(0) == -bernoulli(k) / factorial(k)
            for n in range(1, 7):
                assert ek.coeff(n) == F(2, factorial(k - 1)) * sigma(n, k - 1)

    def test_odd_zero(self):
        for k in (3, 5, 9):
            assert eisenstein(k, 5).is_zero()

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            eisenstein(1, 4)
        with pytest.raises(ValueError):
            eisenstein(0, 4)


class TestEta:
    def test_euler_product_vs_pentagonal(self):
        eta = eta_normalized(20)
        assert eta.offset == F(1, 24)
        assert eta.coeffs == {(n,): c for n, c in eta_pentagonal(20).items()}

    def test_trunc_zero(self):
        eta = eta_normalized(0)
        assert eta.coeffs == {(0,): F(1)}
        assert eta.offset == F(1, 24)

    def test_deleta_identity(self):
        eta = eta_normalized(20)
        assert qd(eta) == eisenstein(2, 20) * eta * F(-1, 2)


class TestQd:
    def test_plain(self):
        s = QSeries("q", {0: 1, 2: 3}, 3)
        assert qd(s) == QSeries("q", {2: 6}, 3)

    def test_offset_rule(self):
        s = QSeries("q", {0: 1, 1: 1}, 1, F(1, 2))
        assert qd(s) == QSeries("q", {0: F(1, 2), 1: F(3, 2)}, 1, F(1, 2))

    def test_delE2(self):
        e2 = eisenstein(2, 12)
        assert qd(e2) == eisenstein(4, 12) * 5 - e2 * e2


class TestRingOps:
    def test_exp_log_roundtrip(self):
        s = QSeries("q", {0: 1, 1: 1, 2: 1}, 2)
        assert s.log().exp() == s

    def test_binomial_sqrt(self):
        s = QSeries("q", {0: 1, 1: 2}, 2)
        assert s.pow_rational(F(1, 2)) == QSeries("q", {0: 1, 1: 1, 2: F(-1, 2)}, 2)

    def test_geometric_inverse(self):
        assert QSeries("q", {0: 1, 1: -1}, 3).inv() == QSeries("q", dict.fromkeys(range(4), 1), 3)

    def test_inv_moves_order_to_offset(self):
        # (q (1 - q))^-1 = q^-1 (1 + q + q^2 + ...)
        s = QSeries("q", {1: 1, 2: -1}, 3)
        assert s.inv() == QSeries("q", {0: 1, 1: 1, 2: 1}, 2, -1)

    def test_inv_with_offset(self):
        eta = eta_normalized(8)
        one = eta * eta.inv()
        assert one.offset == 0 and one.coeffs == {(0,): F(1)}

    def test_non_unit_errors(self):
        with pytest.raises(SeriesError):
            QSeries.zero("q", 3).inv()
        with pytest.raises(SeriesError):
            QSeries("q", {0: 2, 1: 1}, 3).log()
        with pytest.raises(SeriesError):
            QSeries("q", {0: 1, 1: 1}, 3).exp()

    def test_offset_addition_alignment(self):
        a = QSeries("q", {0: 1}, 2, 1)        # q
        b = QSeries("q", {0: 1}, 3, 0)        # 1
        assert a + b == QSeries("q", {0: 1, 1: 1}, 3)

    def test_incompatible_offsets(self):
        a = QSeries("q", {0: 1}, 2, F(1, 2))
        with pytest.raises(SeriesError):
            a + QSeries.one("q", 2)

    def test_agreement_across_incompatible_offsets(self):
        # Offsets a non-integer apart share no exponent: the sides agree
        # exactly when neither has a term in the box both of them know.
        assert agrees_with(QSeries.zero("q1", 0, F(1, 24)), QSeries.zero("q1", 0))
        zero = QSeries.zero("q1", 3)
        assert not agrees_with(QSeries("q1", {2: 1}, 6, F(1, 24)), zero)
        assert not agrees_with(zero, QSeries("q1", {2: 1}, 6, F(1, 24)))
        assert agrees_with(QSeries("q1", {3: 1}, 6, F(1, 24)), zero)
        assert not agrees_with(QSeries("q1", {3: 1}, 6, F(-1, 24)), zero, 3)
        with pytest.raises(SeriesError):
            agrees_with(QSeries("q1", {5: 1}, 6, F(1, 24)), zero, 4)
        vars = ("q1", "q2")
        half = QSeries.zero(vars, (2, 2), (0, F(1, 2)))
        assert agrees_with(half, QSeries(vars, {(1, 3): 1}, (2, 3)))
        assert not agrees_with(half, QSeries(vars, {(1, 1): 1}, (2, 3)))

    def test_variable_mismatch(self):
        with pytest.raises(SeriesError):
            QSeries.one("q1", 2) + QSeries.one("q2", 2)

    def test_mul_truncation_is_sound(self):
        # both factors of positive order: product is known past min(truncs)
        a = QSeries("q", {2: 1}, 3)
        b = QSeries("q", {1: 1, 3: 1}, 3)
        p = a * b
        assert p.trunc == 4
        assert p.coeff(3) == 1 and p.coeff(4) == 0

    @given(qseries_strategy(), qseries_strategy(), qseries_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert agrees_with((a + b) + c, a + (b + c))
        assert agrees_with(a * b, b * a)
        assert agrees_with((a * b) * c, a * (b * c))
        assert agrees_with(a * (b + c), a * b + a * c)


class TestComposeRevert:
    def test_linear_scaling(self):
        f = QSeries("z", {1: 1, 2: 1}, 2)
        g = QSeries("z", {1: 2}, 2)
        assert compose(f, g) == QSeries("z", {1: 2, 2: 4}, 2)

    def test_inverse_pair(self):
        T = 10
        expm1 = QSeries("z", {n: F(1, factorial(n)) for n in range(1, T + 1)}, T)
        log1p = QSeries("z", {n: F((-1) ** (n + 1), n) for n in range(1, T + 1)}, T)
        assert compose(expm1, log1p) == QSeries.gen("z", T)
        assert compose(log1p, expm1) == QSeries.gen("z", T)

    def test_revert_closed_form_map(self):
        # z (1 - k b z^k)^(-1/k) reverts to z (1 + k b z^k)^(-1/k)
        T = 12
        for k, b in ((2, F(-1, 12)), (3, F(1, 5))):
            z = QSeries.gen("z", T)
            wk = z * QSeries("z", {0: 1, k: -k * b}, T).pow_rational(F(-1, k))
            wk_inv = z * QSeries("z", {0: 1, k: k * b}, T).pow_rational(F(-1, k))
            assert agrees_with(compose(wk, wk_inv), z)
            assert agrees_with(compose(wk_inv, wk), z)

    def test_compose_requires_g0_zero(self):
        f = QSeries("z", {1: 1}, 3)
        with pytest.raises(SeriesError):
            compose(f, QSeries("z", {0: 1, 1: 1}, 3))


class TestQuasiModular:
    def test_monomial_counts(self):
        assert quasimodular_monomials(0) == [(0, 0, 0)]
        assert len(quasimodular_monomials(4)) == 2
        assert len(quasimodular_monomials(10)) == 5
        assert quasimodular_monomials(3) == []

    def test_e2_squared(self):
        e2 = eisenstein(2, 6)
        assert to_quasimodular(e2 * e2, 4) == QuasiModularPoly(4, {(2, 0, 0): 1})

    def test_qd_e2(self):
        p = to_quasimodular(qd(eisenstein(2, 8)), 4)
        assert p == QuasiModularPoly(4, {(2, 0, 0): -1, (0, 1, 0): 5})

    def test_e8_is_e4_squared(self):
        p = to_quasimodular(eisenstein(8, 8), 8)
        assert p == QuasiModularPoly(8, {(0, 2, 0): F(3, 7)})

    def test_roundtrip(self):
        p = QuasiModularPoly(6, {(3, 0, 0): F(2, 3), (1, 1, 0): -1, (0, 0, 1): F(1, 7)})
        assert to_quasimodular(p.to_qseries(8), 6) == p

    def test_rejects_wrong_weight(self):
        with pytest.raises(NotQuasiModular):
            to_quasimodular(eisenstein(2, 8), 4)

    def test_rejects_insufficient_order(self):
        with pytest.raises(SeriesError):
            to_quasimodular(eisenstein(4, 0), 4)

    def test_odd_weight_zero_only(self):
        assert to_quasimodular(QSeries.zero("q", 4), 3).is_zero()
        with pytest.raises(NotQuasiModular):
            to_quasimodular(QSeries.one("q", 4), 3)

    def test_render(self):
        p = QuasiModularPoly(4, {(2, 0, 0): -1, (0, 1, 0): 5})
        assert str(p) == "-E2^2 + 5*E4"

    def test_square_system_is_not_recognition(self):
        # 2 coefficients against the 2 weight-4 monomials leave no equation
        # to check: the junk series 7 + 13q must not be "recognized".
        junk = QSeries("q", {0: 7, 1: 13}, 1)
        with pytest.raises(SeriesError, match="insufficient q-order"):
            to_quasimodular(junk, 4)
        with pytest.raises(SeriesError, match="insufficient q-order"):
            to_quasimodular(eisenstein(4, 1), 4)
        assert to_quasimodular(eisenstein(4, 2), 4) == QuasiModularPoly(4, {(0, 1, 0): 1})

    def test_rank_deficiency_is_internal_error(self, monkeypatch):
        # A repeated monomial makes the basis singular: a fault of the
        # program, not of the input, so it is no SeriesError/ValueError.
        monkeypatch.setattr(series, "quasimodular_monomials",
                            lambda weight: [(weight // 2, 0, 0)] * 2)
        _quasimodular_solver.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="rank-deficient") as info:
                to_quasimodular(eisenstein(4, 6), 4)
            assert not isinstance(info.value, ValueError)
        finally:
            _quasimodular_solver.cache_clear()


class TestEisensteinPoly:
    # The ring facts the Zhu recursion runs on, each against the q-series
    # E_k of ``eisenstein`` and the derivative of ``QSeries.qd`` to q^20.
    T = 20

    @pytest.mark.parametrize("k, expected", [
        (2, {(2, 0, 0): -1, (0, 1, 0): 5}),
        (4, {(1, 1, 0): -4, (0, 0, 1): 14}),
        (6, {(1, 0, 1): -6, (0, 2, 0): F(60, 7)})])
    def test_ramanujan_derivatives(self, k, expected):
        d = eisenstein_poly(k).qd()
        assert d == EisensteinPoly(expected)
        assert d.to_qseries(self.T) == eisenstein(k, self.T).qd()

    @pytest.mark.parametrize("k", range(2, 21))
    def test_eisenstein_recurrence(self, k):
        p = eisenstein_poly(k)
        assert p.to_qseries(self.T) == eisenstein(k, self.T)
        assert p.weights() == ({k} if k % 2 == 0 else set())
        if k >= 8:
            assert all(a == 0 for a, _, _ in p.coeffs)

    def test_qd_of_a_product_is_leibniz(self):
        p = EisensteinPoly({(2, 1, 1): F(3, 5), (0, 3, 0): -2, (1, 0, 0): 7})
        assert p.qd().to_qseries(self.T) == p.to_qseries(self.T).qd()

    def test_quasimodular_poly_reads_the_shared_monomial_table(self, monkeypatch):
        # to_qseries sums cached monomial expansions: a second expansion of
        # the same monomials multiplies no series.
        p = QuasiModularPoly(12, {(6, 0, 0): 1, (0, 3, 0): F(1, 3), (1, 1, 1): -2})
        want = sum((eisenstein(2, 9) ** a * eisenstein(4, 9) ** b * eisenstein(6, 9) ** c * v
                    for (a, b, c), v in p.coeffs.items()), QSeries.zero("q", 9))
        assert p.to_qseries(9) == want
        calls = []
        original = QSeries.__mul__
        monkeypatch.setattr(QSeries, "__mul__",
                            lambda a, b: calls.append(b) or original(a, b))
        assert p.to_qseries(9, "q1") == want.renamed("q1")
        assert all(not isinstance(b, QSeries) for b in calls)


# -- quasi-modular recognition against the per-call elimination ------------------


def _solve_exact(rows, rhs):
    """Gauss-Jordan on one augmented system; None when it is inconsistent."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(rows[0])
    for col in range(ncols):
        piv = next(i for i in range(col, nrows) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = F(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(nrows):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    if any(m[i][ncols] != 0 for i in range(ncols, nrows)):
        return None
    return [m[i][ncols] for i in range(ncols)]


def oracle_quasimodular(s: QSeries, weight: int):
    """Fresh basis expansions and a fresh elimination for every call."""
    monos = quasimodular_monomials(weight)
    expansions = [QuasiModularPoly(weight, {m: 1}).to_qseries(s.trunc, s.var) for m in monos]
    rows = [[e.coeff(n) for e in expansions] for n in range(s.trunc + 1)]
    sol = _solve_exact(rows, [s.coeff(n) for n in range(s.trunc + 1)])
    return None if sol is None else QuasiModularPoly(weight, dict(zip(monos, sol)))


def cached_quasimodular(s: QSeries, weight: int):
    try:
        return to_quasimodular(s, weight)
    except NotQuasiModular:
        return None


@st.composite
def graded_series(draw):
    """(series, weight): a random weight-w polynomial with k monomials,
    expanded to q^T for T in [k, k+6] (at least one equation to spare),
    optionally with one coefficient perturbed."""
    weight = draw(st.sampled_from(range(0, 13, 2)))
    monos = quasimodular_monomials(weight)
    k = len(monos)
    trunc = draw(st.integers(k, k + 6))
    var = draw(st.sampled_from(["q", "q1"]))
    frac = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    poly = QuasiModularPoly(weight, {m: draw(frac) for m in monos})
    s = poly.to_qseries(trunc, var)
    if draw(st.booleans()):
        n = draw(st.integers(0, trunc))
        bump = draw(frac.filter(lambda x: x != 0))
        s = s + QSeries(var, {n: bump}, trunc)
    return s, weight


class TestQuasiModularSolver:
    @given(graded_series())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_call_elimination(self, case):
        s, weight = case
        assert cached_quasimodular(s, weight) == oracle_quasimodular(s, weight)

    @pytest.mark.parametrize("weight", range(0, 15, 2))
    def test_raising_the_order_keeps_the_polynomial(self, weight):
        monos = quasimodular_monomials(weight)
        poly = QuasiModularPoly(weight, {m: F(i + 1, 3) for i, m in enumerate(monos)})
        k = len(monos)
        assert to_quasimodular(poly.to_qseries(k, "q"), weight) == poly
        assert to_quasimodular(poly.to_qseries(k + 3, "q"), weight) == poly

    def test_interleaved_keys_never_stale(self):
        # Cycle through (weight, q-order, variable) keys, forwards and back,
        # with a wrong-weight call after each one: no call reuses the
        # cached solver of the call before it.
        polys = {w: QuasiModularPoly(w, {m: F(j - 2, j + 1) for j, m in
                                         enumerate(quasimodular_monomials(w))})
                 for w in (4, 6, 8, 10)}
        keys = [(w, t, v) for t in (6, 9) for w in polys for v in ("q", "q1")]
        for _ in range(2):
            for w, t, v in keys + keys[::-1]:
                assert to_quasimodular(polys[w].to_qseries(t, v), w) == polys[w]
                wrong = (w + 2) if w < 10 else 4
                with pytest.raises(NotQuasiModular):
                    to_quasimodular(polys[w].to_qseries(t, v), wrong)


class TestRendering:
    def test_text_format(self):
        s = QSeries("q", {0: F(-1, 12), 1: 2, 2: 6}, 4)
        assert str(s) == "-1/12 + 2*q + 6*q^2 + O(q^5)"

    def test_offset_format(self):
        assert str(eta_normalized(3)) == "q^(1/24)*(1 - q - q^2 + O(q^4))"

    def test_zero_format(self):
        assert str(QSeries.zero("q", 2)) == "0 + O(q^3)"

    def test_json_roundtrip_exact(self):
        for s in (eta_normalized(9), eisenstein(2, 7),
                  QSeries("q", {0: F(3, 7), 5: F(-22, 9)}, 6, F(-5, 8))):
            assert qseries_from_json(s.to_json()) == s


def times_eps(s: QSeries) -> QSeries:
    """s times its first variable (eps for an eps-series): exact, so that
    order rises by one."""
    return QSeries(s.vars, {(e[0] + 1, *e[1:]): c for e, c in s.coeffs.items()},
                   (s.truncs[0] + 1, *s.truncs[1:]), s.offsets)


def set_second_to_zero(s: QSeries) -> QSeries:
    """q2 -> 0 oracle: the constant-term slice in the second of two variables,
    whose offset must be 0."""
    if len(s.vars) != 2 or s.offsets[1] != 0:
        raise SeriesError("q2 -> 0 needs a two-variable series with zero q2 offset")
    return QSeries(s.vars[0], {e[0]: c for e, c in s.coeffs.items() if e[1] == 0},
                   s.truncs[0], s.offsets[0])


class TestBiSeries:
    def test_embed_and_multiply(self):
        a = eisenstein(2, 3, "q1").embed(("q1", "q2"), (3, 3))
        b = eisenstein(2, 3, "q2").embed(("q1", "q2"), (3, 3))
        p = a * b
        assert p.coeff(0, 0) == F(1, 144)
        assert p.coeff(1, 1) == 4
        assert p.coeff(2, 1) == 12

    def test_inverse(self):
        u = QSeries(("q1", "q2"), {(0, 0): 1, (1, 0): -1, (0, 1): -1}, (4, 4))
        one = u * u.inv()
        assert one.coeffs == {(0, 0): F(1)}

    def test_offsets_multiply(self):
        a = QSeries(("q1", "q2"), {(0, 0): 1}, (2, 2), offsets=(F(1, 24), 0))
        b = QSeries(("q1", "q2"), {(0, 0): 1}, (2, 2), offsets=(0, F(1, 2)))
        assert (a * b).offsets == (F(1, 24), F(1, 2))

    def test_q2_to_zero_slice(self):
        s = QSeries(("q1", "q2"), {(0, 0): 2, (1, 0): 3, (1, 1): 7}, (2, 2))
        assert set_second_to_zero(s) == QSeries("q1", {0: 2, 1: 3}, 2)

    def test_json_roundtrip(self):
        s = QSeries(("q1", "q2"), {(0, 1): F(2, 3), (2, 2): -5}, (3, 2),
                    offsets=(F(-1, 24), F(1, 8)))
        assert qseries_from_json(s.to_json()) == s

    def test_negative_trunc_rejected(self):
        for truncs in ((-1, 0), (0, -1), (-2, -2)):
            with pytest.raises(SeriesError):
                QSeries(("q1", "q2"), {}, truncs)

    def test_non_integer_power_rejected(self):
        u = QSeries(("q1", "q2"), {(0, 0): 1, (1, 0): 1}, (3, 3))
        for n in (F(1, 2), F(2), 0.5):
            with pytest.raises(SeriesError):
                u ** n
        assert u ** 2 == u * u


# -- bivariate products against the schoolbook double loop ---------------------


def schoolbook_conv(xa, xb, truncs):
    """Every pair of terms multiplied in a double loop, kept if in the box."""
    acc = {}
    for e, x in xa.items():
        for f, y in xb.items():
            k = tuple(i + j for i, j in zip(e, f))
            if all(map(le, k, truncs)):
                acc[k] = acc.get(k, 0) + x * y
    return {k: v for k, v in acc.items() if v}


def schoolbook_bimul(a: QSeries, b: QSeries) -> QSeries:
    oa, ob = a._ord_bounds(), b._ord_bounds()
    truncs = (min(a.truncs[0] + ob[0], b.truncs[0] + oa[0]),
              min(a.truncs[1] + ob[1], b.truncs[1] + oa[1]))
    return QSeries(a.vars, schoolbook_conv(a.coeffs, b.coeffs, truncs), truncs,
                   (a.offsets[0] + b.offsets[0], a.offsets[1] + b.offsets[1]))


# Magnitudes at and just below powers of two, around the byte boundaries
# the packed slots are cut at.
edge_ints = st.builds(lambda k, minus_one, sign: sign * (2 ** k - minus_one),
                      st.integers(0, 80), st.integers(0, 1), st.sampled_from([1, -1]))
bi_coeffs = st.one_of(
    small_fracs,
    edge_ints,
    st.builds(F, edge_ints, st.integers(1, 2 ** 20)),
)


@st.composite
def biseries(draw, truncs=None):
    """A (q1, q2) series: empty, one term, q1-only, q2-only, sparse or dense,
    with rational offsets."""
    t0, t1 = truncs or (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    box = [(m, n) for m in range(t0 + 1) for n in range(t1 + 1)]
    shape = draw(st.sampled_from(["zero", "one", "q1", "q2", "sparse", "dense"]))
    if shape == "zero":
        keys = []
    elif shape == "one":
        keys = [draw(st.sampled_from(box))]
    elif shape == "q1":
        keys = [(m, 0) for m in range(t0 + 1)]
    elif shape == "q2":
        keys = [(0, n) for n in range(t1 + 1)]
    elif shape == "sparse":
        keys = draw(st.lists(st.sampled_from(box), max_size=4, unique=True))
    else:
        keys = box
    same = draw(st.one_of(st.none(), bi_coeffs))
    coeffs = {k: (same if same is not None else draw(bi_coeffs)) for k in keys}
    offsets = draw(st.tuples(*[st.sampled_from([0, F(1, 24), F(-5, 8), 2]) for _ in "01"]))
    return QSeries(("q1", "q2"), coeffs, (t0, t1), offsets)


class TestBiSeriesProduct:
    @given(biseries(), biseries())
    @settings(max_examples=200, deadline=None)
    def test_matches_schoolbook(self, a, b):
        p = a * b
        want = schoolbook_bimul(a, b)
        assert (p.coeffs, p.truncs, p.offsets) == (want.coeffs, want.truncs, want.offsets)

    @given(st.integers(0, 12), st.integers(0, 12), biseries(truncs=(2, 2)),
           biseries(truncs=(1, 3)))
    @settings(max_examples=100, deadline=None)
    def test_box_wider_than_supports(self, t0, t1, a, b):
        # Lifting the truncs past the product's support leaves cells in the
        # box that no pair of terms reaches; they must read as zero.
        a = QSeries(a.vars, a.coeffs, (a.truncs[0] + t0, a.truncs[1] + t1), a.offsets)
        b = QSeries(b.vars, b.coeffs, (b.truncs[0] + t1, b.truncs[1] + t0), b.offsets)
        assert a * b == schoolbook_bimul(a, b)

    def test_q1_only_times_q2_only(self):
        a = QSeries(("q1", "q2"), {(m, 0): m - 3 for m in range(6)}, (5, 5))
        b = QSeries(("q1", "q2"), {(0, n): 2 ** (8 * n) for n in range(6)}, (5, 5))
        p = a * b
        assert p.coeffs == {(m, n): F((m - 3) * 2 ** (8 * n))
                            for m in range(6) for n in range(6) if m != 3}
        assert p == b * a

    def test_one_term_in_a_wide_box(self):
        a = QSeries(("q1", "q2"), {(0, 0): -1}, (9, 9), (F(1, 3), 0))
        b = QSeries(("q1", "q2"), {(1, 2): F(-7, 3)}, (9, 9))
        assert (a * b).coeffs == {(1, 2): F(7, 3)}
        assert (a * b).offsets == (F(1, 3), 0)

    @pytest.mark.parametrize("k", [0, 1, 6, 7, 8, 15, 16, 31, 32, 63, 64, 65])
    @pytest.mark.parametrize("minus_one", [0, 1])
    def test_slot_width_at_the_bound(self, k, minus_one):
        # Every term equal and of one sign, at and just below a power of two:
        # the middle coefficient of the product reaches max|a|*max|b|*min(#a, #b).
        for sign in (1, -1):
            c = sign * (2 ** k - minus_one)
            for rows, cols in ((1, 1), (1, 4), (2, 2), (4, 4)):
                na = {(m, n): c for m in range(rows) for n in range(cols)}
                nb = {(m, n): -c for m in range(rows) for n in range(cols)}
                truncs = (2 * rows - 2, 2 * cols - 2)
                got = QSeries(("q1", "q2"), na, truncs) * QSeries(("q1", "q2"), nb, truncs)
                assert got.coeffs == {e: F(v) for e, v in schoolbook_conv(na, nb, truncs).items()}
                if c:
                    assert got.truncs == truncs
                    assert got.coeffs[(rows - 1, cols - 1)] == -c * c * rows * cols


@st.composite
def q1_series(draw):
    """A nonzero q1 series with an offset and coefficients of any size."""
    trunc = draw(st.integers(0, 6))
    coeffs = draw(st.dictionaries(st.integers(0, trunc), bi_coeffs.filter(bool),
                                  min_size=1, max_size=trunc + 1))
    return QSeries("q1", coeffs, trunc, draw(st.sampled_from([0, F(1, 24), F(-5, 8), 2])))


class TestKernelChoice:
    @given(q1_series(), q1_series(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_one_variable_kernel_matches_embedded_product(self, a, b, t2):
        # A product in one variable and the same product embedded in two
        # (rows of one term each in q2) must agree.
        V = ("q1", "q2")
        p = a * b
        want = p.embed(V, (p.trunc, t2))
        got = a.embed(V, (a.trunc, t2)) * b.embed(V, (b.trunc, t2))
        assert (got.coeffs, got.truncs, got.offsets) == (want.coeffs, want.truncs, want.offsets)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2),
                              edge_ints), max_size=6),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3),
                              edge_ints), max_size=6),
           st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
    @settings(max_examples=100, deadline=None)
    def test_three_variables_match_the_loop(self, a, b, truncs):
        # The kernel in a box the supports may overrun, or miss altogether.
        na = {(m, n, k): v for m, n, k, v in a if v}
        nb = {(m, n, k): v for m, n, k, v in b if v}
        assert schoolbook_mul(na, nb, truncs) == schoolbook_conv(na, nb, truncs)

    def test_embed_keeps_own_orders(self):
        s = eisenstein(2, 3, "q2")
        with pytest.raises(SeriesError):
            s.embed(("q1", "q2"), (3, 4))
        with pytest.raises(SeriesError):
            s.embed(("q1", "q3"), (3, 3))
        assert set_second_to_zero(s.embed(("q2", "q1"), (3, 5))) == s

    def test_renamed_keeps_coefficients_and_offsets(self):
        s = QSeries(("q1", "q2"), {(0, 1): F(1, 3), (2, 0): 5}, (3, 2), (F(1, 24), 0))
        t = s.renamed("x", "y")
        assert t.vars == ("x", "y") and t.renamed("q1", "q2") == s
        assert (t.coeffs, t.truncs, t.offsets) == (s.coeffs, s.truncs, s.offsets)
        with pytest.raises(SeriesError):
            s.renamed("x")
        with pytest.raises(SeriesError):
            s.renamed("eps", "q2")


# -- the inverse against the geometric series ---------------------------------


def geometric_inv(s: QSeries) -> QSeries:
    """1/(c0 (1 + x)) as c0^-1 sum_j (-x)^j, after pulling the lowest power of
    each variable into the offsets; the sum ends inside the truncation box."""
    if not s.coeffs:
        raise SeriesError("non-unit constant term (series is zero)")
    d = s._ord_bounds()
    u = QSeries(s.vars, {tuple(x - y for x, y in zip(e, d)): c for e, c in s.coeffs.items()},
                tuple(t - y for t, y in zip(s.truncs, d)),
                tuple(o + y for o, y in zip(s.offsets, d)))
    origin = (0,) * len(s.vars)
    if origin not in u.coeffs:
        raise SeriesError("non-unit constant term in inverse")
    c0 = u.coeffs[origin]
    x = QSeries(u.vars, {k: c for k, c in u.coeffs.items() if k != origin},
                u.truncs) * (F(1) / c0)
    result = QSeries.one(u.vars, u.truncs)
    term = QSeries.one(u.vars, u.truncs)
    sign = 1
    for _ in range(sum(u.truncs)):
        term = term * x
        sign = -sign
        if term.is_zero():
            break
        result = result + term * sign
    return QSeries(u.vars, (result * (F(1) / c0)).coeffs, result.truncs,
                   tuple(-o for o in u.offsets))


# A non-unit whose lowest powers sit in different terms: no monomial moves
# into the offsets, and the origin coefficient is missing.
EPS_PLUS_Q2 = QSeries(("eps", "q2"), {(1, 0): 1, (0, 1): 1}, (3, 3))
# A unit times q1 q2 q3 with an offset in every variable, whose first block
# is a multi-term series in (q2, q3): the inverse of that block recurses.
THREE_VARIABLE_UNIT = QSeries(
    ("q1", "q2", "q3"),
    {(1, 1, 1): 2, (1, 2, 1): -1, (1, 1, 2): F(1, 3), (1, 3, 3): F(5, 7), (2, 1, 1): 5,
     (2, 2, 3): F(-2, 5), (3, 1, 2): 7, (4, 3, 1): F(1, 2 ** 40 - 87)},
    (4, 3, 3), (F(1, 24), F(-5, 8), 2))


@st.composite
def units(draw):
    """A one- or two-variable unit times a leading monomial, with offsets."""
    nvars = draw(st.integers(1, 2))
    vars = ("q1", "q2")[:nvars]
    base = [draw(st.integers(0, 5)) for _ in vars]
    lead = [draw(st.integers(0, 2)) for _ in vars]
    box = list(product(*(range(t + 1) for t in base)))
    tail = draw(st.dictionaries(st.sampled_from(box), small_fracs, max_size=5))
    tail[(0,) * nvars] = draw(small_fracs.filter(bool))
    coeffs = {tuple(x + y for x, y in zip(e, lead)): c for e, c in tail.items()}
    truncs = tuple(t + y for t, y in zip(base, lead))
    offsets = tuple(draw(st.sampled_from([0, F(1, 24), F(-5, 8)])) for _ in vars)
    return QSeries(vars, coeffs, truncs, offsets)


class TestInverse:
    @given(units())
    @example(THREE_VARIABLE_UNIT)
    @settings(max_examples=100, deadline=None)
    def test_recurrence_matches_geometric_series(self, u):
        got, want = u.inv(), geometric_inv(u)
        assert (got.coeffs, got.truncs, got.offsets) == (want.coeffs, want.truncs, want.offsets)
        assert agrees_with(u * got, QSeries.one(u.vars, got.truncs))

    def test_leading_monomial_moves_into_offsets(self):
        s = QSeries(("q1", "q2"), {(1, 2): 2, (2, 2): 2, (1, 3): -4}, (3, 4), (F(1, 24), 0))
        got = s.inv()
        assert got.offsets == (F(-25, 24), -2) and got.truncs == (2, 2)
        assert got == geometric_inv(s)

    def test_non_units_rejected(self):
        for s in (QSeries(("q1", "q2"), {(1, 0): 1, (0, 1): 1}, (3, 3)), EPS_PLUS_Q2,
                  QSeries.zero(("q1", "q2"), (2, 2)), QSeries.zero("q", 2)):
            for inv in (QSeries.inv, geometric_inv):
                with pytest.raises(SeriesError):
                    inv(s)


def eps_series(blocks, trunc):
    return QSeries.from_blocks("eps", blocks, trunc)


class TestEpsSeries:
    def test_arithmetic(self):
        a = QSeries("eps", {1: F(1, 2)}, 4)     # (1/2) eps
        b = QSeries("eps", {0: 1, 1: 1}, 4)     # 1 + eps
        assert (a * b).blocks() == {1: F(1, 2), 2: F(1, 2)}
        assert (a + b).blocks() == {0: F(1), 1: F(3, 2)}

    def test_exp_inv(self):
        x = QSeries("eps", {1: 1}, 4)            # eps
        e = x.exp()
        assert e.block(0) == 1 and e.block(2) == F(1, 2) and e.block(3) == F(1, 6)
        assert (e * e.inv()).blocks() == {0: F(1)}

    def test_exp_requires_no_constant(self):
        with pytest.raises(SeriesError):
            QSeries("eps", {0: 1}, 2).exp()

    def test_series_coefficients(self):
        e2 = eisenstein(2, 4, "q1")
        s = eps_series({1: e2}, 4)
        sq = s * s
        assert sq.block(2) == e2 * e2
        inv = (eps_series({0: QSeries.one("q1", 4)}, 4) + s).inv()
        assert inv.block(1) == -e2
        assert inv.block(2) == e2 * e2

    def test_non_integer_eps_power_rejected(self):
        with pytest.raises(SeriesError):
            eps_series({F(1, 2): 1}, 2)

    def test_non_integer_power_rejected(self):
        u = QSeries("eps", {0: 1, 1: 1}, 4)
        for n in (F(1, 2), F(2), 0.5):
            with pytest.raises(SeriesError):
                u ** n
        assert u ** 2 == u * u

    def test_is_even_means_even_eps_powers(self):
        assert not is_even(QSeries("eps", {1: 1}, 2))
        assert is_even(QSeries("eps", {0: 1, 2: 1}, 2))

    def test_json_roundtrip(self):
        s = eps_series({0: 1, 1: eisenstein(2, 4, "q1"), 2: F(-1, 12)}, 4)
        assert qseries_from_json(s.to_json()) == s

    def test_mixed_scalar_and_series_coefficients(self):
        s = eps_series({0: F(1), 1: eisenstein(2, 4, "q1")}, 4)
        t = eps_series({0: QSeries.one("q1", 4), 1: F(-1, 12)}, 4)
        p = s * t
        assert p.block(1) == eisenstein(2, 4, "q1") - F(1, 12)


class TestEpsSeriesProperties:
    eps_strategy = st.dictionaries(
        st.integers(min_value=0, max_value=6), small_fracs, max_size=4).map(
        lambda d: QSeries("eps", d, 6))

    @given(eps_strategy, eps_strategy, eps_strategy)
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(eps_strategy)
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip(self, a):
        one = QSeries.one("eps", 6)
        unit = one + QSeries("eps", {j: c for j, c in a.blocks().items() if j > 0}, 6)
        assert unit * unit.inv() == one


class TestComposeAssociativity:
    @given(st.dictionaries(st.integers(min_value=1, max_value=5), small_fracs,
                           max_size=3),
           st.dictionaries(st.integers(min_value=1, max_value=5), small_fracs,
                           max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_associative(self, g_tail, h_tail):
        f = QSeries("z", {1: 1, 2: 1, 3: -2}, 6)
        g = QSeries("z", g_tail, 6)
        h = QSeries("z", h_tail, 6)
        assert agrees_with(compose(compose(f, g), h), compose(f, compose(g, h)))


# -- exp along the pinched modulus shift ---------------------------------------
#
# The theta suite's closed-form and Taylor-shift routes meet through two
# identities of exp alone, checked here on x = alpha^2 delta / 2, delta the
# pinched 2 pi i (tau - tau1) as an eps-series over q1, at (eps, q) orders.

MODULUS_SHIFTS = [(eps, q, a) for eps, q in ((8, 6), (12, 12))
                  for a in (F(0), F(1, 4), F(1), F(2))]


class TestExpAlongTheModulusShift:
    @pytest.mark.parametrize("eps, q, alpha_sq", MODULUS_SHIFTS)
    def test_power_of_exp_is_exp_of_the_multiple(self, eps, q, alpha_sq):
        x = degenerate_tau(q, eps) * (alpha_sq / 2)
        for r in (2, 3):
            assert x.exp() ** r == (x * r).exp()

    @pytest.mark.parametrize("eps, q, alpha_sq", MODULUS_SHIFTS)
    def test_taylor_shift_of_a_monomial_is_exp(self, eps, q, alpha_sq):
        delta = degenerate_tau(q, eps)
        theta = QSeries.monomial("q1", alpha_sq / 2, q)
        shifted = (delta * (alpha_sq / 2)).exp() * theta.embed(delta.vars, delta.truncs)
        assert taylor_shift(theta, delta) == shifted


# -- the Fraction kernels that integer numerators replaced, as oracles ----------
#
# Each takes and returns QSeries but reads only the Fraction view ``coeffs``
# and builds its result through the validating constructor, so none of the
# integer paths of QSeries runs inside an oracle.


def _shifted(s, d):
    return QSeries(s.vars, {tuple(x + y for x, y in zip(e, d)): c for e, c in s.coeffs.items()},
                   tuple(t + y for t, y in zip(s.truncs, d)),
                   tuple(o - y for o, y in zip(s.offsets, d)))


def oracle_add(a, b):
    ds = [x - y for x, y in zip(a.offsets, b.offsets)]
    if any(d.denominator != 1 for d in ds):
        raise SeriesError("offsets differ by a non-integer")
    a = _shifted(a, [max(int(d), 0) for d in ds])
    b = _shifted(b, [max(-int(d), 0) for d in ds])
    truncs = tuple(map(min, a.truncs, b.truncs))
    out = {}
    for s in (a, b):
        for e, c in s.coeffs.items():
            if all(x <= t for x, t in zip(e, truncs)):
                out[e] = out.get(e, 0) + c
    return QSeries(a.vars, out, truncs, a.offsets)


def oracle_scale(a, r):
    return QSeries(a.vars, {e: c * r for e, c in a.coeffs.items()}, a.truncs, a.offsets)


def oracle_mul(a, b):
    """a * b by the plain loop over every pair of terms, cut as ``__mul__``
    cuts: each order at its tightest sound bound, eps at the smaller order."""
    oa, ob = a._ord_bounds(), b._ord_bounds()
    truncs = tuple(min(ta + y, tb + x) for ta, tb, x, y in zip(a.truncs, b.truncs, oa, ob))
    if a.vars[0] == "eps":
        truncs = (min(a.truncs[0], b.truncs[0]), *truncs[1:])
    return QSeries(a.vars, schoolbook_conv(a.coeffs, b.coeffs, truncs), truncs,
                   tuple(x + y for x, y in zip(a.offsets, b.offsets)))


def schoolbook_mul(na, nb, truncs):
    # The double-loop kernel on two numerator dicts, as __mul__ calls it.
    return series._schoolbook(series._rows(na), series._rows(nb), truncs)


def oracle_inv(s):
    if not s.coeffs:
        raise SeriesError("non-unit constant term (series is zero)")
    d = s._ord_bounds()
    u = _shifted(s, [-x for x in d])
    origin = (0,) * len(u.vars)
    if origin not in u.coeffs:
        raise SeriesError("non-unit constant term in inverse")
    inv0 = 1 / u.coeffs[origin]
    tail = [(f, c) for f, c in u.coeffs.items() if f != origin]
    b = {origin: inv0}
    for e in list(product(*(range(t + 1) for t in u.truncs)))[1:]:
        acc = 0
        for f, af in tail:
            if all(x <= y for x, y in zip(f, e)):
                be = b.get(tuple(y - x for x, y in zip(f, e)))
                if be is not None:
                    acc += af * be
        if acc:
            b[e] = -acc * inv0
    return QSeries(u.vars, b, u.truncs, tuple(-o for o in u.offsets))


def oracle_exp(s):
    if s.offset != 0 or s.constant_term() != 0:
        raise SeriesError("exp needs zero offset and zero constant term")
    result = term = QSeries.one(s.var, s.trunc)
    for j in range(1, s.trunc + 1):
        term = oracle_scale(oracle_mul(term, s), F(1, j))
        if not term.coeffs:
            break
        result = oracle_add(result, term)
    return result


def oracle_log(s):
    if s.offset != 0 or s.constant_term() != 1:
        raise SeriesError("log needs zero offset and constant term 1")
    x = oracle_add(s, QSeries.const(s.var, -1, s.trunc))
    result, term = QSeries.zero(s.var, s.trunc), QSeries.one(s.var, s.trunc)
    for j in range(1, s.trunc + 1):
        term = oracle_mul(term, x)
        if not term.coeffs:
            break
        result = oracle_add(result, oracle_scale(term, F((-1) ** (j + 1), j)))
    return result


def miller_pow_rational(s, r):
    """s^r by J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7),
    after pulling the lowest power into the offset: the mantissa u, with
    u_0 = 1, gives g = u^r by n g_n = sum_{k=1}^n (k (r+1) - n) u_k g_(n-k)."""
    d = s._ord_bounds()
    u = _shifted(s, [-x for x in d])
    if u.constant_term() != 1:
        raise SeriesError("rational power needs constant term 1")
    us = [u.coeff(n) for n in range(u.trunc + 1)]
    g = [F(1)]
    for n in range(1, len(us)):
        g.append(sum((k * (r + 1) - n) * us[k] * g[n - k] for k in range(1, n + 1)) / n)
    return QSeries(u.vars, {(n,): c for n, c in enumerate(g)}, u.truncs, (u.offset * r,))


def oracle_pow_rational(s, r):
    d = s._ord_bounds()
    u = _shifted(s, [-x for x in d])
    mant = oracle_exp(oracle_scale(oracle_log(QSeries(u.vars, u.coeffs, u.truncs)), r))
    return QSeries(u.vars, mant.coeffs, mant.truncs, (u.offset * r,))


def assert_canonical(s):
    assert s.den > 0 and all(type(v) is int and v for v in s.nums.values())
    assert gcd(s.den, *s.nums.values()) == 1


def assert_same(got, want):
    """Equal as series, canonical, equal hashes, and the same Fraction view."""
    assert_canonical(got)
    assert (got.vars, got.truncs, got.offsets) == (want.vars, want.truncs, want.offsets)
    assert dict(got.coeffs) == dict(want.coeffs)
    assert got == want and hash(got) == hash(want)
    assert all(type(c) is F for c in got.coeffs.values())


# Rationals of every size: small, near powers of two, and over large
# denominators, so that lcm rescaling and content gcds both have work to do.
big_dens = st.one_of(st.integers(1, 12), st.builds(lambda k: 2 ** k - 1, st.integers(20, 90)),
                     st.integers(10 ** 12, 10 ** 30))
any_fracs = st.one_of(small_fracs, st.builds(F, edge_ints, big_dens))
OFFSETS = [0, F(1, 24), F(-5, 8), 2]


@st.composite
def multi_series(draw, nvars=None, truncs=None, offsets=None):
    """A series in one, two or three variables with offsets, sparse or dense."""
    nvars = nvars or draw(st.integers(1, 3))
    vars = ("q1", "q2", "q3")[:nvars]
    truncs = truncs or tuple(draw(st.integers(0, 4 if nvars < 3 else 2)) for _ in vars)
    box = list(product(*(range(t + 1) for t in truncs)))
    keys = draw(st.one_of(st.just(box), st.lists(st.sampled_from(box), max_size=5, unique=True)))
    coeffs = {e: draw(any_fracs) for e in keys}
    offsets = offsets or tuple(draw(st.sampled_from(OFFSETS)) for _ in vars)
    return QSeries(vars, coeffs, truncs, offsets)


@st.composite
def series_pairs(draw):
    """Two series in the same variables; offsets equal or an integer apart,
    and the second one sometimes cancelling part or all of the first."""
    a = draw(multi_series())
    shift = tuple(draw(st.sampled_from([0, 0, 1, -1])) for _ in a.vars)
    offsets = tuple(o + d for o, d in zip(a.offsets, shift))
    same_box = draw(st.booleans())
    b = draw(multi_series(nvars=len(a.vars), truncs=a.truncs if same_box else None,
                          offsets=offsets))
    if same_box and not any(shift):
        how = draw(st.sampled_from(["free", "negate", "cancel_some"]))
        if how == "negate":
            b = -a
        elif how == "cancel_some":
            odd = {e: -c for e, c in a.coeffs.items() if sum(e) % 2}
            b = QSeries(a.vars, dict(b.coeffs) | odd, a.truncs, a.offsets)
    return a, b


@st.composite
def shifted_units(draw, nvars=None, constant=None):
    """A mantissa with constant term ``constant`` (drawn, possibly 0, when
    None) times a leading monomial, with offsets."""
    a = draw(multi_series(nvars=nvars))
    origin = (0,) * len(a.vars)
    coeffs = dict(a.coeffs)
    coeffs[origin] = draw(any_fracs) if constant is None else constant
    lead = tuple(draw(st.integers(0, 2)) for _ in a.vars)
    return QSeries(a.vars, {tuple(x + y for x, y in zip(e, lead)): c for e, c in coeffs.items()},
                   tuple(t + y for t, y in zip(a.truncs, lead)), a.offsets)


class TestIntegerKernelsAgainstFractionOracles:
    @given(series_pairs())
    @settings(max_examples=120, deadline=None)
    def test_add_and_sub(self, pair):
        a, b = pair
        assert_same(a + b, oracle_add(a, b))
        assert_same(b + a, oracle_add(b, a))
        assert_same(a - b, oracle_add(a, oracle_scale(b, -1)))

    def test_sum_cancelling_to_zero(self):
        a = QSeries(("q1", "q2"), {(0, 1): F(7, 10 ** 20 + 39), (2, 0): F(-3, 4)}, (2, 2))
        z = a + (-a)
        assert_same(z, QSeries.zero(a.vars, a.truncs))
        assert z.nums == {} and z.den == 1

    @given(multi_series(), st.one_of(st.just(0), st.just(F(0)), any_fracs, st.integers(-9, 9)))
    @settings(max_examples=100, deadline=None)
    def test_scalar(self, a, r):
        assert_same(a * r, oracle_scale(a, F(r)))
        assert_same(r * a, oracle_scale(a, F(r)))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_product(self, data):
        a = data.draw(multi_series())
        b = data.draw(multi_series(nvars=len(a.vars)))
        assert_same(a * b, oracle_mul(a, b))

    @given(shifted_units())
    @example(EPS_PLUS_Q2)
    @example(THREE_VARIABLE_UNIT)
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, a):
        try:
            want = oracle_inv(a)
        except SeriesError:
            with pytest.raises(SeriesError):
                a.inv()
            return
        assert_same(a.inv(), want)

    @given(multi_series(nvars=1, offsets=(0,)))
    @settings(max_examples=100, deadline=None)
    def test_exp_log_pow(self, a):
        f = QSeries(a.vars, {e: c for e, c in a.coeffs.items() if e != (0,)}, a.truncs)
        assert_same(f.exp(), oracle_exp(f))
        u = f + 1
        assert_same(u.log(), oracle_log(u))
        for r in (F(1, 2), F(-1, 3), F(7, 5), F(-1), F(-1, 12)):
            got = u.pow_rational(r)
            assert_same(got, oracle_pow_rational(u, r))
            assert_same(got, miller_pow_rational(u, r))

    @given(shifted_units(nvars=1, constant=1), st.sampled_from([F(1, 2), F(-2, 3)]))
    # (1 + k b z^k)^(-1/k) at z-order 13, as the conformal map takes it.
    @example(QSeries("z", {0: 1, 1: F(-1, 12)}, 13), F(-1))
    @example(QSeries("z", {0: 1, 12: F(-691, 2730)}, 13), F(-1, 12))
    @settings(max_examples=60, deadline=None)
    def test_pow_rational_moves_the_leading_power(self, u, r):
        got = u.pow_rational(r)
        assert_same(got, oracle_pow_rational(u, r))
        assert_same(got, miller_pow_rational(u, r))

    @given(multi_series(), any_fracs.filter(bool), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_values_give_equal_objects(self, a, r, data):
        # Different routes to one value must give one representation.
        routes = [(a * r) * (1 / r), (a + a) * F(1, 2), -(-a),
                  a + QSeries.zero(a.vars, a.truncs, a.offsets),
                  QSeries(a.vars, dict(a.coeffs), a.truncs, a.offsets)]
        b = data.draw(multi_series(nvars=len(a.vars), truncs=a.truncs, offsets=a.offsets))
        routes.append((a + b) - b)
        for x in routes:
            assert_same(x, a)
        assert len({a, *routes}) == 1

    def test_views_are_read_only(self):
        s = QSeries("q", {0: F(1, 3), 2: 5}, 3)
        with pytest.raises(TypeError):
            s.coeffs[(1,)] = F(1)
        assert s.coeffs is s.coeffs and s.coeffs == {(0,): F(1, 3), (2,): F(5)}
        assert (s.nums, s.den) == ({(0,): 1, (2,): 15}, 3)


# -- the eps-series class that QSeries absorbed, as the oracle ------------------
#
# ``EpsOracle`` is the earlier separate eps-series type: a dict of eps powers
# over Fraction or QSeries coefficients, combined by duck typing, each with
# its own q-truncation.  An eps-series is now a QSeries whose first variable
# is eps; the tests below feed both the same blocks and compare the results
# block by block.


def oracle_is_zero(c) -> bool:
    if isinstance(c, (int, F)):
        return c == 0
    return c.is_zero()


def oracle_one_like(c):
    """Multiplicative identity of the ring a sample coefficient lives in."""
    return QSeries.one(c.vars, c.truncs) if isinstance(c, QSeries) else F(1)


def oracle_inv_coeff(c):
    if isinstance(c, (int, F)):
        if c == 0:
            raise SeriesError("non-unit constant term")
        return F(1) / F(c)
    return c.inv()


class EpsOracle:
    """Truncated series in the sewing parameter eps, over nested coefficients.

    Keys are integer powers of eps; the series is known through
    eps^trunc.  Coefficients are F or QSeries and are
    combined by duck typing, so one series can mix plain rationals with
    q-expansions.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc: int = 0):
        if trunc < 0:
            raise SeriesError("truncation order must be >= 0")
        object.__setattr__(self, "trunc", int(trunc))
        clean = {}
        for n, c in (coeffs or {}).items():
            if int(n) != n:
                raise SeriesError(f"eps power {n} is not an integer")
            if isinstance(c, int):
                c = F(c)
            if oracle_is_zero(c):
                continue
            n = int(n)
            if n < 0 or n > trunc:
                raise SeriesError(f"eps power {n} outside [0, {trunc}]")
            clean[n] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("EpsOracle is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "EpsOracle":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int, like=None) -> "EpsOracle":
        c = F(1) if like is None else oracle_one_like(like)
        return cls({0: c}, trunc)

    # -- queries -------------------------------------------------------------

    def coeff_eps(self, n: int):
        if n < 0 or n > self.trunc:
            raise SeriesError(f"eps^{n} not known (trunc {self.trunc})")
        return self.coeffs.get(n, F(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_even(self) -> bool:
        """True when every nonzero coefficient sits at an even power of eps."""
        return all(n % 2 == 0 for n in self.coeffs)

    def _ord_bound(self) -> int:
        return min(self.coeffs) if self.coeffs else self.trunc + 1

    def _sample(self):
        for c in self.coeffs.values():
            if not isinstance(c, (int, F)):
                return c
        return F(1)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EpsOracle):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = {n: c for n, c in self.coeffs.items() if n <= trunc}
        for n, c in other.coeffs.items():
            if n <= trunc:
                out[n] = out[n] + c if n in out else c
        return EpsOracle(out, trunc)

    def __neg__(self):
        return EpsOracle({n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, EpsOracle):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, EpsOracle):
            # Simple min-trunc rule on purpose: keeps the truncation of every
            # matrix-algebra result independent of the matrix size.
            trunc = min(self.trunc, other.trunc)
            out = {}
            for n1, c1 in self.coeffs.items():
                for n2, c2 in other.coeffs.items():
                    n = n1 + n2
                    if n <= trunc:
                        p = c1 * c2
                        out[n] = out[n] + p if n in out else p
            return EpsOracle(out, trunc)
        # anything else scales every coefficient
        return EpsOracle({n: c * other for n, c in self.coeffs.items()}, self.trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SeriesError("eps series take integer exponents only")
        if n < 0:
            return self.inv() ** (-n)
        return series._power(self, n, EpsOracle.one(self.trunc, like=self._sample()))

    def times_eps(self) -> "EpsOracle":
        """Multiply by the exact monomial eps."""
        return EpsOracle({n + 1: c for n, c in self.coeffs.items()}, self.trunc + 1)

    def exp(self) -> "EpsOracle":
        """exp of a series with no eps^0 term."""
        if 0 in self.coeffs:
            raise SeriesError("exp requires zero constant term in eps")
        one = EpsOracle.one(self.trunc, like=self._sample())
        result = one
        term = one
        ord_ = self._ord_bound()
        if ord_ > self.trunc:
            return result
        for j in range(1, self.trunc // ord_ + 1):
            term = term * self * F(1, j)
            if term.is_zero():
                break
            result = result + term
        return result

    def inv(self) -> "EpsOracle":
        """Inverse when the eps^0 coefficient is a unit of its ring."""
        c0 = self.coeffs.get(0)
        if c0 is None:
            raise SeriesError("non-unit constant term in eps series")
        c0_inv = oracle_inv_coeff(c0)
        x = EpsOracle({n: c * c0_inv for n, c in self.coeffs.items() if n != 0},
                      self.trunc)
        result = EpsOracle.one(self.trunc, like=self._sample())
        term = result
        sign = 1
        ord_ = x._ord_bound()
        if ord_ <= self.trunc:
            for _ in range(self.trunc // ord_):
                term = term * x
                sign = -sign
                if term.is_zero():
                    break
                result = result + term * sign
        return result * c0_inv

    def truncate(self, new_trunc: int) -> "EpsOracle":
        if new_trunc > self.trunc:
            raise SeriesError("cannot raise truncation order")
        return EpsOracle({n: c for n, c in self.coeffs.items() if n <= new_trunc},
                         new_trunc)

    def map_coeffs(self, fn) -> "EpsOracle":
        return EpsOracle({n: fn(c) for n, c in self.coeffs.items()}, self.trunc)

    # -- comparison / rendering --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, EpsOracle):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def agrees_with(self, other: "EpsOracle", through_eps: int | None = None,
                    q_through: int | None = None) -> bool:
        """Exact agreement of coefficients through the given eps order.

        ``q_through`` forwards an agreement order to series-valued
        coefficients.  Raises when either side is not known far enough.
        """
        upto = min(self.trunc, other.trunc)
        if through_eps is not None:
            if upto < through_eps:
                raise SeriesError(f"eps series only known to eps^{upto}, "
                                  f"need eps^{through_eps}")
            upto = through_eps
        for n in range(upto + 1):
            a = self.coeffs.get(n, F(0))
            b = other.coeffs.get(n, F(0))
            if not isinstance(a, QSeries) and not isinstance(b, QSeries):
                if a != b:
                    return False
                continue
            # A rational (or absent) coefficient is a constant of the other side's ring.
            s = a if isinstance(a, QSeries) else b
            a, b = (c if isinstance(c, QSeries) else QSeries.const(s.vars, c, s.truncs)
                    for c in (a, b))
            if not agrees_with(a, b, q_through):
                return False
        return True

    def render(self, coeff_text) -> str:
        """The series as text, with ``coeff_text(n, c)`` as the factor that
        renders the eps^n coefficient c."""
        parts = ["*".join(filter(None, (coeff_text(n, self.coeffs[n]),
                                        ring.monomial_str(("eps", n)))))
                 for n in sorted(self.coeffs)]
        return " + ".join((parts or ["0"]) + [f"O(eps^{self.trunc + 1})"])

    def __str__(self):
        return self.render(lambda n, c: f"({c})")

    def __repr__(self):
        return f"EpsOracle({self})"

    def to_json(self) -> dict:
        """Nested-series JSON with variable tag "eps"."""
        coeffs = {}
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            coeffs[str(n)] = ring.rat_str(c) if isinstance(c, (int, F)) else c.to_json()
        return {"variable": "eps", "trunc": self.trunc, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj: dict) -> "EpsOracle":
        return cls({int(n): F(c) if isinstance(c, str) else qseries_from_json(c)
                    for n, c in obj["coeffs"].items()}, int(obj["trunc"]))


def to_oracle(s: QSeries) -> EpsOracle:
    return EpsOracle(s.blocks(), s.truncs[0])


def assert_matches_oracle(got: QSeries, want: EpsOracle):
    """The same eps order, and every block equal to the oracle's through the
    orders ``got`` claims, which the oracle must know (a rational block of
    the oracle is the constant of the block's ring)."""
    assert_canonical(got)
    assert all(all(map(le, e, got.truncs)) for e in got.nums)
    assert got.vars[0] == "eps" and got.truncs[0] == want.trunc
    for n in range(want.trunc + 1):
        b, c = got.block(n), want.coeff_eps(n)
        if len(got.vars) == 1:
            assert b == c and type(b) is F
            continue
        if not isinstance(c, QSeries):
            c = (QSeries.const(b.vars, c, b.truncs) if c
                 else QSeries.zero(b.vars, b.truncs, b.offsets))
        assert agrees_with(b, c, b.truncs), n


@st.composite
def eps_series_strategy(draw, nrest=None, truncs=None, offsets=None, eps_trunc=None,
                        powers=None, offset_choices=OFFSETS):
    """An eps-series over 0, 1 or 2 further variables, blocks sparse or dense,
    with offsets; every block shares the orders and offsets of the layout."""
    nrest = draw(st.integers(0, 2)) if nrest is None else nrest
    rest = ("q1", "q2")[:nrest]
    T = draw(st.integers(0, 5)) if eps_trunc is None else eps_trunc
    truncs = truncs or tuple(draw(st.integers(0, 3)) for _ in rest)
    if offsets is None:
        offsets = tuple(draw(st.sampled_from(offset_choices)) for _ in rest)
    powers = powers if powers is not None else draw(
        st.lists(st.integers(0, T), unique=True, max_size=4))
    if not nrest:
        return QSeries("eps", {n: draw(any_fracs) for n in powers}, T)
    blocks = {n: draw(multi_series(nvars=nrest, truncs=truncs, offsets=offsets))
              for n in powers}
    return QSeries.zero(("eps", *rest), (T, *truncs), (0, *offsets)) + \
        QSeries(("eps", *rest), {(n, *e): c for n, b in blocks.items()
                                 for e, c in b.coeffs.items()},
                (T, *truncs), (0, *offsets))


@st.composite
def eps_pairs(draw, offset_choices=OFFSETS, shifts=(0, 0, 1)):
    """Two eps-series in one layout; offsets equal or an integer apart, and the
    second one sometimes cancelling all or some blocks of the first."""
    a = draw(eps_series_strategy(offset_choices=offset_choices))
    rest = len(a.vars) - 1
    shift = tuple(draw(st.sampled_from(shifts)) for _ in range(rest))
    offsets = tuple(o + d for o, d in zip(a.offsets[1:], shift))
    same = draw(st.booleans())
    b = draw(eps_series_strategy(nrest=rest, truncs=a.truncs[1:] if same else None,
                                 offsets=offsets,
                                 eps_trunc=a.truncs[0] if same else None))
    if same and not any(shift):
        how = draw(st.sampled_from(["free", "negate", "cancel_odd_blocks"]))
        if how == "negate":
            b = -a
        elif how == "cancel_odd_blocks":
            b = b + QSeries(a.vars, {e: -c for e, c in a.coeffs.items() if e[0] % 2},
                            a.truncs, a.offsets)
    return a, b


@st.composite
def eps_units(draw):
    """An eps-series whose eps^0 block has a nonzero constant term."""
    a = draw(eps_series_strategy())
    origin = (0,) * len(a.vars)
    return a + QSeries(a.vars, {origin: draw(any_fracs.filter(bool)) - a.coeff(*origin)},
                       a.truncs, a.offsets)


class TestEpsSeriesAgainstOracle:
    @given(eps_pairs())
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference(self, pair):
        a, b = pair
        assert_matches_oracle(a + b, to_oracle(a) + to_oracle(b))
        assert_matches_oracle(a - b, to_oracle(a) - to_oracle(b))

    @given(eps_pairs())
    @settings(max_examples=100, deadline=None)
    def test_product(self, pair):
        a, b = pair
        assert_matches_oracle(a * b, to_oracle(a) * to_oracle(b))

    @given(eps_series_strategy(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_power(self, a, k):
        assert_matches_oracle(a ** k, to_oracle(a) ** k)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_exp(self, data):
        T = data.draw(st.integers(1, 5))
        powers = data.draw(st.lists(st.integers(1, T), unique=True, max_size=4))
        a = data.draw(eps_series_strategy(eps_trunc=T, powers=powers, offset_choices=[0]))
        assert_matches_oracle(a.exp(), to_oracle(a).exp())

    def test_exp_needs_no_eps0_block(self):
        a = QSeries(("eps", "q1"), {(0, 1): 1, (1, 0): 1}, (3, 3))
        for exp in (lambda s: s.exp(), lambda s: to_oracle(s).exp()):
            with pytest.raises(SeriesError):
                exp(a)

    @given(eps_units())
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, a):
        got = a.inv()
        assert_matches_oracle(got, to_oracle(a).inv())
        assert agrees_with(a * got, QSeries.one(a.vars, got.truncs))

    @given(eps_series_strategy())
    @settings(max_examples=40, deadline=None)
    def test_inverse_needs_an_eps0_block(self, a):
        a = times_eps(a)
        for inv in (QSeries.inv, lambda s: to_oracle(s).inv()):
            with pytest.raises(SeriesError):
                inv(a)

    @given(eps_series_strategy(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncate(self, a, data):
        k = data.draw(st.integers(0, a.truncs[0]))
        assert_matches_oracle(a.truncate((k, *a.truncs[1:])), to_oracle(a).truncate(k))

    # Zero offsets only: the oracle compares a block present on one side only
    # with the constant, at offset 0, of the other side's ring, so with an
    # offset it compares another window of exponents, or none at all.
    @given(eps_pairs(offset_choices=[0], shifts=[0]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with(self, pair, data):
        a, b = pair
        if data.draw(st.booleans()):
            b = a + QSeries(a.vars, {tuple(data.draw(st.integers(0, t)) for t in a.truncs):
                                     data.draw(st.sampled_from([0, 1, F(-1, 3)]))},
                            a.truncs, a.offsets)
        k = data.draw(st.integers(0, 6))
        q = tuple(data.draw(st.integers(0, 4)) for _ in a.vars[1:])

        def outcome(check):
            try:
                return check()
            except SeriesError:
                return "raises"

        got = outcome(lambda: agrees_with(a, b, (k, *q)))
        want = outcome(lambda: to_oracle(a).agrees_with(to_oracle(b), k, q or None))
        if got == "raises" and want != "raises":
            # The oracle checks a block's q-order only where a block is
            # nonzero on either side; the fold refuses a q-order that its
            # one truncation box does not reach.
            assert any(t < x for t, x in zip(map(min, a.truncs[1:], b.truncs[1:]), q))
        else:
            assert got == want

    @given(eps_series_strategy())
    @settings(max_examples=60, deadline=None)
    def test_text_and_json(self, a):
        assert str(a) == str(to_oracle(a))
        assert a.to_json() == to_oracle(a).to_json()
        if a.nums or len(a.vars) == 1:
            assert qseries_from_json(a.to_json()) == a



V3 = ("eps", "q1", "q2")
DENSE3 = QSeries(V3, {(n, m, k): F(n - m + 1, k + 1) for n in range(3) for m in range(4)
                      for k in range(3)}, (4, 3, 2), (0, F(1, 24), 0))
ONE3 = QSeries(V3, {(1, 2, 1): F(-7, 3)}, (4, 3, 2))


class TestBlockKernels:
    # An eps-series over further variables multiplies block by block, each
    # pair of blocks on the row-wise double loop; the product must be the
    # plain loop over every pair of terms (``oracle_mul``) in any layout,
    # with one-term factors, and where eps^3 times eps^2 at eps order 4 (or
    # a zero factor) puts the whole product outside the box.
    @given(eps_pairs())
    @example((ONE3, DENSE3))
    @example((DENSE3, QSeries(V3, {(0, 0, 0): 5}, (4, 3, 2), (0, F(-1, 24), F(1, 2)))))
    @example((QSeries(V3, {(3, 1, 1): 2}, (4, 3, 2)), QSeries(V3, {(2, 0, 0): 3}, (4, 3, 2))))
    @example((QSeries(V3, {(4, 0, 0): 1, (3, 2, 2): F(1, 5)}, (4, 3, 2)), times_eps(DENSE3)))
    @example((QSeries(V3, {}, (4, 3, 2)), DENSE3))
    @settings(max_examples=150, deadline=None)
    def test_any_layout_matches_kronecker_per_block(self, pair):
        a, b = pair
        if len(a.vars) > 1 and a.vars == b.vars:
            assert a * b == oracle_mul(a, b) and b * a == oracle_mul(b, a)

    @pytest.mark.parametrize("eps, q", [(4, 4), (8, 8), (12, 12)])
    def test_pinched_series_match_kronecker_per_block(self, eps, q):
        delta = degenerate_tau(q, eps)
        det = (delta * F(-3, 7)).exp()
        eta = eta_normalized(q, "q1").embed(delta.vars, delta.truncs)
        for a, b in ((delta, delta), (det, delta), (det, det), (det * eta, delta),
                     (times_eps(delta).truncate(delta.truncs), det)):
            assert a * b == oracle_mul(a, b)


class TestEpsSeriesLog:
    # log of an eps-series over further variables runs as a block recurrence
    # in eps, like exp; each undoes the other exactly, orders included.
    @staticmethod
    def draw_log(data, rest):
        """An eps-series over ``rest`` with zero offsets and no eps^0 block."""
        T = data.draw(st.integers(1, 5))
        powers = data.draw(st.lists(st.integers(1, T), unique=True, max_size=4))
        f = data.draw(eps_series_strategy(nrest=len(rest), eps_trunc=T, powers=powers,
                                          offset_choices=[0]))
        return f.renamed("eps", *rest)

    @pytest.mark.parametrize("rest", [("q1", "q2"), ("q1", "C")])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_log_inverts_exp(self, rest, data):
        f = self.draw_log(data, rest)
        assert f.exp().log() == f

    @pytest.mark.parametrize("rest", [("q1", "q2"), ("q1", "C")])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exp_inverts_log(self, rest, data):
        g = self.draw_log(data, rest) + 1
        assert g.log().exp() == g

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_variable_log_equals_the_block_route(self, data):
        # The one-variable recurrence is unchanged; the block recurrence
        # over a q-variable of order 0 gives the same series.
        u = self.draw_log(data, ()) + 1
        layout = (("eps", "q1"), (u.truncs[0], 0))
        assert u.log() == oracle_log(u)
        assert u.embed(*layout).log() == u.log().embed(*layout)

    @pytest.mark.parametrize("blocks", [
        {0: F(2), 2: F(1)},
        {0: QSeries("q1", {0: 1, 1: 1}, 3), 2: QSeries.one("q1", 3)},
        {0: QSeries("q1", {0: 1}, 3, F(1, 24)), 2: QSeries("q1", {1: 1}, 3, F(1, 24))}])
    def test_needs_eps0_block_exactly_one(self, blocks):
        with pytest.raises(SeriesError):
            QSeries.from_blocks("eps", blocks, 4).log()


class TestBlockRecurrenceUnits:
    # The block recurrences read u_0 as the ring's unit without reading it:
    # a present block 0 other than the unit is an internal fault, never a
    # quotient or log computed as if it were 1.
    E2, E4 = EisensteinPoly({(1, 0, 0): 1}), EisensteinPoly({(0, 1, 0): 1})
    ONE = EisensteinPoly.const(1)

    def test_quotient_by_a_non_unit_block_zero_raises(self):
        with pytest.raises(ArithmeticError):
            series._quotient_blocks({0: self.E2}, {0: EisensteinPoly.const(2)}, 4, self.ONE)
        with pytest.raises(ArithmeticError):
            series._quotient_blocks({0: F(1)}, {0: F(2), 1: F(1)}, 3, F(1))

    def test_log_of_a_non_unit_block_zero_raises(self):
        with pytest.raises(ArithmeticError):
            series._log_blocks({0: self.ONE + self.E4, 2: self.E2}, 4, self.ONE)

    def test_unit_or_absent_block_zero(self):
        # 1 / (1 + E4 eps^2) and E2 over it, with u_0 given or left out.
        inverse = {0: self.ONE, 2: -self.E4, 4: self.E4 * self.E4}
        for u in ({0: self.ONE, 2: self.E4}, {2: self.E4}):
            assert series._quotient_blocks({0: self.ONE}, u, 4, self.ONE) == inverse
            assert series._quotient_blocks({0: self.E2}, u, 4, self.ONE) == {
                n: self.E2 * x for n, x in inverse.items()}
        assert series._log_blocks({0: self.ONE, 2: self.E4}, 4, self.ONE) == {
            2: self.E4, 4: self.E4 * self.E4 * F(-1, 2)}

    def test_inverse_passes_no_block_zero(self):
        # QSeries.inv divides by u/u_0 with its block 0 left out.
        u = QSeries(("eps", "q1"), {(0, 0): 3, (0, 1): 1, (2, 0): F(1, 2)}, (4, 3))
        assert u * u.inv() == QSeries.one(("eps", "q1"), (4, 3))
        assert eta_normalized(6).inv() * eta_normalized(6) == QSeries.one("q", 6)
