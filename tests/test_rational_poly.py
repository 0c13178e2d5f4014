"""The integer-numerator polynomial rings against their Fraction oracles.

``EisensteinPoly`` (E2, E4, E6) and ``CPoly`` (the central charge) hold
integer numerators over one denominator.  The oracles below are the earlier
Fraction-based ring code of both classes: a dict of ``Fraction``
coefficients, one Fraction operation per coefficient per step.  Each test
feeds both the same coefficients and compares values, canonical form,
hashes and rendering.  The generic exponent-tuple multiply of
``RationalPoly`` is checked against the unrolled product of exponent triples
it replaced, and the sewing pass's ring in E2, E4, E6 of q1 and of q2
against outer products of one-variable expansions.
"""

from fractions import Fraction as F
from functools import reduce
from itertools import chain
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from twotori.ring import EisensteinPoly, RationalPoly, join_terms, monomial_str
from twotori.series import QSeries, QuasiModularPoly, eta_normalized
from twotori.sewing import _EisensteinPair, _Rationals
from twotori.virasoro import CPoly

from test_virasoro import cpoly_from_string


class OracleEisensteinPoly:
    def __init__(self, coeffs=None):
        self.coeffs = {m: F(v) for m, v in (coeffs or {}).items() if v}

    @staticmethod
    def _collect(terms):
        out = {}
        for mono, v in terms:
            out[mono] = out[mono] + v if mono in out else v
        return OracleEisensteinPoly(out)

    def __add__(self, other):
        return self._collect(chain(self.coeffs.items(), other.coeffs.items()))

    def __mul__(self, other):
        if not isinstance(other, OracleEisensteinPoly):
            c = F(other)
            return OracleEisensteinPoly({m: v * c for m, v in self.coeffs.items()})
        return self._collect(((a + x, b + y, c + z), v * w)
                             for (a, b, c), v in self.coeffs.items()
                             for (x, y, z), w in other.coeffs.items())

    def qd(self):
        terms = []
        for (a, b, c), v in self.coeffs.items():
            terms.append(((a + 1, b, c), -(a + 4 * b + 6 * c) * v))
            if a:
                terms.append(((a - 1, b + 1, c), 5 * a * v))
            if b:
                terms.append(((a, b - 1, c + 1), 14 * b * v))
            if c:
                terms.append(((a, b + 2, c - 1), F(60, 7) * c * v))
        return self._collect(terms)

    def __str__(self):
        return join_terms((self.coeffs[k], monomial_str(*zip(("E2", "E4", "E6"), k)))
                          for k in sorted(self.coeffs, reverse=True))


def oracle_mul_nums(na, nb) -> dict:
    # The unrolled product of E2^a E4^b E6^c numerators that the generic
    # exponent-tuple multiply replaced.
    out = {}
    for (a, b, c), v in na.items():
        for (x, y, z), w in nb.items():
            key = (a + x, b + y, c + z)
            out[key] = out.get(key, 0) + v * w
    return {k: v for k, v in out.items() if v}


class OracleCPoly:
    def __init__(self, coeffs=None):
        if isinstance(coeffs, (int, F)):
            coeffs = {0: coeffs}
        self.coeffs = {j: F(c) for j, c in (coeffs or {}).items() if c}

    def __add__(self, other):
        if isinstance(other, (int, F)):
            other = OracleCPoly(other)
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, F(0)) + c
        return OracleCPoly(out)

    def __neg__(self):
        return OracleCPoly({j: -c for j, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, F)):
            other = OracleCPoly(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return OracleCPoly({j: c * other for j, c in self.coeffs.items()})
        out = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                out[j1 + j2] = out.get(j1 + j2, F(0)) + c1 * c2
        return OracleCPoly(out)

    def eval_at(self, c_value):
        return sum((v * F(c_value) ** j for j, v in self.coeffs.items()), F(0))

    def __str__(self):
        return join_terms((self.coeffs[j], monomial_str(("C", j)))
                          for j in sorted(self.coeffs, reverse=True))


def assert_same(got, want):
    """Canonical integer form, the oracle's Fraction values and rendering,
    and the object and hash of the same value built from scratch."""
    assert got.den > 0 and all(type(v) is int and v for v in got.nums.values())
    assert gcd(got.den, *got.nums.values()) == 1
    assert dict(got.coeffs) == want.coeffs
    assert all(type(c) is F for c in got.coeffs.values())
    assert str(got) == str(want)
    fresh = type(got)(want.coeffs)
    assert got == fresh and hash(got) == hash(fresh)


# Coefficients of every size: small, near powers of two, over large denominators.
fracs = st.one_of(st.integers(-9, 9), st.fractions(min_value=-4, max_value=4, max_denominator=12),
                  st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 10 ** 15)))
scalars = st.one_of(st.just(0), st.just(F(0)), st.integers(-9, 9), fracs)
eis_coeffs = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                             fracs, max_size=6)
c_coeffs = st.dictionaries(st.integers(0, 5), fracs, max_size=5)


class TestEisensteinPolyAgainstOracle:
    @given(eis_coeffs, eis_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_add_and_sub(self, x, y):
        a, b, oa, ob = EisensteinPoly(x), EisensteinPoly(y), OracleEisensteinPoly(x), OracleEisensteinPoly(y)
        assert_same(a + b, oa + ob)
        assert_same(a + b * -1, oa + ob * -1)
        zero = a + a * -1
        assert_same(zero, OracleEisensteinPoly())
        assert (zero.nums, zero.den) == ({}, 1)

    @given(eis_coeffs, scalars)
    @settings(max_examples=100, deadline=None)
    def test_scalar(self, x, r):
        assert_same(EisensteinPoly(x) * r, OracleEisensteinPoly(x) * r)

    @given(eis_coeffs, eis_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_product(self, x, y):
        assert_same(EisensteinPoly(x) * EisensteinPoly(y),
                    OracleEisensteinPoly(x) * OracleEisensteinPoly(y))

    @given(eis_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_qd(self, x):
        assert_same(EisensteinPoly(x).qd(), OracleEisensteinPoly(x).qd())

    @given(eis_coeffs, fracs.filter(bool), eis_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_equal_values_give_equal_objects(self, x, r, y):
        a, b = EisensteinPoly(x), EisensteinPoly(y)
        routes = [(a * r) * (1 / F(r)), (a + a) * F(1, 2), a + EisensteinPoly(),
                  (a + b) + b * -1, EisensteinPoly(dict(a.coeffs))]
        for p in routes:
            assert_same(p, OracleEisensteinPoly(x))
        assert len({a, *routes}) == 1

    def test_quasimodular_results_leave_the_weight(self):
        p = QuasiModularPoly(4, {(2, 0, 0): F(1, 3), (0, 1, 0): -2})
        assert p == QuasiModularPoly(4, {(0, 1, 0): -2, (2, 0, 0): F(1, 3)})
        assert p != QuasiModularPoly(6)
        for q in (p + p, p * 3, p * p, p.qd()):
            assert type(q) is EisensteinPoly
        assert p * 3 == EisensteinPoly({(2, 0, 0): 1, (0, 1, 0): -6})
        with pytest.raises(Exception):
            QuasiModularPoly(4, {(0, 0, 1): 1})

    def test_views_are_read_only(self):
        p = EisensteinPoly({(1, 0, 0): F(1, 3), (0, 1, 0): 5})
        with pytest.raises(TypeError):
            p.coeffs[(0, 0, 1)] = F(1)
        with pytest.raises(AttributeError):
            p.nums = {}
        assert p.coeffs is p.coeffs and p.coeffs == {(1, 0, 0): F(1, 3), (0, 1, 0): F(5)}
        assert (p.nums, p.den) == ({(1, 0, 0): 1, (0, 1, 0): 15}, 3)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            EisensteinPoly({(1, 0, 0): 0.5})
        with pytest.raises(TypeError):
            EisensteinPoly.const(1) * 0.5


def test_rings_do_not_mix():
    # A polynomial adds and multiplies only with its own ring (and CPoly
    # with scalars); a mixed sum must not read the other side's numerators.
    e2, c, q = EisensteinPoly({(1, 0, 0): 1}), CPoly({1: 1}), QSeries.one("q", 3)
    mixed = [lambda: e2 + q, lambda: q + e2, lambda: e2 + c, lambda: c + e2,
             lambda: e2 * q, lambda: q * e2, lambda: e2 * c, lambda: c * e2,
             lambda: QuasiModularPoly(2, {(1, 0, 0): 1}) + q, lambda: e2 + 1]
    for op in mixed:
        with pytest.raises(TypeError):
            op()
    assert QuasiModularPoly(2, {(1, 0, 0): 1}) + e2 == EisensteinPoly({(1, 0, 0): 2})


class TestCPolyAgainstOracle:
    @given(c_coeffs, c_coeffs, st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_add_sub_neg(self, x, y, n):
        a, b, oa, ob = CPoly(x), CPoly(y), OracleCPoly(x), OracleCPoly(y)
        assert_same(a + b, oa + ob)
        assert_same(a - b, oa - ob)
        assert_same(-a, -oa)
        assert_same(a + n, oa + n)
        assert_same(n + a, oa + n)
        assert_same(a - n, oa - n)
        assert (a - a).nums == {} and (a - a).den == 1

    @given(c_coeffs, scalars)
    @settings(max_examples=100, deadline=None)
    def test_scalar(self, x, r):
        assert_same(CPoly(x) * r, OracleCPoly(x) * r)
        assert_same(r * CPoly(x), OracleCPoly(x) * r)

    @given(c_coeffs, c_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_product(self, x, y):
        assert_same(CPoly(x) * CPoly(y), OracleCPoly(x) * OracleCPoly(y))

    @given(c_coeffs, st.one_of(st.integers(-6, 6), fracs))
    @settings(max_examples=100, deadline=None)
    def test_eval_at(self, x, c):
        got = CPoly(x).eval_at(c)
        assert type(got) is F and got == OracleCPoly(x).eval_at(c)

    @given(c_coeffs, fracs.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_equal_values_give_equal_objects(self, x, r):
        a = CPoly(x)
        routes = [(a * r) * (1 / F(r)), (a + a) * F(1, 2), -(-a), a + 0, 0 + a,
                  CPoly(dict(a.coeffs)), cpoly_from_string(str(a))]
        for p in routes:
            assert_same(p, OracleCPoly(x))
        assert len({a, *routes}) == 1

    def test_comparison_with_scalars(self):
        assert CPoly(F(3, 2)) == F(3, 2) and CPoly() == 0 and CPoly({1: 1}) != 1
        assert CPoly({2: 1}).degree() == 2 and CPoly().degree() == -1

    def test_views_are_read_only(self):
        p = CPoly({0: F(1, 3), 2: 5})
        with pytest.raises(TypeError):
            p.coeffs[1] = F(1)
        assert p.coeffs is p.coeffs and p.coeffs == {0: F(1, 3), 2: F(5)}
        assert (p.nums, p.den) == ({0: 1, 2: 15}, 3)

    def test_input_is_validated(self):
        for bad in (0.5, {0: 0.5}):
            with pytest.raises(TypeError):
                CPoly(bad)
        with pytest.raises(ValueError):
            CPoly({-1: 1})
        with pytest.raises(TypeError):
            CPoly(1) * 0.5


int_nums = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                           st.integers(-2 ** 70, 2 ** 70).filter(bool), max_size=6)


class TestGenericMultiply:
    @given(int_nums, int_nums)
    @settings(max_examples=200, deadline=None)
    def test_against_the_unrolled_triple_product(self, x, y):
        assert RationalPoly._mul_nums(x, y) == oracle_mul_nums(x, y)
        assert EisensteinPoly._mul_nums is RationalPoly._mul_nums

    def test_cancelling_terms_leave_no_zero_numerator(self):
        x = {(1, 0, 0): 1, (0, 1, 0): 1}
        y = {(0, 1, 0): 1, (1, 0, 0): -1}
        assert RationalPoly._mul_nums(x, y) == oracle_mul_nums(x, y) == {(0, 2, 0): 1,
                                                                        (2, 0, 0): -1}

    def test_rationals_have_no_generators(self):
        third, six = _Rationals({(): F(1, 3)}), _Rationals({(): 6})
        assert third * six == _Rationals({(): 2}) and str(third * six) == "2"
        assert (third - third).is_zero() and third != _Rationals({(): F(1, 2)})


def outer_pair(x: EisensteinPoly, y: EisensteinPoly) -> _EisensteinPair:
    # x(q1) y(q2) in the ring of the sewing pass.
    return _EisensteinPair({(*m, *n): v * w for m, v in x.coeffs.items()
                            for n, w in y.coeffs.items()})


def outer_expansion(x: EisensteinPoly, y: EisensteinPoly, t1: int, t2: int) -> QSeries:
    # The product of the q1-expansion of x and the q2-expansion of y.
    box = (("q1", "q2"), (t1, t2))
    product = x.to_qseries(t1, "q1").embed(*box) * y.to_qseries(t2, "q2").embed(*box)
    return product.truncate((t1, t2))


pair_terms = st.lists(st.tuples(eis_coeffs, eis_coeffs), min_size=1, max_size=3)


def pair_sum(terms) -> _EisensteinPair:
    return reduce(add, (outer_pair(EisensteinPoly(x), EisensteinPoly(y)) for x, y in terms),
                  _EisensteinPair())


def ones(t1: int, t2: int):
    return QSeries.one("q1", t1), QSeries.one("q2", t2)


class TestEisensteinPair:
    # Q[E(q1)] (x) Q[E(q2)]: keys (a, b, c, a', b', c'), expanded per q1
    # monomial in ints, times one-variable factors x1(q1) and x2(q2).
    @pytest.mark.parametrize("t1, t2", [(0, 0), (0, 3), (3, 8), (8, 0), (8, 8)])
    @given(terms=pair_terms)
    @settings(max_examples=25, deadline=None)
    def test_expansion_is_the_outer_product(self, t1, t2, terms):
        want = reduce(add, (outer_expansion(EisensteinPoly(x), EisensteinPoly(y), t1, t2)
                            for x, y in terms), QSeries.zero(("q1", "q2"), (t1, t2)))
        p = pair_sum(terms)
        assert p.to_qseries(*ones(t1, t2)) == want
        # eta(q1)^-2 q1^(1/2) and eta(q2)^3, as the module form passes them.
        x1 = QSeries.monomial("q1", F(1, 2), t1) * eta_normalized(t1, "q1").inv() ** 2
        x2 = eta_normalized(t2, "q2") ** 3
        box = (("q1", "q2"), (t1, t2))
        assert p.to_qseries(x1, x2) == want * (x1.embed(*box) * x2.embed(*box))

    @given(pair_terms, pair_terms)
    @settings(max_examples=50, deadline=None)
    def test_product(self, xs, ys):
        p, q = pair_sum(xs), pair_sum(ys)
        want = reduce(add, (outer_pair(EisensteinPoly(a) * EisensteinPoly(c),
                                       EisensteinPoly(b) * EisensteinPoly(d))
                            for a, b in xs for c, d in ys), _EisensteinPair())
        assert p * q == want and hash(p * q) == hash(want)
        assert (p * q).to_qseries(*ones(3, 3)) == (
            p.to_qseries(*ones(3, 3)) * q.to_qseries(*ones(3, 3))).truncate(3)

    def test_rendering_and_rings(self):
        e2, e4 = EisensteinPoly({(1, 0, 0): 1}), EisensteinPoly({(0, 1, 0): F(1, 2)})
        p = outer_pair(e2, e4) + outer_pair(e4 * e4, EisensteinPoly.const(3))
        assert str(p) == "1/2*E2(q1)*E4(q2) + 3/4*E4(q1)^2"
        with pytest.raises(TypeError):
            p + e2
        assert p != e2 and outer_pair(EisensteinPoly.const(1), EisensteinPoly.const(1)) != 1
