"""The integer-numerator polynomial rings against their Fraction oracles.

``EisensteinPoly`` (E2, E4, E6) and ``CPoly`` (the central charge) hold
integer numerators over one denominator.  The oracles below are the earlier
Fraction-based ring code of both classes: a dict of ``Fraction``
coefficients, one Fraction operation per coefficient per step.  Each test
feeds both the same coefficients and compares values, canonical form,
hashes and rendering.  The generic exponent-tuple multiply of
``RationalPoly`` is checked against the unrolled product of exponent triples
it replaced, and the sewing pass's ring in E2, E4, E6 of q1 and of q2
against outer products of one-variable expansions and against the
per-block expansion that the shared table of monomial expansions replaced.
Rendering reads integer numerators over one denominator; the Fraction-view
``join_terms`` it replaced is the oracle of every text and JSON form.
"""

from fractions import Fraction as F
from functools import reduce
from itertools import chain
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from twotori.ring import EisensteinPoly, RationalPoly, _outer, _sum_terms, monomial_str, rat_str
from twotori.series import QSeries, QuasiModularPoly, _monomial_qseries, eta_normalized
from twotori.sewing import _EisensteinPair, _pair_expander, _Rationals
from twotori.virasoro import CPoly

from test_virasoro import cpoly_from_string


def oracle_join_terms(terms) -> str:
    """The Fraction-view renderer that ``ring.join_terms`` replaced:
    (Fraction coefficient, monomial) pairs as one signed sum."""
    out = ""
    for c, body in terms:
        if not body:
            term = rat_str(c)
        elif c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{rat_str(c)}*{body}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out or "0"


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
        return oracle_join_terms((self.coeffs[k], monomial_str(*zip(("E2", "E4", "E6"), k)))
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
        return oracle_join_terms((self.coeffs[j], monomial_str(("C", j)))
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


def oracle_pair_expansion(p: _EisensteinPair, x1: QSeries, x2: QSeries) -> QSeries:
    """The per-block expansion that the shared table replaced: per q1
    monomial, its expansion times x1 and its polynomial in E(q2) expanded
    times x2, each multiplied afresh, and their outer product summed in
    ints."""
    rows = {}
    for k, v in p.nums.items():
        rows.setdefault(k[:3], {})[k[3:]] = v
    pieces = []
    for m, row in rows.items():
        x = _monomial_qseries(m, x1.trunc).renamed("q1") * x1
        y = EisensteinPoly(row).to_qseries(x2.trunc, "q2") * x2
        pieces.append((x.den * y.den * p.den, 1, _outer(x.nums, y.nums)))
    return QSeries._made(("q1", "q2"), *_sum_terms(pieces), (x1.trunc, x2.trunc),
                         (x1.offset, x2.offset))


def expand(p: _EisensteinPair, x1: QSeries, x2: QSeries) -> QSeries:
    return _pair_expander(x1, x2)(p)


def factor(var: str, trunc: int, offset, rank: int) -> QSeries:
    """q_a^offset times eta(q_a)^-rank (rank 0: QSeries.one), as the closed
    forms and the sewing data pass their one-variable factors."""
    x = QSeries.monomial(var, offset, trunc)
    return x * eta_normalized(trunc, var).inv() ** rank if rank else x


q2_only = eis_coeffs.map(lambda y: outer_pair(EisensteinPoly.const(1), EisensteinPoly(y)))
pair_blocks = st.lists(st.one_of(pair_terms.map(pair_sum), q2_only, st.just(_EisensteinPair())),
                       min_size=1, max_size=4)
half_ints = st.fractions(min_value=0, max_value=4, max_denominator=2)


class TestEisensteinPair:
    # Q[E(q1)] (x) Q[E(q2)]: keys (a, b, c, a', b', c'), expanded from one
    # table of monomial expansions per mantissa, times one-variable factors
    # x1(q1) and x2(q2).
    @pytest.mark.parametrize("t1, t2", [(0, 0), (0, 3), (3, 8), (8, 0), (8, 8)])
    @given(terms=pair_terms)
    @settings(max_examples=25, deadline=None)
    def test_expansion_is_the_outer_product(self, t1, t2, terms):
        want = reduce(add, (outer_expansion(EisensteinPoly(x), EisensteinPoly(y), t1, t2)
                            for x, y in terms), QSeries.zero(("q1", "q2"), (t1, t2)))
        p = pair_sum(terms)
        assert expand(p, *ones(t1, t2)) == want
        # eta(q1)^-2 q1^(1/2) and eta(q2)^3, as the module form passes them.
        x1 = QSeries.monomial("q1", F(1, 2), t1) * eta_normalized(t1, "q1").inv() ** 2
        x2 = eta_normalized(t2, "q2") ** 3
        box = (("q1", "q2"), (t1, t2))
        assert expand(p, x1, x2) == want * (x1.embed(*box) * x2.embed(*box))

    @given(blocks=pair_blocks, t1=st.integers(0, 6), t2=st.integers(0, 6),
           ranks=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           offsets=st.tuples(half_ints, half_ints), same=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_shared_table_equals_the_per_block_expansion(self, blocks, t1, t2, ranks, offsets,
                                                         same):
        # Unequal and equal q-orders, different alpha^2 and beta^2 offsets,
        # eta^-r mantissas of rank 1-3 and QSeries.one (rank 0, the sewing
        # data's case), zero blocks and q2-only monomials: every block read
        # through one expander equals its expansion from scratch.
        if same:
            t2, ranks = t1, (ranks[0], ranks[0])
        x1 = factor("q1", t1, offsets[0] / 2 - F(ranks[0], 24), ranks[0])
        x2 = factor("q2", t2, offsets[1] / 2 - F(ranks[1], 24), ranks[1])
        expander = _pair_expander(x1, x2)
        for p in blocks:
            got = expander(p)
            assert got == oracle_pair_expansion(p, x1, x2)
            assert got.truncs == (t1, t2) and got.offsets == (x1.offset, x2.offset)

    @pytest.mark.parametrize("rank", [0, 2])
    def test_each_monomial_is_multiplied_once_per_table(self, monkeypatch, rank):
        # Both tori at one order with one mantissa read one table: a monomial
        # of q1 or q2, in any block, costs one product with the mantissa, and
        # the mantissa QSeries.one costs none.
        x1, x2 = factor("q1", 5, F(1), rank), factor("q2", 5, F(3, 2), rank)
        blocks = [pair_sum([({(1, 0, 0): 1, (0, 1, 0): 2}, {(0, 0, 1): 3})]),
                  pair_sum([({(0, 0, 1): 1}, {(1, 0, 0): F(1, 5), (2, 0, 0): 1})]),
                  outer_pair(EisensteinPoly.const(1), EisensteinPoly({(0, 1, 0): 7}))]
        for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)):
            _monomial_qseries(m, 5)
        products, mul = [], QSeries.__mul__
        monkeypatch.setattr(QSeries, "__mul__", lambda a, b: products.append(a) or mul(a, b))
        expander = _pair_expander(x1, x2)
        got = [expander(p) for p in blocks]
        assert len(products) == (4 if rank else 0)
        monkeypatch.undo()
        assert got == [oracle_pair_expansion(p, x1, x2) for p in blocks]

    def test_only_the_mantissa_one_skips_its_products(self):
        # A constant mantissa other than 1 has the numerators of 1 over
        # another denominator; it is still multiplied in.
        x1, x2 = QSeries("q1", {0: F(1, 2)}, 4), QSeries("q2", {0: 3}, 4, F(1, 3))
        p = pair_sum([({(1, 0, 0): 1, (0, 0, 0): 2}, {(0, 1, 0): 1})])
        assert expand(p, x1, x2) == oracle_pair_expansion(p, x1, x2)

    @given(pair_terms, pair_terms)
    @settings(max_examples=50, deadline=None)
    def test_product(self, xs, ys):
        p, q = pair_sum(xs), pair_sum(ys)
        want = reduce(add, (outer_pair(EisensteinPoly(a) * EisensteinPoly(c),
                                       EisensteinPoly(b) * EisensteinPoly(d))
                            for a, b in xs for c, d in ys), _EisensteinPair())
        assert p * q == want and hash(p * q) == hash(want)
        assert expand(p * q, *ones(3, 3)) == (
            expand(p, *ones(3, 3)) * expand(q, *ones(3, 3))).truncate(3)

    def test_rendering_and_rings(self):
        e2, e4 = EisensteinPoly({(1, 0, 0): 1}), EisensteinPoly({(0, 1, 0): F(1, 2)})
        p = outer_pair(e2, e4) + outer_pair(e4 * e4, EisensteinPoly.const(3))
        assert str(p) == "1/2*E2(q1)*E4(q2) + 3/4*E4(q1)^2"
        with pytest.raises(TypeError):
            p + e2
        assert p != e2 and outer_pair(EisensteinPoly.const(1), EisensteinPoly.const(1)) != 1


# -- rendering against the Fraction view ---------------------------------------


def oracle_str(s) -> str:
    """The text of a QSeries or a RationalPoly, rendered from its Fraction
    view as before the renderer read numerators."""
    if isinstance(s, RationalPoly):
        c = s.coeffs
        return oracle_join_terms((c[k], s._monomial_str(k)) for k in sorted(c, reverse=True))
    if s.vars[0] == "eps":
        return s.render(lambda n, c: f"({oracle_str(c) if isinstance(c, QSeries) else c})")
    c = s.coeffs
    out = oracle_join_terms((c[e], monomial_str(*zip(s.vars, e))) for e in sorted(c))
    out += "".join(f" + O({v}^{t + 1})" for v, t in zip(s.vars, s.truncs))
    pre = "*".join(f"{v}^({rat_str(o)})" for v, o in zip(s.vars, s.offsets) if o)
    return f"{pre}*({out})" if pre else out


def oracle_json(s: QSeries) -> dict:
    """``QSeries.to_json`` from the Fraction view."""
    if s.vars[0] == "eps":
        return {"variable": "eps", "trunc": s.truncs[0],
                "coeffs": {str(n): rat_str(c) if isinstance(c, F) else oracle_json(c)
                           for n, c in s.blocks().items()}}
    coeffs = {",".join(map(str, e)): rat_str(c) for e, c in sorted(s.coeffs.items())}
    if len(s.vars) == 1:
        return {"variable": s.var, "offset": rat_str(s.offset), "trunc": s.trunc,
                "coeffs": coeffs}
    return {"variables": list(s.vars), "offsets": [rat_str(o) for o in s.offsets],
            "truncs": list(s.truncs), "coeffs": coeffs}


# +-1 (bare and negated monomials), small, large and huge-denominator values.
render_coeffs = st.one_of(st.sampled_from([1, -1, F(1, 2), F(-1, 3), 2, -7]), fracs)
offsets = st.fractions(min_value=-3, max_value=3, max_denominator=24)


@st.composite
def rendered_series(draw):
    """A one-variable, two-variable or eps-series QSeries, with offsets."""
    kind = draw(st.sampled_from(["q", "q1q2", "eps", "eps-q1"]))
    if kind == "q":
        t = draw(st.integers(0, 6))
        return QSeries("q", draw(st.dictionaries(st.integers(0, t), render_coeffs, max_size=5)),
                       t, draw(offsets))
    if kind == "eps":
        t = draw(st.integers(0, 6))
        return QSeries("eps", draw(st.dictionaries(st.integers(0, t), render_coeffs,
                                                   max_size=5)), t)
    vars = ("q1", "q2") if kind == "q1q2" else ("eps", "q1")
    truncs = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    keys = st.tuples(st.integers(0, truncs[0]), st.integers(0, truncs[1]))
    offs = (draw(offsets), draw(offsets)) if kind == "q1q2" else (0, draw(offsets))
    return QSeries(vars, draw(st.dictionaries(keys, render_coeffs, max_size=8)), truncs, offs)


class TestRenderingReadsNumerators:
    # str and to_json read the integer numerators over one denominator,
    # equal to the Fraction-view rendering, and build no Fraction view.
    @given(rendered_series())
    @settings(max_examples=200, deadline=None)
    def test_qseries(self, s):
        text, obj = str(s), s.to_json()
        assert not hasattr(s, "_view")
        assert text == oracle_str(s) and obj == oracle_json(s)

    @given(eis_coeffs.map(lambda x: {k: v for k, v in x.items() if k != (0, 0, 0)}),
           st.dictionaries(st.integers(0, 5), render_coeffs, max_size=5), render_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_polynomials(self, x, c, lead):
        for p in (EisensteinPoly({**x, (3, 3, 3): lead}), CPoly(c),
                  outer_pair(EisensteinPoly(x), EisensteinPoly({(0, 0, 1): lead}))):
            text = str(p)
            assert not hasattr(p, "_view")
            assert text == oracle_str(p)

    @pytest.mark.parametrize("s, text", [
        (QSeries.zero("q", 3), "0 + O(q^4)"),
        (QSeries.zero(("q1", "q2"), (1, 2), (F(1, 2), 0)), "q1^(1/2)*(0 + O(q1^2) + O(q2^3))"),
        (QSeries("q", {0: -1, 2: F(-1, 3)}, 2), "-1 - 1/3*q^2 + O(q^3)"),
        (QSeries("q", {1: -1, 2: 1}, 2, F(-1, 24)), "q^(-1/24)*(-q + q^2 + O(q^3))"),
        (QSeries("q", {0: F(2 ** 80 + 1, 10 ** 20)}, 0),
         f"{2 ** 80 + 1}/{10 ** 20} + O(q^1)"),
        (QSeries("eps", {}, 2), "0 + O(eps^3)"),
        (EisensteinPoly(), "0"),
        (EisensteinPoly({(1, 0, 0): -1, (0, 0, 0): F(-6, 4)}), "-E2 - 3/2"),
        (CPoly({1: -1, 0: 1}), "-C + 1"),
    ])
    def test_edge_cases(self, s, text):
        assert str(s) == oracle_str(s) == text
        if isinstance(s, QSeries):
            assert s.to_json() == oracle_json(s)
