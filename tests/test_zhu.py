"""1-point operator tests, cross-checked by a scalar recursion at numeric C
and by the operator recursion run on q-series."""

import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations
from math import comb

import pytest

from twotori import series, zhu
from twotori.ring import (
    SeriesError,
    eisenstein_poly,
    quasimodular_monomials,
    rat,
)
from twotori.series import (
    QSeries,
    QuasiModularPoly,
    eisenstein,
    eta_normalized,
    qd,
)
from twotori.virasoro import VirState, apply_mode, partitions_of_weight
from twotori.zhu import (
    BasePartition,
    DiffOp,
    one_point,
    one_point_word,
    specialize,
    structure_check,
    to_theta_basis,
    to_z_basis,
)

from test_series import agrees_with

E2, E4, E6 = (eisenstein_poly(k) for k in (2, 4, 6))


def eta_power(c_value, q_trunc: int) -> QSeries:
    """eta(q)^(-c) for rational c, to reattach the implicit prefactor."""
    return eta_normalized(q_trunc).pow_rational(-rat(c_value))


def scalar_one_point(word, base: QSeries, c_val: F, q_trunc: int) -> QSeries:
    """Oracle: the same mode reduction carrying concrete series values.

    No operators, no basis change, no specialization; the central charge is
    a number and the base partition function an explicit q-expansion.
    """
    word = tuple(word)
    if not word:
        return base
    k, tail = word[0], word[1:]
    out = QSeries.zero("q", q_trunc, base.offset)
    if k == 2:
        out = out + qd(scalar_one_point(tail, base, c_val, q_trunc))
    state = VirState.vacuum()
    for w in reversed(tail):
        state = apply_mode(-w, state)
    for r in range(sum(tail) + 1):
        if (k + r) % 2 or comb(k + r - 1, r + 1) == 0:
            continue
        reduced = apply_mode(r, state)
        for parts in {p for p, _ in reduced.nums}:
            coeff = reduced.coeff(parts)
            contrib = scalar_one_point(parts, base, c_val, q_trunc)
            factor = F((-1) ** r * comb(k + r - 1, r + 1)) * coeff.eval_at(c_val)
            out = out + eisenstein(k + r, q_trunc) * contrib * factor
    return out


@lru_cache(maxsize=None)
def series_op_for_word(word: tuple, q_trunc: int) -> dict:
    """Oracle: the mode reduction with every coefficient a q-series.

    The same head-first reduction as ``zhu._op_for_word``, run on truncated
    q-series in place of E2/E4/E6 polynomials: (i, j) -> the q-expansion
    through q^q_trunc of the C^j qd^i coefficient, with E_k read from
    ``eisenstein`` and qd from ``QSeries.qd``.  Terms that vanish to that
    order are left out.
    """
    if not word:
        return {(0, 0): QSeries.one("q", q_trunc)}
    k, tail = word[0], word[1:]
    out = {}

    def add(key, s):
        out[key] = out[key] + s if key in out else s

    if k == 2:
        for (i, j), s in series_op_for_word(tail, q_trunc).items():
            add((i, j), s.qd())
            add((i + 1, j), s)
    state = VirState.vacuum()
    for w in reversed(tail):
        state = apply_mode(-w, state)
    for r in range(sum(tail) + 1):
        if (k + r) % 2 or comb(k + r - 1, r + 1) == 0:
            continue
        factor = eisenstein(k + r, q_trunc) * F((-1) ** r * comb(k + r - 1, r + 1))
        reduced = apply_mode(r, state)
        for parts in {p for p, _ in reduced.nums}:
            cpoly = reduced.coeff(parts)
            for (i, j), s in series_op_for_word(parts, q_trunc).items():
                term = s * factor
                for dj, c in cpoly.coeffs.items():
                    add((i, j + dj), term * c)
    return {key: s for key, s in out.items() if not s.is_zero()}


def operator_route(word, c_val: F, alpha_sq: F, q_trunc: int) -> QSeries:
    """One-point value through the full symbolic pipeline, eta factor reattached."""
    op = to_theta_basis(one_point_word(word, q_trunc))
    theta = QSeries.monomial("q", alpha_sq / 2, q_trunc)
    value = specialize(op, BasePartition(theta, c_val))
    return value * eta_power(c_val, q_trunc)


class TestBaseCases:
    def test_stress_tensor_gives_derivative(self):
        op = one_point(VirState.monomial((2,)), 6)
        assert op == DiffOp("Z", {(1, 0): 1}, 6)

    def test_higher_single_modes_vanish(self):
        for k in (1, 3, 4, 5, 6, 7):
            assert one_point_word((k,), 6).is_zero()

    def test_l2_squared_operator(self):
        op = one_point(VirState.monomial((2, 2)), 8)
        expected = DiffOp("Z", {(2, 0): 1, (1, 0): E2 * 2, (0, 1): E4 * F(1, 2)}, 8)
        assert op == expected

    def test_l4_l2_operator(self):
        # head-first reduction of L[-4]L[-2]|0>: 6 E4 D + 5 C E6
        op = one_point(VirState.monomial((4, 2)), 8)
        expected = DiffOp("Z", {(1, 0): E4 * 6, (0, 1): E6 * 5}, 8)
        assert op == expected


class TestRecursionOrderInvariance:
    def test_word_vs_normal_ordered(self):
        # L[-2]L[-4]|0> = L[-4]L[-2]|0> + 2 L[-6]|0>
        lhs = one_point_word((2, 4), 8)
        state = apply_mode(-2, VirState.monomial((4,)))
        assert state == VirState({(4, 2): 1, (6,): 2})
        rhs = {}
        for p, c in (((4, 2), 1), ((6,), 2)):
            for key, v in one_point(VirState.monomial(p), 8).coeffs.items():
                rhs[key] = rhs.get(key, 0) + c * v
        assert lhs.coeffs == {key: v for key, v in rhs.items() if v}

    @pytest.mark.parametrize("modes", [(2, 2, 3), (3, 2, 2), (4, 3, 2), (2, 4, 3),
                                       (5, 2, 3), (2, 2, 2, 2), (3, 2, 2, 3)])
    def test_permuted_words_specialize_equal(self, modes):
        # operator pipeline agrees with the scalar reduction on every reordering
        base = eta_power(1, 8)
        for perm in set(permutations(modes)):
            got = operator_route(perm, F(1), F(0), 8)
            want = scalar_one_point(perm, base, F(1), 8)
            assert agrees_with(got, want)

    WORDS = [(2, 3, 3), (2, 2, 3), (3, 2, 2, 3), (5, 2, 3), (4, 3, 2), (2, 2, 2, 2), (2, 4)]

    @staticmethod
    def reorderings_that_disagree() -> list:
        # Head-first reduction of each reordering against normal ordering by
        # the Virasoro relations and reduction of the PBW words, compared as
        # exact polynomials: no q-order enters.
        perms = sorted({p for w in TestRecursionOrderInvariance.WORDS for p in permutations(w)})
        assert len(perms) == 27
        return [p for p in perms
                if zhu._op_for_word(p) != zhu.one_point(zhu._state_for_word(p), 0)]

    def test_reorderings_agree_exactly(self):
        assert self.reorderings_that_disagree() == []

    def test_reorderings_catch_a_wrong_binomial(self, monkeypatch):
        # The r = 1 binomial C(k, 2) off by one keeps every weight, so only
        # the reordering comparison sees it.
        monkeypatch.setattr(zhu, "comb", lambda n, k: comb(n, k) + (k == 2))
        zhu._op_for_word.cache_clear()
        try:
            assert self.reorderings_that_disagree()
        finally:
            zhu._op_for_word.cache_clear()


class TestSeriesOracle:
    @pytest.mark.parametrize("q_trunc", [8, 12])
    def test_polynomial_operators_expand_to_the_series_recursion(self, q_trunc):
        for w in range(11):
            for parts in partitions_of_weight(w):
                op = one_point(VirState.monomial(parts), q_trunc)
                assert op.series() == series_op_for_word(parts, q_trunc), parts

    def test_expansion_reads_integer_numerators(self):
        # With the table of monomial expansions warm, reading the Theta
        # operators of weight <= 12 as q-series builds no Fraction: each
        # (i, j) slice is summed from the operator's integer numerators.
        for w in range(0, 13, 2):
            for mono in quasimodular_monomials(w):
                series._monomial_qseries(mono, 12)
        ops = [to_theta_basis(one_point(VirState.monomial(p), 12))
               for w in range(2, 13) for p in partitions_of_weight(w)]
        assert len(ops) == 76
        new = F.__new__.__code__
        made = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is new:
                made.append(frame.f_back.f_code.co_qualname)

        sys.setprofile(profile)
        try:
            expanded = [op.series() for op in ops]
        finally:
            sys.setprofile(None)
        assert made == []
        assert sum(map(len, expanded)) > 76

    def test_operators_do_not_depend_on_the_q_order(self):
        # One exact operator serves every order; only its reading differs.
        low, high = one_point_word((3, 2, 3), 4), one_point_word((3, 2, 3), 9)
        assert low == high and not low.is_zero()
        assert (low.q_trunc, high.q_trunc) == (4, 9)
        assert all(agrees_with(s, high.series()[key], 4) for key, s in low.series().items())


class TestNumericOracle:
    @pytest.mark.parametrize("c_val,alpha_sq", [(F(1), F(0)), (F(2), F(1)),
                                                (F(5, 2), F(1, 3))])
    def test_pipeline_matches_scalar_recursion(self, c_val, alpha_sq):
        q_trunc = 6
        base = QSeries.monomial("q", alpha_sq / 2, q_trunc) * eta_power(c_val, q_trunc)
        for w in (2, 4, 6, 8):
            for parts in partitions_of_weight(w):
                got = operator_route(parts, c_val, alpha_sq, q_trunc)
                want = scalar_one_point(parts, base, c_val, q_trunc)
                assert agrees_with(got, want), (parts, c_val, alpha_sq)


class TestThetaBasis:
    def test_identity_fixed(self):
        op = DiffOp.identity("Z", 6)
        assert to_theta_basis(op) == DiffOp.identity("Theta", 6)

    def test_derivative_rewrite(self):
        th = to_theta_basis(one_point(VirState.monomial((2,)), 8))
        expected = DiffOp("Theta", {(1, 0): 1, (0, 1): E2 * F(1, 2)}, 8)
        assert th == expected

    def test_roundtrip(self):
        for parts in [(2,), (2, 2), (4, 2), (2, 2, 2), (6,)]:
            op = one_point(VirState.monomial(parts), 8)
            assert to_z_basis(to_theta_basis(op)) == op

    def test_c_degree_bound_l2_squared(self):
        th = to_theta_basis(one_point(VirState.monomial((2, 2)), 8))
        assert th.c_degree(0) <= 2
        for j in range(th.c_degree(0) + 1):
            QuasiModularPoly(4, th.coeff(0, j).coeffs)  # raises if not weight-4 graded


class TestSpecialize:
    def test_identity_on_unit_theta(self):
        op = DiffOp.identity("Theta", 5)
        assert specialize(op, BasePartition.heisenberg(1, 5)) == QSeries.one("q", 5)

    def test_monomial_theta(self):
        th = DiffOp("Theta", {(1, 0): 1, (0, 1): E2 * F(1, 2)}, 5)
        base = BasePartition(QSeries.monomial("q", F(1, 2), 5), F(1))
        got = specialize(th, base)
        mono = QSeries.monomial("q", F(1, 2), 5)
        assert got == mono * F(1, 2) + eisenstein(2, 5) * mono * F(1, 2)

    def test_heisenberg_reattached(self):
        th = to_theta_basis(one_point(VirState.monomial((2,)), 8))
        got = specialize(th, BasePartition.heisenberg(1, 8)) * eta_power(1, 8)
        assert got == qd(eta_normalized(8).inv())

    def test_base_variable_names_the_result(self):
        # The operator's coefficients are q-series; a base in q1 only
        # renames the result.
        op = to_theta_basis(one_point(VirState.monomial((2, 2)), 6))
        base = QSeries.monomial("q", F(1, 2), 6)
        got = specialize(op, BasePartition(base.renamed("q1"), F(2)))
        assert got.vars == ("q1",)
        assert got == specialize(op, BasePartition(base, F(2))).renamed("q1")

    def test_truncation_mismatch(self):
        op = DiffOp.identity("Theta", 8)
        with pytest.raises(SeriesError):
            specialize(op, BasePartition.heisenberg(1, 5))

    def test_requires_theta_basis(self):
        with pytest.raises(SeriesError):
            specialize(DiffOp.identity("Z", 4), BasePartition.heisenberg(1, 4))

    def test_needs_a_q_order(self):
        op = to_theta_basis(zhu._op_for_word((2, 2)))
        with pytest.raises(SeriesError):
            specialize(op, BasePartition.heisenberg(1, 4))


def per_slot_specialize(op: DiffOp, base: BasePartition) -> QSeries:
    """Oracle: one q-series product and one sum per C^j qd^i slot, from the
    operator's expanded coefficients, as specialization ran before the sum
    moved into Q[E2, E4, E6]."""
    theta = base.theta.truncate(op.q_trunc)
    derivs = [theta]
    for _ in range(op.max_derivative()):
        derivs.append(derivs[-1].qd())
    out = QSeries.zero(theta.var, op.q_trunc, theta.offset)
    for (i, j), s in op.series().items():
        out = out + s.renamed(theta.var) * derivs[i] * base.c_value ** j
    return out


def specialize_bases(q: int) -> list:
    # One-term bases q1^(alpha^2/2) at C in {1, 2, 1/2}, one-term bases with
    # their term at q1^e, e != 0, and bases of many terms (the path that
    # takes qd^i of the base).
    bases = [BasePartition(QSeries.monomial("q1", F(a) / 2, q), c)
             for a in (0, F(1, 4), 1, 2, -1) for c in (F(1), F(2), F(1, 2))]
    bases += [BasePartition(QSeries("q1", {3: F(5, 7)}, q, F(1, 3)), F(3)),
              BasePartition(QSeries("q1", {2: -2}, q + 1, F(-1, 2)), F(2)),
              BasePartition(QSeries("q1", {0: 1}, q, 1), F(1)),
              BasePartition(eta_normalized(q, "q1"), F(1)),
              BasePartition(eta_normalized(q + 2, "q1").inv(), F(-2, 3)),
              BasePartition(QSeries("q1", {1: 1, 4: F(-1, 3)}, q, F(1, 8)), F(2)),
              BasePartition(QSeries.zero("q1", q, F(1, 5)), F(2))]
    return bases


class TestSpecializeAgainstPerSlotOracle:
    @pytest.mark.parametrize("eps, q", [(8, 6), (12, 12), (16, 16)])
    def test_degeneration_operators(self, eps, q):
        from twotori.genus2 import degeneration_sum
        ops = degeneration_sum(eps, q).terms.values()
        assert len(ops) > 1
        for base in specialize_bases(q):
            for op in ops:
                assert specialize(op, base) == per_slot_specialize(op, base)

    def test_single_operators(self):
        # Operators of one slot, of a zero slot and of mixed weights.
        ops = [DiffOp.identity("Theta", 6), DiffOp("Theta", {}, 6),
               DiffOp("Theta", {(1, 0): 1, (0, 1): E2 * F(1, 2), (3, 2): E4 - E2 * E2}, 6),
               to_theta_basis(one_point(VirState.monomial((3, 3)), 6))]
        for base in specialize_bases(6):
            for op in ops:
                assert specialize(op, base) == per_slot_specialize(op, base)


class TestStructure:
    def test_small_monomials_pass(self):
        for parts in [(2,), (2, 2), (4,), (4, 2), (2, 2, 2), (3, 3)]:
            assert structure_check(parts, 8).passed

    def test_theta_basis_bounds(self):
        op = to_theta_basis(one_point(VirState.monomial((2, 2)), 8))
        assert structure_check((2, 2), 8, op=op).passed

    def test_zero_operator_trivially_passes(self):
        assert structure_check((4,), 8).passed


class TestWeightTwelveInvariant:
    def test_all_monomials_terminate_and_pass(self):
        # recursion must terminate and the operator shape must hold through weight 12
        for n in range(11, 13):
            for parts in partitions_of_weight(n):
                op = one_point(VirState.monomial(parts), 8)
                assert structure_check(parts, 8, op=op).passed, parts
