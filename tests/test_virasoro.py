"""Vacuum-module tests: bracket algebra, conformal-map data, descendant vectors."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from twotori import virasoro
from twotori.series import QSeries
from twotori.virasoro import (
    CPoly,
    VirState,
    _w_map,
    alpha_coefficients,
    apply_mode,
    beta_coefficients,
    check_partition,
    exp_minus_one,
    lambda_vector,
    lambda_vector_direct,
    partition_weight,
    partitions_of_weight,
)

def cpoly_from_string(text: str) -> CPoly:
    """Parse the canonical rendering of a CPoly (its __str__)."""
    text = text.replace(" - ", " + -").strip()
    coeffs = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk or chunk == "0":
            continue
        if "C" in chunk:
            coeff_part, _, power_part = chunk.partition("C")
            coeff_part = coeff_part.rstrip("*")
            v = {"": F(1), "+": F(1), "-": F(-1)}.get(coeff_part) or F(coeff_part)
            j = int(power_part[1:]) if power_part.startswith("^") else 1
        else:
            v, j = F(chunk), 0
        coeffs[j] = coeffs.get(j, F(0)) + v
    return CPoly(coeffs)


def state_from_json(entries) -> VirState:
    """Read back the JSON form of a VirState (its to_json)."""
    return VirState({tuple(e["partition"]): cpoly_from_string(e["coeff"]) for e in entries})


def intermediate_odd_map(trunc: int) -> QSeries:
    """g_1 = w_1^{-1} o phi, the odd map whose coefficients seed the peeling."""
    return _w_map(1, F(1, 2), trunc).compose(exp_minus_one(trunc))


# All seven table values for the factored-map coefficients.
BETA_TABLE = {
    2: F(-1, 12),
    4: F(-1, 480),
    6: F(1, 12096),
    8: F(-1, 138240),
    10: F(1, 2280960),
    12: F(-389, 13586227200),
    14: F(1, 464486400),
}


class TestPartitions:
    def test_check(self):
        assert check_partition((4, 2, 2)) == (4, 2, 2)
        with pytest.raises(ValueError):
            check_partition((2, 4))
        with pytest.raises(ValueError):
            check_partition((2, 1))

    def test_enumeration(self):
        assert partitions_of_weight(0) == [()]
        assert partitions_of_weight(1) == []
        assert set(partitions_of_weight(6)) == {(6,), (4, 2), (3, 3), (2, 2, 2)}
        assert len(partitions_of_weight(10)) == 12


class TestCPoly:
    def test_arithmetic(self):
        p = CPoly({1: F(1, 2)}) + CPoly(3)
        assert p * p == CPoly({2: F(1, 4), 1: 3, 0: 9})
        assert p.eval_at(2) == 4

    def test_string_roundtrip(self):
        for p in (CPoly({2: F(1, 4), 1: -3, 0: F(9, 7)}), CPoly(), CPoly({1: -1}),
                  CPoly({3: 1, 0: F(-2, 5)})):
            assert cpoly_from_string(str(p)) == p


class TestApplyMode:
    def test_central_term(self):
        out = apply_mode(2, VirState.monomial((2,)))
        assert out == VirState({(): CPoly({1: F(1, 2)})})

    def test_grading(self):
        v = VirState.monomial((2, 2))
        assert apply_mode(0, v) == v * 4

    def test_translation(self):
        assert apply_mode(-1, VirState.monomial((2,))) == VirState.monomial((3,))

    def test_annihilation(self):
        for n in (1, 3, 5):
            assert apply_mode(n, VirState.vacuum()).is_zero()

    def test_l2_on_l4(self):
        # [L_2, L_{-4}] |0> = 6 L_{-2} |0>
        assert apply_mode(2, VirState.monomial((4,))) == VirState.monomial((2,)) * 6

    def test_l4_on_l4(self):
        # [L_4, L_{-4}] |0> = (8 L_0 + 5C) |0> = 5C |0>
        assert apply_mode(4, VirState.monomial((4,))) == VirState({(): CPoly({1: 5})})

    def test_weight_grading_property(self):
        for parts in partitions_of_weight(6) + partitions_of_weight(8):
            v = VirState.monomial(parts)
            for n in (-2, -1, 1, 2, 3):
                out = apply_mode(n, v)
                for p, _ in out.nums:
                    assert partition_weight(p) == partition_weight(parts) - n

    small_states = st.sampled_from(
        [VirState.monomial(p) for w in (0, 2, 3, 4, 5, 6) for p in partitions_of_weight(w)])

    @given(small_states,
           st.integers(min_value=-6, max_value=6),
           st.integers(min_value=-6, max_value=6))
    @settings(max_examples=120, deadline=None)
    def test_jacobi_bracket(self, v, m, n):
        lhs = apply_mode(m, apply_mode(n, v)) - apply_mode(n, apply_mode(m, v))
        rhs = apply_mode(m + n, v) * (m - n)
        if m + n == 0:
            rhs = rhs + v * CPoly({1: F(m ** 3 - m, 12)})
        assert lhs == rhs


class TestConformalMapData:
    def test_alphas(self):
        a = alpha_coefficients(3)
        assert a == (F(1, 2), F(-1, 12), F(1, 48))

    def test_betas_match_table(self):
        assert dict(beta_coefficients(14)) == BETA_TABLE

    def test_intermediate_map_is_2tanh_half(self):
        # z - z^3/12 + z^5/120 - 17 z^7/20160 (Taylor of 2 tanh(z/2))
        g1 = intermediate_odd_map(7)
        assert g1 == QSeries("z", {1: 1, 3: F(-1, 12), 5: F(1, 120),
                                   7: F(-17, 20160)}, 7)

    def test_intermediate_map_is_odd(self):
        g1 = intermediate_odd_map(11)
        assert all(n % 2 for (n,) in g1.coeffs)

    def test_consistency_failures_raise(self, monkeypatch):
        # A wrong target map must raise even under python -O.
        monkeypatch.setattr(virasoro, "exp_minus_one",
                            lambda trunc: QSeries("z", {1: 2}, trunc))
        alpha_coefficients.cache_clear()
        beta_coefficients.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                alpha_coefficients(3)
            with pytest.raises(ArithmeticError):
                beta_coefficients(4)
        finally:
            alpha_coefficients.cache_clear()
            beta_coefficients.cache_clear()


class TestLambdaVector:
    def test_displayed_components(self):
        lam = lambda_vector(6)
        assert lam[0] == VirState.vacuum()
        assert lam[2] == VirState({(2,): F(-1, 12)})
        assert lam[4] == VirState({(2, 2): F(1, 288), (4,): F(-1, 480)})
        assert lam[6] == VirState({(2, 2, 2): F(-1, 10368), (4, 2): F(1, 5760),
                                   (6,): F(1, 12096)})

    def test_odd_components_vanish(self):
        lam = lambda_vector(12)
        assert all(lam[n].is_zero() for n in range(1, 13, 2))

    def test_leading_l2_power_coefficient(self):
        lam = lambda_vector(12)
        b2 = BETA_TABLE[2]
        for n in range(0, 7):
            c = lam[2 * n].coeff((2,) * n)
            assert c == CPoly(b2 ** n / __import__("math").factorial(n))

    def test_direct_construction_weight_2(self):
        lam = lambda_vector_direct(2)
        assert lam[0] == VirState.vacuum()
        assert lam[2] == VirState({(2,): F(-1, 12)})

    def test_dual_oracle_agreement_to_12(self):
        a = lambda_vector(12)
        b = lambda_vector_direct(12)
        assert len(a) == len(b) == 13
        for n in range(13):
            assert a[n] == b[n]


class TestVirStateJson:
    def test_roundtrip(self):
        v = VirState({(4, 2): CPoly({1: F(1, 2), 0: -3}), (2, 2, 2): F(5, 7)})
        assert state_from_json(v.to_json()) == v


class TestSingleGeneratorMap:
    def test_exponential_derivation_equals_closed_form(self):
        # exp(b z^(k+1) d/dz) z = z (1 - k b z^k)^(-1/k), the identity the
        # peeling uses, checked by the generic derivation-exponential; the
        # inverse map at -b is the map at b
        from twotori.virasoro import _exp_derivation, _w_map
        for k, b in ((1, F(1, 2)), (2, F(-1, 12)), (3, F(2, 7)), (4, F(-1, 480))):
            got = _exp_derivation({k: b}, 12)
            assert got == _w_map(k, -b, 12)
