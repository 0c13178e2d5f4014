"""The flat Zhu operators and Virasoro states against the nested oracle.

``zhu.DiffOp`` and ``virasoro.VirState`` each hold one dict of integer
numerators over one denominator.  The oracle below is the earlier nested
code: an operator as a dict (i, j) -> ``EisensteinPoly``, a state as a dict
partition -> ``CPoly``, every sum merged key by key (``merge_into``, formerly
``virasoro._merge_into``) with one ring operation per coefficient.  Both are compared as exact
polynomials (no q-order enters) on every PBW word of weight <= 14.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations
from math import comb

import pytest

from twotori import virasoro, zhu
from twotori.ring import EisensteinPoly, eisenstein_poly
from twotori.virasoro import CPoly, VirState, apply_mode, partitions_of_weight

from test_zhu import TestRecursionOrderInvariance as Invariance

ONE = CPoly({0: 1})
UNIT = EisensteinPoly.const(1)
WORDS = [p for w in range(2, 15) for p in partitions_of_weight(w)]


def merge_into(acc: dict, items) -> None:
    # Add (key, ring element) pairs into acc, dropping keys whose sum vanishes.
    for key, c in items:
        if key in acc:
            c = acc[key] + c
        if c.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = c


# -- nested Virasoro states: partition -> CPoly ----------------------------------


@lru_cache(maxsize=None)
def nested_normal_order_word(word: tuple) -> tuple:
    if not word:
        return (((), ONE),)
    if word[-1] >= -1:
        return ()
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a > b:
            acc = {}
            merge_into(acc, nested_normal_order_word(word[:i] + (b, a) + word[i + 2:]))
            merge_into(acc, ((p, c * (a - b)) for p, c in
                             nested_normal_order_word(word[:i] + (a + b,) + word[i + 2:])))
            if a + b == 0 and a > 1:
                central = CPoly({1: F(a ** 3 - a, 12)})
                merge_into(acc, ((p, c * central) for p, c in
                                 nested_normal_order_word(word[:i] + word[i + 2:])))
            return tuple(sorted(acc.items()))
    return ((tuple(-m for m in word), ONE),)


def nested_apply_mode(n: int, state: dict) -> dict:
    acc = {}
    for parts, coeff in state.items():
        word = (n,) + tuple(-k for k in parts)
        merge_into(acc, ((p, coeff * c) for p, c in nested_normal_order_word(word)))
    return acc


@lru_cache(maxsize=None)
def nested_state_for_word(word: tuple) -> tuple:
    state = {(): ONE}
    for w in reversed(word):
        state = nested_apply_mode(-w, state)
    return tuple(state.items())


# -- nested operators: (i, j) -> EisensteinPoly ----------------------------------


def op_add(a: dict, b: dict) -> dict:
    out = dict(a)
    merge_into(out, b.items())
    return out


def op_scale(op: dict, factor) -> dict:
    return {k: t for k, s in op.items() if not (t := s * factor).is_zero()}


def op_scale_cpoly(op: dict, p: CPoly) -> dict:
    out = {}
    for (i, j), s in op.items():
        merge_into(out, (((i, j + dj), s * c) for dj, c in p.coeffs.items()))
    return out


def op_qd_compose(op: dict) -> dict:
    out = {}
    for (i, j), s in op.items():
        merge_into(out, (((i, j), s.qd()), ((i + 1, j), s)))
    return out


@lru_cache(maxsize=None)
def nested_op_for_word(word: tuple) -> tuple:
    if not word:
        return (((0, 0), UNIT),)
    k, tail = word[0], word[1:]
    out = {}
    if k == 2:
        out = op_add(out, op_qd_compose(dict(nested_op_for_word(tail))))
    for r in range(sum(tail) + 1):
        if (k + r) % 2 or comb(k + r - 1, r + 1) == 0 or not tail:
            continue
        reduced = nested_apply_mode(r, dict(nested_state_for_word(tail)))
        factor = eisenstein_poly(k + r) * ((-1) ** r * comb(k + r - 1, r + 1))
        out = op_add(out, op_scale(nested_op_for_state(reduced), factor))
    return tuple(out.items())


def nested_op_for_state(state: dict) -> dict:
    out = {}
    for parts, coeff in state.items():
        out = op_add(out, op_scale_cpoly(dict(nested_op_for_word(parts)), coeff))
    return out


def nested_eta_rewrite(op: dict, sign: int) -> dict:
    e2_half = eisenstein_poly(2) * F(sign, 2)
    powers = [{(0, 0): UNIT}]
    for _ in range(max((i for i, _ in op), default=0)):
        prev = powers[-1]
        powers.append(op_add(op_qd_compose(prev),
                             op_scale_cpoly(op_scale(prev, e2_half), CPoly({1: 1}))))
    out = {}
    for (i, j), s in op.items():
        out = op_add(out, op_scale_cpoly(op_scale(powers[i], s), CPoly({j: 1})))
    return out


# -- the comparison ---------------------------------------------------------------


def flat_op(op: dict) -> dict:
    return {(i, j, *m): v for (i, j), s in op.items() for m, v in s.coeffs.items()}


def flat_state(state: dict) -> dict:
    return {(p, j): v for p, c in state.items() for j, v in c.coeffs.items()}


def test_the_oracle_counts_the_words():
    assert len(WORDS) == 134


def test_z_and_theta_operators_agree():
    disagree = []
    for parts in WORDS:
        nested = dict(nested_op_for_word(parts))
        op = zhu._op_for_word(parts)
        if op.coeffs != flat_op(nested):
            disagree.append(("Z", parts))
        if zhu.to_theta_basis(op).coeffs != flat_op(nested_eta_rewrite(nested, +1)):
            disagree.append(("Theta", parts))
    assert disagree == []


@pytest.mark.parametrize("sign", [+1, -1])
def test_eta_rewrite_agrees_on_the_other_basis(sign):
    # to_z_basis runs the same ring rewrite with the opposite sign.
    for parts in WORDS[:40]:
        nested = dict(nested_op_for_word(parts))
        op = zhu._op_for_word(parts)
        rewritten = (zhu.to_theta_basis(op) if sign > 0
                     else zhu.to_z_basis(zhu.DiffOp("Theta", op)))
        assert rewritten.basis == ("Theta" if sign > 0 else "Z")
        assert rewritten.coeffs == op.eta_rewrite(sign).coeffs
        assert rewritten.coeffs == flat_op(nested_eta_rewrite(nested, sign)), parts


def test_every_mode_image_agrees():
    disagree = []
    for parts in WORDS:
        w = sum(parts)
        for r in range(-2, w + 1):
            got = apply_mode(r, VirState.monomial(parts))
            if got.coeffs != flat_state(nested_apply_mode(r, {parts: ONE})):
                disagree.append((r, parts))
    assert disagree == []


def test_mode_on_partition_agrees_with_the_bubbled_word():
    # L_n on a PBW monomial, memoized on (n, partition), against the word
    # bubbling it replaced, for every partition of weight <= 10.
    disagree = [(n, parts) for w in range(11) for parts in partitions_of_weight(w)
                for n in range(-12, 13)
                if virasoro._normal_order_word(n, parts).coeffs
                != flat_state(dict(nested_normal_order_word((n,) + tuple(-k for k in parts))))]
    assert disagree == []


def test_normal_ordered_words_agree():
    for parts in WORDS:
        state = zhu._state_for_word(parts[::-1])
        assert state.coeffs == flat_state(dict(nested_state_for_word(parts[::-1]))), parts


def test_permuted_words_agree():
    perms = sorted({p for w in Invariance.WORDS for p in permutations(w)})
    assert len(perms) == 27
    disagree = [p for p in perms
                if zhu._op_for_word(p).coeffs != flat_op(dict(nested_op_for_word(p)))]
    assert disagree == []
