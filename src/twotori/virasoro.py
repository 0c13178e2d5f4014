"""The Virasoro vacuum module over a symbolic central charge.

States are finite sums of PBW monomials L_{-k1}...L_{-km}|0> with k1 >= ...
>= km >= 2 (the vacuum kills L_{-1} and L_0), and coefficients polynomial in
the central charge.  Normal ordering is the bracket

    [L_m, L_n] = (m - n) L_{m+n} + C (m^3 - m)/12 delta_{m,-n}

applied until every word is a PBW representative.  The module also builds
the conformal-map data: the generator coefficients of exp-map form
(``alpha_coefficients``), its factorization into single-generator maps
(``beta_coefficients``), and the vacuum vector they generate
(``lambda_vector`` and its independent cross-check ``lambda_vector_direct``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from types import MappingProxyType

from .ring import (
    RationalPoly,
    _Canonical,
    _lowest_terms,
    _new,
    _setattr,
    _sum_nums,
    _sum_terms,
    monomial_str,
    rat,
)


def check_partition(parts) -> tuple:
    """Validate a PBW partition: weakly decreasing, every part >= 2."""
    parts = tuple(int(p) for p in parts)
    for i, p in enumerate(parts):
        if p < 2:
            raise ValueError(f"partition part {p} < 2 not allowed in the vacuum module")
        if i and parts[i - 1] < p:
            raise ValueError(f"partition {parts} is not weakly decreasing")
    return parts


def partition_weight(parts) -> int:
    return sum(parts)


def partitions_of_weight(n: int):
    """All PBW partitions of weight n (parts >= 2, weakly decreasing)."""
    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 1, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest
    return list(gen(n, n)) if n >= 0 else []


class CPoly(RationalPoly):
    """Polynomial in the central charge with exact rational coefficients,
    keyed by the power of C."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        if coeffs is not None and not hasattr(coeffs, "items"):
            coeffs = {0: coeffs}
        if any(j < 0 for j in coeffs or ()):
            raise ValueError("negative C-degree")
        super().__init__({int(j): c for j, c in (coeffs or {}).items()})

    def degree(self) -> int:
        return max(self.nums) if self.nums else -1

    @staticmethod
    def _mul_nums(na, nb) -> dict:
        out = {}
        for j1, v1 in na.items():
            for j2, v2 in nb.items():
                out[j1 + j2] = out.get(j1 + j2, 0) + v1 * v2
        return {j: v for j, v in out.items() if v}

    def __add__(self, other):
        return super().__add__(other if isinstance(other, CPoly) else CPoly(other))

    __radd__ = __add__
    __rmul__ = RationalPoly.__mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CPoly(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        return self._same(other)

    __hash__ = RationalPoly.__hash__

    def eval_at(self, c_value) -> Fraction:
        p, r = rat(c_value).as_integer_ratio()
        d = max(self.degree(), 0)
        return Fraction(sum(v * p ** j * r ** (d - j) for j, v in self.nums.items()),
                        self.den * r ** d)

    @staticmethod
    def _monomial_str(j) -> str:
        return monomial_str(("C", j))


class VirState(_Canonical):
    """A finite C-polynomial combination of PBW vacuum monomials.

    Stored flat (see ``_Canonical``): ``nums`` maps (partition, j) to the
    integer numerator of the coefficient of C^j times the PBW monomial, over
    one denominator ``den``; ``coeff(partition)`` reads one coefficient back
    as a ``CPoly``.  ``nums`` is read-only, since the normal-ordering and
    word caches share one instance between callers.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        pieces = []
        for parts, coeff in (terms or {}).items():
            if not isinstance(coeff, CPoly):
                coeff = CPoly(coeff)
            if not coeff.is_zero():
                parts = check_partition(parts)
                pieces.append((coeff.den, 1, [((parts, j), v) for j, v in coeff.nums.items()]))
        self._init(*_sum_terms(pieces))

    def _init(self, nums, den):
        _setattr(self, "nums", MappingProxyType(nums))
        _setattr(self, "den", den)

    @classmethod
    def _made(cls, nums, den) -> "VirState":
        # Canonical numerators keyed by PBW partitions, so the checks of
        # __init__ are skipped.
        v = _new(cls)
        v._init(nums, den)
        return v

    @classmethod
    def vacuum(cls) -> "VirState":
        return cls._made({((), 0): 1}, 1)

    @classmethod
    def monomial(cls, parts, coeff=1) -> "VirState":
        return cls({tuple(parts): coeff})

    def coeff(self, parts) -> CPoly:
        parts = tuple(parts)
        return CPoly._made(*_lowest_terms(
            {j: v for (p, j), v in self.nums.items() if p == parts}, self.den))

    def _where(self, keep) -> "VirState":
        # The terms whose partition passes keep.
        return VirState._made(*_lowest_terms(
            {k: v for k, v in self.nums.items() if keep(k[0])}, self.den))

    def weight_component(self, n: int) -> "VirState":
        return self._where(lambda p: partition_weight(p) == n)

    def truncate_weight(self, max_weight: int) -> "VirState":
        return self._where(lambda p: partition_weight(p) <= max_weight)

    def __add__(self, other):
        return VirState._made(*_sum_nums(self.nums, self.den, other.nums, other.den))

    def __neg__(self):
        return VirState._made({k: -v for k, v in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        p = scalar if isinstance(scalar, CPoly) else CPoly(scalar)
        return VirState._made(*_sum_terms((self.den * p.den, c, _c_times(self.nums, j))
                                          for j, c in p.nums.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VirState):
            return NotImplemented
        return self._same(other)

    __hash__ = _Canonical.__hash__

    def _coeffs_in_order(self):
        # (partition, CPoly) by weight, then partition, from one pass over nums.
        slices = {}
        for (p, j), v in self.nums.items():
            slices.setdefault(p, {})[j] = v
        for p in sorted(slices, key=lambda p: (partition_weight(p), p)):
            yield p, CPoly._made(*_lowest_terms(slices[p], self.den))

    def __str__(self):
        parts = [f"({c}) * {'*'.join(f'L[-{k}]' for k in p) or 'vacuum'}"
                 for p, c in self._coeffs_in_order()]
        return "  +  ".join(parts) or "0"

    def to_json(self) -> list:
        return [{"partition": list(p), "coeff": str(c)} for p, c in self._coeffs_in_order()]


# -- normal ordering -----------------------------------------------------------


def _c_times(nums, dj: int):
    # The items of a state's numerators times C^dj.
    return (((parts, j + dj), v) for (parts, j), v in nums.items())


@lru_cache(maxsize=None)
def _normal_order_word(word: tuple) -> VirState:
    """PBW-order a word of Virasoro modes applied to the vacuum.

    ``word`` lists mode indices left to right, the rightmost acting first.
    The vacuum is killed by every L_r with r >= -1, and inversions are
    bubbled with the bracket, so the recursion strictly shrinks (shorter
    words or fewer inversions).  Each bubbling step is one sum over integer
    numerators.
    """
    if not word:
        return VirState.vacuum()
    if word[-1] >= -1:
        return VirState()
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a > b:
            swapped = _normal_order_word(word[:i] + (b, a) + word[i + 2:])
            merged = _normal_order_word(word[:i] + (a + b,) + word[i + 2:])
            pieces = [(swapped.den, 1, swapped.nums.items()),
                      (merged.den, a - b, merged.nums.items())]
            if a + b == 0 and a > 1:
                g = gcd(a ** 3 - a, 12)
                short = _normal_order_word(word[:i] + word[i + 2:])
                pieces.append((short.den * (12 // g), (a ** 3 - a) // g, _c_times(short.nums, 1)))
            return VirState._made(*_sum_terms(pieces))
    # non-decreasing and ending <= -2 means every mode is <= -2: PBW form
    return VirState._made({(tuple(-m for m in word), 0): 1}, 1)


def apply_mode(n: int, v: VirState) -> VirState:
    """Normal-order L_n acting on a PBW state, in one sum over integer
    numerators."""
    pieces = []
    for (parts, j), s in v.nums.items():
        w = _normal_order_word((n,) + tuple(-k for k in parts))
        pieces.append((w.den * v.den, s, _c_times(w.nums, j)))
    return VirState._made(*_sum_terms(pieces))


# -- the exponential conformal map ----------------------------------------------


def _exp_derivation(coeffs: dict, trunc: int) -> QSeries:
    """exp(sum_i a_i z^(i+1) d/dz) applied to z, truncated at z^trunc."""
    from .series import QSeries
    z = QSeries.gen("z", trunc)

    def derive(f: QSeries) -> QSeries:
        # d/dz loses one known order; the z^(i+1) factors (i >= 1) regain it
        df = QSeries("z", {n - 1: n * c for (n,), c in f.coeffs.items() if n >= 1},
                     max(f.trunc - 1, 0))
        out = QSeries.zero("z", trunc)
        for i, a in coeffs.items():
            out = out + QSeries("z", {i + 1: a}, trunc) * df
        return out.truncate(trunc)

    total = z
    term = z
    for j in range(1, trunc + 1):
        term = derive(term) * Fraction(1, j)
        if term.is_zero():
            break
        total = total + term
    return total


def exp_minus_one(trunc: int) -> QSeries:
    """The exponential map e^z - 1 as a z-series."""
    from .series import QSeries
    return QSeries("z", {n: Fraction(1, factorial(n)) for n in range(1, trunc + 1)},
                   trunc)


@lru_cache(maxsize=None)
def alpha_coefficients(max_i: int) -> tuple:
    """Generator coefficients a_1..a_max with exp(sum a_i z^(i+1) d/dz) z = e^z - 1.

    Solved order by order: a_i enters the z^(i+1) coefficient linearly with
    unit weight, everything else depends on earlier a_j only.
    """
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    trunc = max_i + 1
    target = exp_minus_one(trunc)
    known = {}
    for i in range(1, max_i + 1):
        got = _exp_derivation(known, trunc)
        known[i] = target.coeff(i + 1) - got.coeff(i + 1)
    if _exp_derivation(known, trunc) != target:
        raise ArithmeticError("generator coefficients do not reproduce e^z - 1")
    return tuple(known[i] for i in range(1, max_i + 1))


def _w_map(k: int, beta, trunc: int) -> QSeries:
    """z (1 + k b z^k)^(-1/k), the inverse of the single-generator conformal
    map exp(b z^(k+1) d/dz) z = z (1 - k b z^k)^(-1/k)."""
    from .series import QSeries
    body = QSeries("z", {0: 1, k: k * rat(beta)}, trunc)
    return QSeries.gen("z", trunc) * body.pow_rational(Fraction(-1, k))


@lru_cache(maxsize=None)
def beta_coefficients(max_k: int) -> tuple:
    """Peel the exponential map into single-generator maps; returns items (k, beta_k)
    for even k = 2..max_k.

    g_1 = w_1^{-1} o phi, then repeatedly beta_k = [z^(k+1)] g_{k-1} and
    g_k = w_k^{-1} o g_{k-1}.  Odd beta_k (k >= 3) must vanish; a nonzero one
    is an internal consistency failure and raises.
    """
    if max_k < 2:
        raise ValueError("max_k must be >= 2")
    trunc = max_k + 1
    phi = exp_minus_one(trunc)
    beta1 = phi.coeff(2)
    if beta1 != Fraction(1, 2):
        raise ArithmeticError(f"map coefficient beta_1 = {beta1} != 1/2")
    g = _w_map(1, beta1, trunc).compose(phi)
    out = []
    for k in range(2, max_k + 1):
        bk = g.coeff(k + 1)
        if k % 2 == 1:
            if bk != 0:
                raise ArithmeticError(f"odd map coefficient beta_{k} = {bk} != 0")
            continue
        out.append((k, bk))
        g = _w_map(k, bk, trunc).compose(g)
    return tuple(out)


def lambda_vector(max_weight: int) -> list:
    """Weight components of the ordered product ... exp(b6 L_{-6}) exp(b4 L_{-4})
    exp(b2 L_{-2}) |0>, truncated by weight.

    The product form is automatically PBW-ordered because larger modes are
    prepended on the left.  Returns [w0, w1, ..., w_max]; odd weights are zero.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    betas = dict(beta_coefficients(max_weight)) if max_weight >= 2 else {}
    state = {(): Fraction(1)}
    for k in range(2, max_weight + 1, 2):
        bk = betas[k]
        new = dict(state)
        for parts, coeff in state.items():
            wt = partition_weight(parts)
            j = 1
            power = Fraction(1)
            while wt + j * k <= max_weight:
                power *= bk / j
                new_parts = (k,) * j + parts
                c = coeff * power
                new[new_parts] = new.get(new_parts, Fraction(0)) + c
                j += 1
        state = new
    components = [VirState() for _ in range(max_weight + 1)]
    by_weight = {}
    for parts, coeff in state.items():
        by_weight.setdefault(partition_weight(parts), {})[parts] = coeff
    for n, terms in by_weight.items():
        components[n] = VirState(terms)
    return components


def lambda_vector_direct(max_weight: int) -> list:
    """Independent construction: exp(sum_i a_i L_{-i}) |0> by weight-truncated
    exponential series and normal ordering."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    alphas = alpha_coefficients(max_weight) if max_weight >= 1 else ()

    def apply_x(v: VirState) -> VirState:
        out = VirState()
        for i, a in enumerate(alphas, start=1):
            out = out + apply_mode(-i, v) * a
        return out.truncate_weight(max_weight)

    total = VirState.vacuum()
    term = VirState.vacuum()
    for j in range(1, max_weight + 1):
        term = apply_x(term) * Fraction(1, j)
        if term.is_zero():
            break
        total = total + term
    return [total.weight_component(n) for n in range(max_weight + 1)]
