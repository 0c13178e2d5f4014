"""Exact rationals as integer numerators, and the rings Q[E2, E4, E6] and
Q[D, C, E2, E4, E6].

The canonical form of every exact object (``_Canonical``) and its helpers,
the record bases, rendering helpers, Bernoulli numbers, ``EisensteinPoly``
with ``eisenstein_poly``, and the operator ring ``OperatorPoly`` of the Zhu
operators and the pinched closed form.  Nothing here builds a q-series: a
command that reads polynomials only, such as ``verify structure``, never
compiles the q-series engine (``series``), which ``EisensteinPoly.to_qseries``
loads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import add
from types import MappingProxyType


class SeriesError(ValueError):
    """Raised on invalid series operations (bad offsets, non-units, ...)."""


def rat(x) -> Fraction:
    """Coerce an int / string / Fraction to an exact Fraction.

    Floats are rejected: the core is exact by contract.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def rat_str(x: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q'."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def join_terms(terms) -> str:
    """Render (coefficient, monomial) pairs as one signed sum.

    A bare monomial stands for coefficient 1 and "-monomial" for -1; an
    empty monomial renders the bare coefficient.  Negative terms after the
    first fold into " - ".  No terms renders "0".
    """
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


def monomial_str(*powers) -> str:
    """Render (variable, exponent) pairs as a "*"-joined monomial: "v" for
    exponent 1, "v^n" above, nothing for exponent 0."""
    return "*".join(v if n == 1 else f"{v}^{n}" for v, n in powers if n)


def parenthesize(text: str) -> str:
    """Wrap a rendered sum or negative term in parentheses for use as a factor."""
    if " + " in text or " - " in text or text.startswith("-"):
        return f"({text})"
    return text


_new, _setattr = object.__new__, object.__setattr__


def _lowest_terms(nums: dict, den: int):
    # Nonzero numerators over den != 0 divided by their content
    # gcd(den, *nums), signed so that den > 0.
    if den == 1:
        return nums, den
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        nums = {k: v // g for k, v in nums.items()}
        den //= g
    return nums, den


def _over_lcm(values: dict):
    # Nonzero reduced fractions (or ints) over the lcm of their denominators,
    # which is already canonical.
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _sum_nums(na: dict, da: int, nb: dict, db: int):
    # na/da + nb/db over lcm(da, db), in lowest terms.
    den = lcm(da, db)
    sa, sb = den // da, den // db
    if len(nb) > len(na):
        # Copy the larger side and loop over the smaller one.
        na, sa, nb, sb = nb, sb, na, sa
    out = dict(na) if sa == 1 else {k: v * sa for k, v in na.items()}
    for k, v in nb.items():
        v = v * sb + out.get(k, 0)
        if v:
            out[k] = v
        else:
            del out[k]
    return _lowest_terms(out, den)


def _sum_terms(pieces):
    # The sum of pieces (den, p, items): the int p times the (key, int
    # numerator) items over den.  One pass over the lcm of the dens and one
    # content gcd; the items are read once that lcm is known, so may be lazy.
    pieces = list(pieces)
    den = lcm(*(d for d, _, _ in pieces))
    out = {}
    get = out.get
    for d, p, items in pieces:
        m = p * (den // d)
        for k, v in items:
            out[k] = get(k, 0) + v * m
    return _lowest_terms({k: v for k, v in out.items() if v}, den)


def _scaled_nums(nums: dict, den: int, p: int, r: int):
    # nums/den times p/r, for coprime ints with r > 0.  Canonical without a
    # pass over the result: gcd(den, p) and gcd(r, *nums) are all that cancel.
    if not p:
        return {}, 1
    gp = gcd(den, p)
    gr = gcd(r, *nums.values()) if r != 1 else 1
    p //= gp
    nums = ({k: v * p for k, v in nums.items()} if gr == 1
            else {k: v // gr * p for k, v in nums.items()})
    return nums, den // gp * (r // gr)


class _Canonical:
    """Exact rational coefficients as integer numerators ``nums`` (key ->
    int) over one denominator ``den`` (the layout of FLINT's fmpq_poly), in
    canonical form: den > 0, gcd(den, *nums) == 1 and no zero numerator, so
    equal values are equal objects.  Immutable; ``coeffs`` is a read-only
    ``Fraction`` view, built on first use.  The base of ``QSeries`` and
    ``RationalPoly``, whose ring operations keep the form with
    ``_lowest_terms``, ``_sum_nums`` and ``_scaled_nums``.
    """

    __slots__ = ("nums", "den", "_view")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self):
        """Read-only view {key: Fraction} of the coefficients."""
        try:
            return self._view
        except AttributeError:
            den = self.den
            _setattr(self, "_view", MappingProxyType(
                {k: Fraction(v, den) for k, v in self.nums.items()}))
            return self._view

    def is_zero(self) -> bool:
        return not self.nums

    def _same(self, other) -> bool:
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))


class _Fields:
    """The fields named in ``_fields``, set by ``__init__`` in that order;
    equal by value, with a field-by-field repr."""

    _fields = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class _Record(_Fields):
    """Immutable ``_Fields``, hashed by value."""

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._values())


# -- Bernoulli numbers ---------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_coefficient(n: int) -> Fraction:
    # [z^n] z/(e^z - 1) = B_n/n!, from the inverse's recurrence for
    # (e^z - 1)/z = sum z^j/(j+1)! over the cached coefficients below n.
    if n == 0:
        return Fraction(1)
    return -sum(_bernoulli_coefficient(n - j) / factorial(j + 1) for j in range(1, n + 1))


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number from the generating function z/(e^z - 1).

    Every k reads one cached table of coefficients, filled in rising order
    (so the recursion stays one level deep) only as far as k.
    """
    if k < 0:
        raise ValueError("bernoulli needs k >= 0")
    for n in range(k + 1):
        c = _bernoulli_coefficient(n)
    return c * factorial(k)

# -- quasi-modular graded ring -------------------------------------------------


def quasimodular_monomials(weight: int):
    """Exponent triples (a, b, c) with 2a + 4b + 6c = weight, E2^a E4^b E6^c."""
    if weight < 0 or weight % 2:
        return []
    out = []
    for a in range(weight // 2, -1, -1):
        rem4 = weight - 2 * a
        for b in range(rem4 // 4, -1, -1):
            rem6 = rem4 - 4 * b
            if rem6 % 6 == 0:
                out.append((a, b, rem6 // 6))
    return out


def symbolic_factor(poly, weight: int, s) -> str:
    """A weight-``weight`` coefficient as a factor in rendered output: its
    polynomial ``poly`` in E2, E4, E6 when the q-expansion ``s`` has a
    coefficient to spare over the weight's monomials (as recognition would
    need), the raw series otherwise; parenthesized."""
    legible = poly.weights() == {weight} and s.trunc >= len(quasimodular_monomials(weight))
    return parenthesize(str(poly) if legible else str(s))


class RationalPoly(_Canonical):
    """A sparse polynomial over the rationals, stored like ``QSeries``
    (see ``_Canonical``).

    Sums, products and rational scalars run in int arithmetic with one
    content gcd per result, made by ``_made`` without the checks of the
    public constructor (which rejects floats).  Each direct subclass is a
    ring of its own (``_ring``, also for its subclasses), keyed by exponent
    tuples: it renders its monomials (``_monomial_str``), and its elements
    mix with no other ring's.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if RationalPoly in cls.__bases__:
            cls._ring = cls

    def __init__(self, coeffs=None):
        values = {k: v if isinstance(v, int) else rat(v) for k, v in (coeffs or {}).items()}
        nums, den = _over_lcm({k: v for k, v in values.items() if v})
        _setattr(self, "nums", nums)
        _setattr(self, "den", den)

    @classmethod
    def _made(cls, nums, den):
        # Canonical numerators over den, so the checks of __init__ are skipped.
        p = _new(cls)
        _setattr(p, "nums", nums)
        _setattr(p, "den", den)
        return p

    @staticmethod
    def _mul_nums(na, nb) -> dict:
        out = {}
        for k, v in na.items():
            for x, w in nb.items():
                key = tuple(map(add, k, x))
                out[key] = out.get(key, 0) + v * w
        return {k: v for k, v in out.items() if v}

    def __eq__(self, other):
        if not isinstance(other, self._ring):
            return NotImplemented
        return self._same(other)

    __hash__ = _Canonical.__hash__

    def __add__(self, other):
        if not isinstance(other, self._ring):
            return NotImplemented
        return self._ring._made(*_sum_nums(self.nums, self.den, other.nums, other.den))

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def _scaled(self, p: int, r: int = 1):
        # Times p/r for coprime ints with r > 0.
        return self._ring._made(*_scaled_nums(self.nums, self.den, p, r))

    def __mul__(self, other):
        if isinstance(other, self._ring):
            return self._ring._made(*_lowest_terms(self._mul_nums(self.nums, other.nums),
                                                   self.den * other.den))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._scaled(other.numerator, other.denominator)

    def __str__(self):
        coeffs = self.coeffs
        return join_terms((coeffs[k], self._monomial_str(k)) for k in sorted(coeffs, reverse=True))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class EisensteinPoly(RationalPoly):
    """An exact polynomial in the graded-ring generators E2, E4, E6.

    ``coeffs`` maps exponent triples (a, b, c) to the rational coefficient
    of E2^a E4^b E6^c.  Monomials of different weights may mix: the Zhu
    recursion builds these polynomials, and the structure suite checks
    their weights rather than assuming them.  ``qd`` applies Ramanujan's
    derivatives, so the ring is closed under q d/dq.
    """

    __slots__ = ()

    @classmethod
    def const(cls, c) -> "EisensteinPoly":
        return cls({(0, 0, 0): c})

    def weights(self) -> set:
        """The weights 2a + 4b + 6c of the monomials present."""
        return {2 * a + 4 * b + 6 * c for a, b, c in self.nums}

    def qd(self) -> "EisensteinPoly":
        """q d/dq by Ramanujan's derivatives (see ``_ramanujan``)."""
        return self._made(*_sum_terms([(7 * self.den, 1, _ramanujan_items(self.nums))]))

    def to_qseries(self, trunc: int, var: str = "q") -> QSeries:
        """The q-expansion through q^trunc, summed in ints from the shared
        table of monomial expansions (``series._monomial_qseries``); the
        q-series engine loads on the first call."""
        from .series import QSeries, _monomial_qseries
        one = _monomial_qseries((0, 0, 0), trunc)
        terms = [(_monomial_qseries(m, trunc), v) for m, v in self.nums.items()]
        return QSeries._made(one.vars, *_sum_terms(
            (s.den * self.den, v, s.nums.items()) for s, v in terms),
            one.truncs, one.offsets).renamed(var)

    @staticmethod
    def _monomial_str(k) -> str:
        return monomial_str(*zip(("E2", "E4", "E6"), k))


def _ramanujan(a: int, b: int, c: int) -> list:
    """7 qd(E2^a E4^b E6^c) as (monomial, int) pairs, by qd E2 = 5E4 - E2^2,
    qd E4 = -4E2E4 + 14E6 and qd E6 = -6E2E6 + (60/7)E4^2 (this module's
    normalization of E_k)."""
    out = [((a + 1, b, c), -7 * (a + 4 * b + 6 * c))]
    if a:
        out.append(((a - 1, b + 1, c), 35 * a))
    if b:
        out.append(((a, b - 1, c + 1), 98 * b))
    if c:
        out.append(((a, b + 2, c - 1), 60 * c))
    return out


def _ramanujan_items(nums: dict):
    # 7 qd of the E2^a E4^b E6^c that ends each key (``_ramanujan``), as
    # (key, int numerator) items.
    return ((k[:-3] + m, v * w) for k, v in nums.items() for m, w in _ramanujan(*k[-3:]))


@lru_cache(maxsize=None)
def eisenstein_poly(k: int) -> EisensteinPoly:
    """E_k as a polynomial in E4 and E6 (E2 itself for k = 2; zero for odd k).

    For k = 2n >= 8 the recurrence
    (2n+1)(n-3)(2n-1) E_2n = 3 sum_{p+q=n; p,q>=2} (2p-1)(2q-1) E_2p E_2q
    holds in this module's normalization of E_k.
    """
    if k < 2:
        raise ValueError("eisenstein needs k >= 2")
    if k % 2:
        return EisensteinPoly()
    if k <= 6:
        return EisensteinPoly({{2: (1, 0, 0), 4: (0, 1, 0), 6: (0, 0, 1)}[k]: 1})
    n = k // 2
    total = EisensteinPoly()
    for p in range(2, n - 1):
        q = n - p
        total = total + eisenstein_poly(2 * p) * eisenstein_poly(2 * q) * ((2 * p - 1) * (2 * q - 1))
    d = (2 * n + 1) * (n - 3) * (2 * n - 1)
    return total._scaled(3 // gcd(3, d), d // gcd(3, d))


# -- the operator ring ---------------------------------------------------------


class OperatorPoly(RationalPoly):
    """Q[D, C, E2, E4, E6], keyed (i, j, a, b, c) for D^i C^j E2^a E4^b E6^c:
    the operator sum c_ij C^j qd^i, coefficients to the left of D = qd.

    Sums and products are those of the polynomials (the pinched closed
    form's exp is taken so); qd o op is ``_qd_pieces``, and ``part``, ``at``
    and ``eta_rewrite`` filter the keys, evaluate, and move through eta^(-C).
    """

    __slots__ = ()
    _monomial_str = staticmethod(lambda k: monomial_str(*zip(("D", "C", "E2", "E4", "E6"), k)))

    def _qd_pieces(self) -> list:
        # qd o self as two pieces of one ``_sum_terms``, by the Leibniz rule:
        # D times self, and Ramanujan's qd of its coefficients.
        nums, den = self.nums, self.den
        return [(den, 1, (((i + 1, j, a, b, c), v) for (i, j, a, b, c), v in nums.items())),
                (7 * den, 1, _ramanujan_items(nums))]

    def part(self, i: int | None = None, j: int | None = None) -> "OperatorPoly":
        """The terms of D^i and of C^j (either may be left open), by their keys."""
        return OperatorPoly._made(*_lowest_terms(
            {k: v for k, v in self.nums.items() if i in (None, k[0]) and j in (None, k[1])},
            self.den))

    def at(self, r, a) -> EisensteinPoly:
        """The polynomial in E2, E4, E6 at C = r and D = a, for rationals r
        and a: the operator applied to q^a (qd q^a = a q^a), over q^a."""
        (u, t), (p, s) = (rat(x).as_integer_ratio() for x in (r, a))
        top_i, top_j = (max((k[x] for k in self.nums), default=0) for x in (0, 1))
        d = [p ** i * s ** (top_i - i) for i in range(top_i + 1)]  # D^i over s^top_i
        c = [u ** j * t ** (top_j - j) for j in range(top_j + 1)]  # C^j over t^top_j
        return EisensteinPoly._made(*_sum_terms([(self.den * s ** top_i * t ** top_j, 1, (
            (k[2:], v * f) for k, v in self.nums.items() if (f := d[k[0]] * c[k[1]])))]))

    def coefficients(self) -> dict:
        """(i, j) -> c_ij as an ``EisensteinPoly``, for every nonzero c_ij."""
        out = {}
        for (i, j, a, b, c), v in self.nums.items():
            out.setdefault((i, j), {})[a, b, c] = v
        return {key: EisensteinPoly._made(*_lowest_terms(nums, self.den))
                for key, nums in out.items()}

    def max_derivative(self) -> int:
        return max((k[0] for k in self.nums), default=0)

    def c_degree(self, i: int) -> int:
        """Highest C power among the D^i coefficients (-1 if absent)."""
        return max((k[1] for k in self.nums if k[0] == i), default=-1)

    def eta_rewrite(self, sign: int) -> "OperatorPoly":
        """sum c_ij C^j P_i for self = sum c_ij C^j D^i, where
        qd^i (eta^(-sign C) X) = eta^(-sign C) P_i X (``_eta_power``): sign +1
        moves an operator on Z onto the eta^C-normalized base, -1 back."""
        return OperatorPoly._made(*_sum_terms(
            (p.den * c.den, 1, _times(p.nums, c.nums, j))
            for (i, j), c in self.coefficients().items() for p in (_eta_power(sign, i),)))


def _times(nums: dict, factor: dict, dj: int):
    # The items of operator numerators nums times C^dj and E2/E4/E6 numerators factor.
    for (x, y, z), f in factor.items():
        for (i, j, a, b, c), v in nums.items():
            yield (i, j + dj, a + x, b + y, c + z), v * f


@lru_cache(maxsize=None)
def _eta_power(sign: int, i: int) -> OperatorPoly:
    """P_0 = 1, P_(i+1) = qd o P_i + sign (C/2) E2 P_i, as qd eta = -(E2/2) eta:
    memoized, so every eta rewrite reads one table per sign."""
    if not i:
        return OperatorPoly._made({(0, 0, 0, 0, 0): 1}, 1)
    p = _eta_power(sign, i - 1)
    return OperatorPoly._made(*_sum_terms(
        p._qd_pieces() + [(2 * p.den, sign, _times(p.nums, {(1, 0, 0): 1}, 1))]))
