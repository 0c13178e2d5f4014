"""Truncated formal power series over exact rationals: the q-series engine.

Everything downstream (Eisenstein series, Virasoro descendants, sewing
matrices) reduces to arithmetic in one truncated series type, ``QSeries``:
a series in one or more variables (q; q1 and q2 jointly), with one
truncation order and one rational exponent offset per variable, so
prefactors like q^(1/24) or q1^(alpha^2/2) stay exact monomials.

A series in the sewing parameter eps is a ``QSeries`` whose first variable
is "eps": ("eps",) for rational coefficients, ("eps", "q1") or
("eps", "q1", "q2") for q-series coefficients.  Its eps^n coefficient is
``block(n)``, and it renders and serializes in the nested eps form.

No floating point anywhere: a ``QSeries`` holds integer numerators over one
denominator (``ring._Canonical``), and reads them back as ``Fraction``.
Every product runs on one kernel (``_schoolbook``); inverse, exp, log,
division and rational power run on one family of recurrences over the
blocks of the first variable (``_quotient_blocks``, ``_log_blocks``,
``_exp_blocks``).  The module also expands Eisenstein series, eta and the
monomials E2^a E4^b E6^c of the exact ring (``ring``), and recognizes a
q-series as a polynomial in them (``to_quasimodular``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add, gt, le, sub

from .ring import (
    EisensteinPoly,
    SeriesError,
    _Canonical,
    _lowest_terms,
    _new,
    _over_lcm,
    _scaled_nums,
    _setattr,
    _sum_nums,
    bernoulli,
    join_terms,
    monomial_str,
    quasimodular_monomials,
    rat,
    rat_str,
)


class NotQuasiModular(SeriesError):
    """Raised when a series is not in the stated weight-graded ring."""


def _power(base, n: int, one):
    # base**n for integer n >= 0 by repeated squaring, starting from ``one``;
    # no square beyond the top bit of n.
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _schoolbook(rows_a, rows_b, truncs):
    # The product of two numerator lists in rows (``_rows``), cut to the box
    # ``truncs``: the double loop over the last exponent, per pair of rows
    # whose other exponents add up inside the box.
    head_box, trunc = truncs[:-1], truncs[-1]
    out = {}
    for ha, row_a in rows_a.items():
        for hb, row_b in rows_b.items():
            head = tuple(map(add, ha, hb))
            if not all(map(le, head, head_box)):
                continue
            acc = out.setdefault(head, {})
            for m, x in row_a:
                for n, y in row_b:
                    k = m + n
                    if k <= trunc:
                        acc[k] = acc.get(k, 0) + x * y
    return {(*head, k): v for head, acc in out.items() for k, v in acc.items() if v}


def _rows(nums) -> dict:
    # {other exponents: [(last exponent, value)]}: the terms that share all
    # but their last exponent.
    rows = {}
    for e, v in nums.items():
        rows.setdefault(e[:-1], []).append((e[-1], v))
    return rows


def _origin(vars):
    # Exponent of the constant term, in the form the constructor takes.
    return 0 if isinstance(vars, str) else (0,) * len(vars)


class QSeries(_Canonical):
    """prod_i v_i^offset_i * sum_e c_e prod_i v_i^e_i, known for e_i <= trunc_i.

    A truncated series in one or more variables ``vars`` (tags such as "q",
    "q1", "q2", "z"); series with different variable tuples never mix.
    Exponents are tuples with one entry per variable, and each variable has
    its own truncation order and rational offset, so prefactors like
    q^(1/24) or q1^(alpha^2/2) stay exact monomials.  A ``str`` variable with
    int trunc, offset and exponents is shorthand for one variable; ``var``,
    ``trunc`` and ``offset`` read that case back.  Immutable after
    construction.  Addition aligns offsets when they differ by integers and
    refuses otherwise; multiplication adds offsets.

    The coefficients are canonical integer numerators over one denominator
    (see ``_Canonical``), so equal series are equal objects, and every ring
    operation runs in int arithmetic with one content gcd per result.

    A series whose first variable is "eps" is a series in the sewing
    parameter: it has no eps offset, a product is cut at the smaller eps
    order of its factors, its inverse needs an eps^0 block, and it renders
    and serializes in the nested eps form, one block per power of eps.
    """

    __slots__ = ("vars", "truncs", "offsets", "_parts", "_ords")

    def __init__(self, vars, coeffs=None, truncs=0, offsets=None):
        coeffs = coeffs or {}
        if isinstance(vars, str):
            vars, truncs = (vars,), (truncs,)
            offsets = None if offsets is None else (offsets,)
            coeffs = {(n,): c for n, c in coeffs.items()}
        vars, truncs = tuple(map(str, vars)), tuple(map(int, truncs))
        offsets = (Fraction(0),) * len(vars) if offsets is None else tuple(map(rat, offsets))
        if not vars or len(truncs) != len(vars) or len(offsets) != len(vars):
            raise SeriesError("need one truncation order and one offset per variable")
        if min(truncs) < 0:
            raise SeriesError("truncation order must be >= 0")
        if vars[0] == "eps" and offsets[0]:
            raise SeriesError("an eps-series carries no eps offset")
        clean = {}
        for e, c in coeffs.items():
            c = rat(c)
            if c == 0:
                continue
            if not all(isinstance(x, int) for x in e):
                raise SeriesError(f"exponent {e} is not integral")
            if len(e) != len(truncs) or not all(0 <= x <= t for x, t in zip(e, truncs)):
                raise SeriesError(f"exponent {e} outside the truncation box {truncs}")
            clean[e] = c
        self._init(vars, *_over_lcm(clean), truncs, offsets)

    def _init(self, vars, nums, den, truncs, offsets):
        _setattr(self, "vars", vars)
        _setattr(self, "nums", nums)
        _setattr(self, "den", den)
        _setattr(self, "truncs", truncs)
        _setattr(self, "offsets", offsets)
        _setattr(self, "_parts", None)
        _setattr(self, "_ords", None)

    @classmethod
    def _made(cls, vars, nums, den, truncs, offsets) -> "QSeries":
        # A result already in canonical form, with every exponent inside the
        # box, so the checks of __init__ are skipped.
        s = _new(cls)
        s._init(vars, nums, den, truncs, offsets)
        return s

    @classmethod
    def _reduced(cls, vars, nums, den, truncs, offsets) -> "QSeries":
        # A result with nonzero numerators inside the box, in lowest terms.
        return cls._made(vars, *_lowest_terms(nums, den), truncs, offsets)

    def _only(self, values):
        if len(values) != 1:
            raise SeriesError(f"series in {self.vars} has more than one variable")
        return values[0]

    var = property(lambda self: self._only(self.vars),
                   doc="The variable of a one-variable series.")
    trunc = property(lambda self: self._only(self.truncs),
                     doc="The truncation order of a one-variable series.")
    offset = property(lambda self: self._only(self.offsets),
                      doc="The offset of a one-variable series.")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, truncs, offsets=None) -> "QSeries":
        return cls(vars, {}, truncs, offsets)

    @classmethod
    def one(cls, vars, truncs) -> "QSeries":
        return cls(vars, {_origin(vars): 1}, truncs)

    @classmethod
    def const(cls, vars, c, truncs) -> "QSeries":
        return cls(vars, {_origin(vars): c}, truncs)

    @classmethod
    def gen(cls, var: str, trunc: int) -> "QSeries":
        """The variable itself, q + O(q^(trunc+1))."""
        if trunc < 1:
            raise SeriesError("gen needs trunc >= 1")
        return cls(var, {1: 1}, trunc)

    @classmethod
    def monomial(cls, var: str, exponent, trunc: int):
        """q^exponent with any rational exponent, carried in the offset."""
        return cls(var, {0: 1}, trunc, rat(exponent))

    # -- basic queries -----------------------------------------------------

    def coeff(self, *e: int) -> Fraction:
        """Mantissa coefficient of the monomial with exponents ``e`` (relative
        to the offset prefactor)."""
        if len(e) != len(self.vars) or not all(0 <= x <= t for x, t in zip(e, self.truncs)):
            raise SeriesError(f"coefficient {e} not known (truncs {self.truncs})")
        return Fraction(self.nums.get(e, 0), self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * len(self.vars), 0), self.den)

    def _ord_bounds(self):
        # Lowest exponent of each variable, found on first use; a zero
        # mantissa is O(v^(trunc+1)).
        if self._ords is None:
            object.__setattr__(self, "_ords", tuple(map(min, zip(*self.nums))) if self.nums
                               else tuple(t + 1 for t in self.truncs))
        return self._ords

    def _box(self, orders):
        # An int order stands for the same order in every variable.
        return (orders,) * len(self.vars) if isinstance(orders, int) else tuple(orders)

    # -- blocks: coefficients of the powers of the first variable -------------

    def _split(self) -> dict:
        # {first exponent n: the exponents of the terms of the v^n block},
        # built on first use.
        if self._parts is None:
            keys = {}
            for e in self.nums:
                keys.setdefault(e[0], []).append(e)
            object.__setattr__(self, "_parts", keys)
        return self._parts

    def _block(self, keys):
        if len(self.vars) == 1:
            return Fraction(sum(self.nums[e] for e in keys), self.den)
        return QSeries._reduced(self.vars[1:], {e[1:]: self.nums[e] for e in keys}, self.den,
                                self.truncs[1:], self.offsets[1:])

    def block(self, n: int):
        """The coefficient of v^n, v the first variable (eps^n of an
        eps-series): a Fraction for a one-variable series, else a series in
        the other variables."""
        if not 0 <= n <= self.truncs[0]:
            raise SeriesError(f"{self.vars[0]}^{n} not known (trunc {self.truncs[0]})")
        return self._block(self._split().get(n, ()))

    def block_zero(self):
        """The zero of the ring ``block`` maps to: Fraction 0 for a
        one-variable series, else the zero series in the other variables."""
        return self._block(())

    def blocks(self) -> dict:
        """{n: block(n)} for every nonzero block, in increasing n."""
        split = self._split()
        return {n: self._block(split[n]) for n in sorted(split)}

    @classmethod
    def from_blocks(cls, var: str, blocks, trunc: int) -> "QSeries":
        """sum_n blocks[n] var^n + O(var^(trunc+1)), the inverse of ``block``.

        All-rational blocks give a series in ``var`` alone.  Otherwise the
        blocks are series in one tuple of variables, which follow ``var``,
        and a rational block stands for a constant.
        """
        first = next((b for b in blocks.values() if isinstance(b, QSeries)), None)
        if first is None:
            return cls(var, blocks, trunc)
        vars, truncs = (var, *first.vars), (trunc, *first.truncs)
        out = cls.zero(vars, truncs, (0, *first.offsets))
        for n, b in blocks.items():
            if not isinstance(n, int) or not 0 <= n <= trunc:
                raise SeriesError(f"{var}^{n} outside [0, {trunc}]")
            if not isinstance(b, QSeries):
                b = cls.const(first.vars, b, first.truncs)
            out = out + cls._made((var, *b.vars), {(n, *e): v for e, v in b.nums.items()},
                                  b.den, (trunc, *b.truncs), (Fraction(0), *b.offsets))
        return out

    # -- representation hygiene --------------------------------------------

    def truncate(self, new_truncs) -> "QSeries":
        new_truncs = self._box(new_truncs)
        if any(map(gt, new_truncs, self.truncs)):
            raise SeriesError("cannot raise truncation order")
        return QSeries._reduced(self.vars, self._within(new_truncs), self.den, new_truncs,
                                self.offsets)

    def _within(self, truncs) -> dict:
        # The numerators inside the box ``truncs``.
        if truncs == self.truncs:
            return self.nums
        return {e: v for e, v in self.nums.items() if all(map(le, e, truncs))}

    def _shift(self, d) -> "QSeries":
        # Lower the offsets by integers d_i >= 0, absorbing them into the mantissa.
        if not any(d):
            return self
        return QSeries._made(self.vars, {tuple(map(add, e, d)): v for e, v in self.nums.items()},
                             self.den, tuple(map(add, self.truncs, d)),
                             tuple(map(sub, self.offsets, d)))

    def _aligned(self, other: "QSeries"):
        if self.offsets == other.offsets:
            return self, other
        ds = tuple(map(sub, self.offsets, other.offsets))
        if any(d.denominator != 1 for d in ds):
            raise SeriesError(
                f"cannot add series with offsets {self.offsets} and {other.offsets}")
        return (self._shift([max(int(d), 0) for d in ds]),
                other._shift([max(-int(d), 0) for d in ds]))

    def _check_var(self, other: "QSeries"):
        if self.vars != other.vars:
            raise SeriesError(f"variable mismatch: {self.vars} vs {other.vars}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.const(self.vars, other, self.truncs)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_var(other)
        a, b = self._aligned(other)
        truncs = tuple(map(min, a.truncs, b.truncs))
        for x, y in ((a, b), (b, a)):
            if not y.nums and x.truncs == truncs:
                return x
        return QSeries._made(a.vars, *_sum_nums(a._within(truncs), a.den,
                                                b._within(truncs), b.den), truncs, a.offsets)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._made(self.vars, {e: -v for e, v in self.nums.items()}, self.den,
                             self.truncs, self.offsets)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries._made(self.vars, *_scaled_nums(self.nums, self.den, other.numerator,
                                                          other.denominator),
                                 self.truncs, self.offsets)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_var(other)
        # Tightest sound truncation: the unknown tail of each factor enters
        # only above the other factor's lowest-order term, variable by variable.
        oa, ob = self._ord_bounds(), other._ord_bounds()
        truncs = tuple(min(ta + y, tb + x) for ta, tb, x, y in
                       zip(self.truncs, other.truncs, oa, ob))
        if self.vars[0] == "eps":
            # eps is cut at the smaller order of the factors: each eps-series
            # result is wanted at one working order, and blocks above it
            # would be computed only for the next sum to drop them.
            truncs = (min(self.truncs[0], other.truncs[0]), *truncs[1:])
        offsets = (self.offsets if not any(other.offsets) else
                   tuple(map(add, self.offsets, other.offsets)))
        if any(x + y > t for x, y, t in zip(oa, ob, truncs)):
            # Every term of the product lies outside the box.
            return QSeries._made(self.vars, {}, 1, truncs, offsets)
        # The kernel is the double loop over the last exponent, per pair of
        # rows inside the box.
        nums = _schoolbook(_rows(self.nums), _rows(other.nums), truncs)
        return QSeries._reduced(self.vars, nums, self.den * other.den, truncs, offsets)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SeriesError("use pow_rational for non-integer exponents")
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, QSeries.one(self.vars, self.truncs))

    def _unit_mantissa(self) -> "QSeries":
        # Pull the lowest power of each variable into the offsets.
        if not self.nums:
            raise SeriesError("non-unit constant term (series is zero)")
        d = self._ord_bounds()
        if not any(d):
            return self
        if self.vars[0] == "eps" and d[0]:
            raise SeriesError("non-unit constant term in eps series")
        return QSeries._made(self.vars, {tuple(map(sub, e, d)): v for e, v in self.nums.items()},
                             self.den, tuple(map(sub, self.truncs, d)),
                             tuple(map(add, self.offsets, d)))

    def inv(self) -> "QSeries":
        """Multiplicative inverse; the lowest power of each variable moves into
        the offsets, and what is left needs a nonzero constant term.

        With u that mantissa and u_0 its v^0 block, v the first variable,
        1/u = (1/u_0) / (u/u_0) by ``_quotient_blocks`` over the v-blocks
        (see ``block``); u_0 is a rational, or a series in the other
        variables inverted the same way.
        """
        m = self._unit_mantissa()
        if (0,) * len(m.vars) not in m.nums:
            raise SeriesError("non-unit constant term in inverse")
        u = QSeries._made(m.vars, m.nums, m.den, m.truncs, (Fraction(0),) * len(m.vars))
        blocks = u.blocks()
        inv0 = 1 / blocks[0] if len(u.vars) == 1 else blocks[0].inv()
        h = _quotient_blocks({0: inv0}, {n: b * inv0 for n, b in blocks.items() if n},
                             u.truncs[0], u.block_zero() + 1)
        s = QSeries.from_blocks(u.vars[0], h, u.truncs[0])
        return QSeries._made(s.vars, s.nums, s.den, s.truncs,
                             tuple(-o for o in m.offsets))

    def exp(self) -> "QSeries":
        """exp of a series with zero offsets and no term at v^0, v the first
        variable: g = exp(f) solves n g_n = sum_{k=1}^n k f_k g_(n-k) over
        the v-blocks (see ``block``)."""
        if any(self.offsets):
            raise SeriesError("exp requires zero offset")
        if any(e[0] == 0 for e in self.nums):
            raise SeriesError("exp requires zero constant term")
        return QSeries.from_blocks(self.vars[0], _exp_blocks(
            self.blocks(), self.truncs[0], self.block_zero() + 1), self.truncs[0])

    def log(self) -> "QSeries":
        """log of a series with zero offsets whose v^0 coefficient is exactly 1,
        v the first variable: ``_log_blocks`` over the v-blocks (see ``block``)."""
        self._check_unit_block("log")
        zero = self.block_zero()
        return QSeries.from_blocks(self.vars[0], {0: zero, **_log_blocks(
            self.blocks(), self.truncs[0], zero + 1)}, self.truncs[0])

    def _check_unit_block(self, what: str) -> None:
        first = {e: v for e, v in self.nums.items() if e[0] == 0}
        if any(self.offsets) or first != {(0,) * len(self.vars): self.den}:
            raise SeriesError(f"non-unit constant term: {what} requires constant term 1")

    def pow_rational(self, r) -> "QSeries":
        """Rational power of a one-variable series whose mantissa has constant
        term 1; the offset is multiplied by r.  The mantissa's power is
        exp(r log m) over its coefficients (``_log_blocks``, ``_exp_blocks``).
        """
        r = rat(r)
        if r.denominator == 1:
            return self ** int(r)
        m = self._unit_mantissa()
        offset = m.offset
        if m.constant_term() != 1:
            raise SeriesError("non-unit constant term: rational power needs constant term 1")
        log = _log_blocks(m.blocks(), m.trunc, Fraction(1))
        return QSeries(m.var, _exp_blocks({n: g * r for n, g in log.items()}, m.trunc,
                                          Fraction(1)), m.trunc, offset * r)

    def qd(self) -> "QSeries":
        """q d/dq of a one-variable series, acting on the offset too:
        q^a c_n q^n -> (n+a) q^a c_n q^n."""
        a = self.offset
        p, s = a.numerator, a.denominator
        return QSeries._reduced(self.vars, {e: w for e, v in self.nums.items()
                                            if (w := (e[0] * s + p) * v)},
                                self.den * s, self.truncs, self.offsets)

    # -- changing the variables ------------------------------------------------

    def embed(self, vars, truncs) -> "QSeries":
        """The same series in ``vars``, a tuple that contains its own variables.

        A new variable enters with offset 0 and the truncation order that
        ``truncs`` gives it; the entries of ``truncs`` at the series' own
        variables must equal their orders.
        """
        vars, truncs = tuple(vars), tuple(truncs)
        if (vars, truncs) == (self.vars, self.truncs):
            return self
        if not set(self.vars) <= set(vars) or len(truncs) != len(vars):
            raise SeriesError(f"cannot embed series in {self.vars} into {vars}")
        where = [vars.index(v) for v in self.vars]
        if any(truncs[i] != t for i, t in zip(where, self.truncs)):
            raise SeriesError(f"embedding would change the truncation orders {self.truncs}")

        def place(values, fill):
            out = [fill] * len(vars)
            for i, x in zip(where, values):
                out[i] = x
            return tuple(out)

        return QSeries._made(vars, {place(e, 0): v for e, v in self.nums.items()}, self.den,
                             truncs, place(self.offsets, Fraction(0)))

    def renamed(self, *vars: str) -> "QSeries":
        """The same series with its variables renamed to ``vars``, in order."""
        if vars == self.vars:
            return self
        if len(vars) != len(self.vars) or (vars[0] == "eps" and self.offsets[0]):
            raise SeriesError(f"cannot rename the variables {self.vars} to {vars}")
        return QSeries._made(vars, self.nums, self.den, self.truncs, self.offsets)

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.vars == other.vars and self.offsets == other.offsets
                and self.truncs == other.truncs and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.vars, self.offsets, self.truncs, self.den,
                     tuple(sorted(self.nums.items()))))

    def render(self, coeff_text) -> str:
        """The series as "(block)*v^n + ... + O(v^(trunc+1))" in its first
        variable v, with ``coeff_text(n, block)`` as the factor that renders
        the v^n block."""
        v = self.vars[0]
        parts = ["*".join(filter(None, (coeff_text(n, c), monomial_str((v, n)))))
                 for n, c in self.blocks().items()]
        return " + ".join((parts or ["0"]) + [f"O({v}^{self.truncs[0] + 1})"])

    def __str__(self):
        if self.vars[0] == "eps":
            return self.render(lambda n, c: f"({c})")
        coeffs = self.coeffs
        out = join_terms((coeffs[e], monomial_str(*zip(self.vars, e))) for e in sorted(coeffs))
        out += "".join(f" + O({v}^{t + 1})" for v, t in zip(self.vars, self.truncs))
        pre = "*".join(f"{v}^({rat_str(o)})" for v, o in zip(self.vars, self.offsets) if o)
        return f"{pre}*({out})" if pre else out

    def __repr__(self):
        return f"QSeries({self})"

    def to_json(self) -> dict:
        """README schema: the nested eps form for an eps-series, the
        univariate keys for one variable, else the multivariate keys with
        "m,n,..." exponents."""
        if self.vars[0] == "eps":
            return {"variable": "eps", "trunc": self.truncs[0],
                    "coeffs": {str(n): rat_str(c) if isinstance(c, Fraction) else c.to_json()
                               for n, c in self.blocks().items()}}
        coeffs = {",".join(map(str, e)): rat_str(c) for e, c in sorted(self.coeffs.items())}
        if len(self.vars) == 1:
            return {"variable": self.var, "offset": rat_str(self.offset),
                    "trunc": self.trunc, "coeffs": coeffs}
        return {"variables": list(self.vars), "offsets": [rat_str(o) for o in self.offsets],
                "truncs": list(self.truncs), "coeffs": coeffs}


def _log_blocks(u: dict, trunc: int, one) -> dict:
    """The nonzero blocks g_n, 0 < n <= trunc, of g = log(u), u = {n: nonzero u_n}
    with u_0 = ``one``, the unit of any ring: n g_n = n u_n - sum_{0<k<n} k g_k u_(n-k)."""
    zero = _unit_block(u, one)
    g, kg = {}, {}
    for n in range(1, trunc + 1):
        acc = zero
        for k, f in kg.items():
            if n - k in u:
                acc = acc + f * u[n - k]
        g_n = u.get(n, zero) - acc * Fraction(1, n)
        if g_n != zero:
            g[n], kg[n] = g_n, g_n * n
    return g


def _exp_blocks(f: dict, trunc: int, one) -> dict:
    """The nonzero blocks g_n, n <= trunc, of g = exp(f), f = {n > 0: f_n} in
    any ring with unit ``one``: n g_n = sum_{0<k<=n} k f_k g_(n-k)."""
    kf, zero, g = {k: v * k for k, v in f.items()}, one * 0, {0: one}
    for n in range(1, trunc + 1):
        if (acc := sum((v * g[n - k] for k, v in kf.items() if n - k in g), zero)) != zero:
            g[n] = acc * Fraction(1, n)
    return g


def _quotient_blocks(num: dict, u: dict, trunc: int, one) -> dict:
    """The nonzero blocks h_n, n <= trunc, of h = num / u, as in ``_log_blocks``
    (u_0 may be left out): h_n = num_n - sum_{k=1}^n u_k h_(n-k)."""
    zero = _unit_block(u, one)
    tail = {k: f for k, f in u.items() if k}
    h = {}
    for n in range(trunc + 1):
        acc = num.get(n, zero)
        for k, f in tail.items():
            if n - k in h:
                acc = acc - f * h[n - k]
        if acc != zero:
            h[n] = acc
    return h


def _unit_block(u: dict, one):
    # The ring's zero, after checking u_0: the recurrences never read it.
    if 0 in u and u[0] != one:
        raise ArithmeticError("block recurrence needs block 0 to be the unit")
    return one * 0


# ``perfbench/tracer.py`` resolves ``series.BiSeries.<method>`` and
# ``series.EpsSeries.<method>`` by name when it instruments the package; the
# two-variable series and the eps-series are QSeries now.
BiSeries = QSeries
EpsSeries = QSeries


# -- classical expansions ------------------------------------------------------


def eisenstein(k: int, trunc: int, var: str = "q") -> QSeries:
    """Normalized weight-k Eisenstein series -B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n.

    Odd k gives the zero series; k < 2 is rejected.  One table per (k,
    trunc) is built and memoized; each variable name reads it through
    ``QSeries.renamed``, which shares its numerators.
    """
    return _eisenstein_table(k, trunc).renamed(var)


@lru_cache(maxsize=None)
def _eisenstein_table(k: int, trunc: int) -> QSeries:
    if k < 2:
        raise ValueError("eisenstein needs k >= 2")
    if trunc < 0:
        raise SeriesError("truncation order must be >= 0")
    if k % 2 == 1:
        return QSeries.zero("q", trunc)
    coeffs = {0: -bernoulli(k) / factorial(k)}
    scale = Fraction(2, factorial(k - 1))
    for n in range(1, trunc + 1):
        m = n
        power = n ** (k - 1)
        while m <= trunc:
            coeffs[m] = coeffs.get(m, Fraction(0)) + scale * power
            m += n
    return QSeries("q", {n: c for n, c in coeffs.items() if c != 0}, trunc)


def eta_normalized(trunc: int, var: str = "q") -> QSeries:
    """Dedekind eta: the Euler product with the q^(1/24) prefactor as offset,
    built once per q-order and read per variable as ``eisenstein`` is."""
    if trunc < 0:
        raise SeriesError("truncation order must be >= 0")
    return _eta_product(trunc).renamed(var)


@lru_cache(maxsize=None)
def _eta_product(trunc: int) -> QSeries:
    prod = QSeries.one("q", trunc)
    for n in range(1, trunc + 1):
        prod = prod * QSeries("q", {0: 1, n: -1}, trunc)
    return QSeries._made(prod.vars, prod.nums, prod.den, prod.truncs, (Fraction(1, 24),))


def qd(s: QSeries) -> QSeries:
    """The differential operator q d/dq (offset included)."""
    return s.qd()


# -- expansion and recognition in Q[E2, E4, E6] --------------------------------


@lru_cache(maxsize=None)
def _monomial_qseries(mono: tuple, trunc: int) -> QSeries:
    # E2^a E4^b E6^c through q^trunc, one product per generator peeled off.
    a, b, c = mono
    if c:
        return _monomial_qseries((a, b, c - 1), trunc) * eisenstein(6, trunc)
    if b:
        return _monomial_qseries((a, b - 1, c), trunc) * eisenstein(4, trunc)
    if a:
        return _monomial_qseries((a - 1, b, c), trunc) * eisenstein(2, trunc)
    return QSeries.one("q", trunc)


class QuasiModularPoly(EisensteinPoly):
    """A fixed-weight polynomial in the graded-ring generators E2, E4, E6."""

    __slots__ = ("weight",)
    # Ring operations leave the fixed weight: their results are EisensteinPolys.
    _made = EisensteinPoly._made

    def __init__(self, weight: int, coeffs=None):
        super().__init__(coeffs)
        object.__setattr__(self, "weight", int(weight))
        for a, b, c in self.nums:
            if 2 * a + 4 * b + 6 * c != weight:
                raise SeriesError(f"monomial (E2^{a} E4^{b} E6^{c}) is not weight {weight}")

    def __eq__(self, other):
        if not isinstance(other, QuasiModularPoly):
            return NotImplemented
        return self.weight == other.weight and self._same(other)

    __hash__ = EisensteinPoly.__hash__
    # Bound here as well: ``perfbench/tracer.py`` wraps this method only in the
    # classes of the modules it instruments, and ``ring`` is not one of them.
    __str__ = EisensteinPoly.__str__

    def __repr__(self):
        return f"QuasiModularPoly(weight={self.weight}, {self})"


@lru_cache(maxsize=None)
def _quasimodular_solver(weight: int, trunc: int):
    """Row-reduce the weight-``weight`` basis expansions to q^trunc once.

    Gauss-Jordan on [B | I], where B[n][j] is the q^n coefficient of the
    j-th monomial, yields row operations E with E B = [I; 0].  Hence
    B x = s exactly when x = E[:k] s and E[k:] s = 0.  Returns the k
    solution rows and the trunc+1-k consistency rows of E, each as a tuple
    of integer numerators indexed by q-power and their common denominator.
    The rows do not depend on the variable name.
    """
    monos = quasimodular_monomials(weight)
    k, size = len(monos), trunc + 1
    expansions = [_monomial_qseries(m, trunc) for m in monos]
    m = [[e.coeff(n) for e in expansions] + [Fraction(int(i == n)) for i in range(size)]
         for n in range(size)]
    for col in range(k):
        piv = next((i for i in range(col, size) if m[i][col] != 0), None)
        if piv is None:
            raise ArithmeticError("rank-deficient quasi-modular basis (internal error)")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(size):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    rows = []
    for row in m:
        r = QSeries("q", dict(enumerate(row[k:])), trunc)
        rows.append((tuple(r.nums.get((n,), 0) for n in range(size)), r.den))
    return tuple(rows[:k]), tuple(rows[k:])


def to_quasimodular(s: QSeries, weight: int) -> QuasiModularPoly:
    """Express a series exactly in the weight-graded basis {E2^a E4^b E6^c}.

    Applies the elimination cached per (weight, q-order) by
    ``_quasimodular_solver`` and fails loudly when no exact solution exists
    within the supplied truncation.  With k monomials of this weight the
    series must carry at least k+1 coefficients, so that at least one
    equation checks the solution: a square system would "recognize" any
    series.
    """
    monos = quasimodular_monomials(weight)
    if s.offset != 0:
        if s.is_zero():
            return QuasiModularPoly(weight)
        raise NotQuasiModular(
            f"not quasi-modular of weight {weight} within truncation: fractional offset")
    if not monos:
        if s.is_zero():
            return QuasiModularPoly(weight)
        raise NotQuasiModular(
            f"not quasi-modular of weight {weight} within truncation: empty basis")
    if s.trunc + 1 <= len(monos):
        raise SeriesError(
            f"insufficient q-order: need at least {len(monos) + 1} coefficients "
            f"for weight {weight}, have {s.trunc + 1}")
    solution, consistency = _quasimodular_solver(weight, s.trunc)

    def dot(row):
        return sum(row[0][n] * v for (n,), v in s.nums.items())

    if any(dot(row) for row in consistency):
        raise NotQuasiModular(
            f"not quasi-modular of weight {weight} within truncation")
    return QuasiModularPoly(weight, {mono: Fraction(dot(row), row[1] * s.den)
                                     for mono, row in zip(monos, solution)})
