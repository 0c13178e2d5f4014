"""Truncated formal power series over exact rationals.

Everything downstream (Eisenstein series, Virasoro descendants, sewing
matrices) reduces to arithmetic in three series rings:

* ``QSeries``  -- univariate, with an optional rational exponent offset so
  prefactors like q^(1/24) or q^(alpha^2/2) stay exact monomials;
* ``BiSeries`` -- joint (q1, q2) expansions;
* ``EpsSeries`` -- series in the sewing parameter, whose coefficients live in
  one of the rings above (or are plain rationals).

No floating point anywhere: coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm


class SeriesError(ValueError):
    """Raised on invalid series operations (bad offsets, non-units, ...)."""


class NotQuasiModular(SeriesError):
    """Raised when a series is not in the stated weight-graded ring."""


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


def parenthesize(text: str) -> str:
    """Wrap a rendered sum or negative term in parentheses for use as a factor."""
    if " + " in text or " - " in text or text.startswith("-"):
        return f"({text})"
    return text


def _power(base, n: int, one):
    # base**n for integer n >= 0 by repeated squaring, starting from ``one``.
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _int_parts(coeffs):
    # Common-denominator integer form of a coefficient dict; lets products
    # run in int arithmetic with a single Fraction normalization per key.
    den = 1
    for c in coeffs.values():
        den = lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


def _kronecker_pack(ints, S: int, rows: int, nbytes: int) -> int:
    # One signed int holding numerator (m, n) in the nbytes-wide slot m*S + n.
    zero = bytes(nbytes)
    pos, neg = [zero] * (rows * S), [zero] * (rows * S)
    for (m, n), v in ints.items():
        if v > 0:
            pos[m * S + n] = v.to_bytes(nbytes, "little")
        else:
            neg[m * S + n] = (-v).to_bytes(nbytes, "little")
    return (int.from_bytes(b"".join(pos), "little")
            - int.from_bytes(b"".join(neg), "little"))


def _kronecker_mul(na, nb, truncs):
    """Product of two (m, n) -> int numerator dicts, cut to the box ``truncs``.

    Kronecker substitution (Harvey, J. Symb. Comput. 44, 2009): each factor
    becomes one bigint with numerator (m, n) in a W-bit slot at m*S + n
    (W = 8 * nbytes), so a single bigint product does the convolution.  S exceeds the largest n of
    the product, so no row wraps into the next; 2^(W-1) exceeds every
    product coefficient in absolute value, so adding 2^(W-1) to every slot
    makes all slots non-negative and lets them be read without borrows.
    """
    if not na or not nb:
        return {}
    ma, sa = map(max, zip(*na))
    mb, sb = map(max, zip(*nb))
    S = sa + sb + 1
    bound = (max(map(abs, na.values())) * max(map(abs, nb.values()))
             * min(len(na), len(nb)))
    nbytes = bound.bit_length() // 8 + 1
    product = (_kronecker_pack(na, S, ma + 1, nbytes)
               * _kronecker_pack(nb, S, mb + 1, nbytes))
    rows = min(truncs[0], ma + mb) + 1
    cols = min(truncs[1], S - 1) + 1
    nslots = (rows - 1) * S + cols
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * nslots, "little")
    buf = ((product + bias) & ((1 << (8 * nbytes * nslots)) - 1)).to_bytes(
        nbytes * nslots, "little")
    acc = {}
    for m in range(rows):
        for n in range(cols):
            j = (m * S + n) * nbytes
            v = int.from_bytes(buf[j:j + nbytes], "little") - half
            if v:
                acc[(m, n)] = v
    return acc


class QSeries:
    """q^offset * (c_0 + c_1 q + ... + c_T q^T), known modulo q^(offset+T+1).

    Immutable after construction.  ``var`` tags the formal variable (one of
    "q", "q1", "q2", "z", "eps"); series with different tags never mix.
    Addition aligns offsets when they differ by an integer and refuses
    otherwise; multiplication adds offsets.
    """

    __slots__ = ("var", "offset", "trunc", "coeffs")

    def __init__(self, var: str, coeffs=None, trunc: int = 0, offset=0):
        if trunc < 0:
            raise SeriesError("truncation order must be >= 0")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "offset", rat(offset))
        object.__setattr__(self, "trunc", int(trunc))
        clean = {}
        for n, c in (coeffs or {}).items():
            c = rat(c)
            if c == 0:
                continue
            n = int(n)
            if n < 0 or n > trunc:
                raise SeriesError(f"exponent {n} outside [0, {trunc}]")
            clean[n] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str, trunc: int, offset=0) -> "QSeries":
        return cls(var, {}, trunc, offset)

    @classmethod
    def one(cls, var: str, trunc: int) -> "QSeries":
        return cls(var, {0: 1}, trunc)

    @classmethod
    def const(cls, var: str, c, trunc: int) -> "QSeries":
        return cls(var, {0: rat(c)}, trunc)

    @classmethod
    def gen(cls, var: str, trunc: int) -> "QSeries":
        """The variable itself, q + O(q^(trunc+1))."""
        if trunc < 1:
            raise SeriesError("gen needs trunc >= 1")
        return cls(var, {1: 1}, trunc)

    @classmethod
    def monomial(cls, var: str, exponent, trunc: int):
        """q^exponent with any rational exponent, carried in the offset."""
        return cls(var, {0: 1}, trunc, offset=rat(exponent))

    # -- basic queries -----------------------------------------------------

    def coeff(self, n: int) -> Fraction:
        """Mantissa coefficient of q^n (relative to the offset prefactor)."""
        if n < 0 or n > self.trunc:
            raise SeriesError(f"coefficient q^{n} not known (trunc {self.trunc})")
        return self.coeffs.get(n, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self):
        """Lowest mantissa exponent with nonzero coefficient, or None."""
        return min(self.coeffs) if self.coeffs else None

    def _ord_bound(self) -> int:
        # A zero mantissa is O(q^(trunc+1)).
        return min(self.coeffs) if self.coeffs else self.trunc + 1

    # -- representation hygiene --------------------------------------------

    def truncate(self, new_trunc: int) -> "QSeries":
        if new_trunc > self.trunc:
            raise SeriesError("cannot raise truncation order")
        return QSeries(self.var, {n: c for n, c in self.coeffs.items() if n <= new_trunc},
                       new_trunc, self.offset)

    def _shift_into_coeffs(self, d: int) -> "QSeries":
        # Lower the offset by integer d >= 0, absorbing q^d into the mantissa.
        if d == 0:
            return self
        return QSeries(self.var, {n + d: c for n, c in self.coeffs.items()},
                       self.trunc + d, self.offset - d)

    def with_offset(self, new_offset) -> "QSeries":
        """Re-express with the given offset; difference must be an integer."""
        d = self.offset - rat(new_offset)
        if d.denominator != 1:
            raise SeriesError("offsets differ by a non-integer")
        d = int(d)
        if d >= 0:
            return self._shift_into_coeffs(d)
        # Raising the offset only works when low coefficients vanish.
        up = -d
        if any(n < up for n in self.coeffs):
            raise SeriesError("cannot raise offset past nonzero coefficients")
        if self.trunc < up:
            raise SeriesError("truncation too small to raise offset")
        return QSeries(self.var, {n - up: c for n, c in self.coeffs.items()},
                       self.trunc - up, self.offset + up)

    def _aligned(self, other: "QSeries"):
        if self.offset == other.offset:
            return self, other
        d = self.offset - other.offset
        if d.denominator != 1:
            raise SeriesError(
                f"cannot add series with offsets {self.offset} and {other.offset}")
        if d > 0:
            return self._shift_into_coeffs(int(d)), other
        return self, other._shift_into_coeffs(int(-d))

    def _check_var(self, other: "QSeries"):
        if self.var != other.var:
            raise SeriesError(f"variable mismatch: {self.var} vs {other.var}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.const(self.var, other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_var(other)
        a, b = self._aligned(other)
        trunc = min(a.trunc, b.trunc)
        out = dict(a.coeffs)
        for n, c in b.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + c
        return QSeries(a.var, {n: c for n, c in out.items() if n <= trunc}, trunc, a.offset)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.var, {n: -c for n, c in self.coeffs.items()},
                       self.trunc, self.offset)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.const(self.var, other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = rat(other)
            return QSeries(self.var, {n: c * r for n, c in self.coeffs.items()},
                           self.trunc, self.offset)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_var(other)
        # Tightest sound truncation: the unknown tail of each factor enters
        # only above the other factor's lowest-order term.
        trunc = min(self.trunc + other._ord_bound(), other.trunc + self._ord_bound())
        na, da = _int_parts(self.coeffs)
        nb, db = _int_parts(other.coeffs)
        acc = {}
        for m, x in na.items():
            for n, y in nb.items():
                k = m + n
                if k <= trunc:
                    acc[k] = acc.get(k, 0) + x * y
        den = da * db
        return QSeries(self.var, {k: Fraction(v, den) for k, v in acc.items()},
                       trunc, self.offset + other.offset)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SeriesError("use pow_rational for non-integer exponents")
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, QSeries.one(self.var, self.trunc))

    def _unit_mantissa(self) -> "QSeries":
        # Pull the lowest power into the offset so the mantissa is a unit.
        v = self.order()
        if v is None:
            raise SeriesError("non-unit constant term (series is zero)")
        return QSeries(self.var, {n - v: c for n, c in self.coeffs.items()},
                       self.trunc - v, self.offset + v)

    def inv(self) -> "QSeries":
        """Multiplicative inverse; lowest power moves into the offset."""
        u = self._unit_mantissa()
        a0 = u.coeffs[0]
        T = u.trunc
        b = [Fraction(1) / a0]
        for n in range(1, T + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                ak = u.coeffs.get(k)
                if ak is not None:
                    s += ak * b[n - k]
            b.append(-s / a0)
        return QSeries(self.var, dict(enumerate(b)), T, -u.offset)

    def exp(self) -> "QSeries":
        """exp of a series with zero constant term and zero offset."""
        if self.offset != 0:
            raise SeriesError("exp requires zero offset")
        if self.constant_term() != 0:
            raise SeriesError("exp requires zero constant term")
        result = QSeries.one(self.var, self.trunc)
        term = QSeries.one(self.var, self.trunc)
        for j in range(1, self.trunc + 1):
            term = term * self * Fraction(1, j)
            if term.is_zero():
                break
            result = result + term
        return result

    def log(self) -> "QSeries":
        """log of a series with constant term exactly 1 and zero offset."""
        if self.offset != 0 or self.constant_term() != 1:
            raise SeriesError("non-unit constant term: log requires constant term 1")
        x = self - 1
        result = QSeries.zero(self.var, self.trunc)
        term = QSeries.one(self.var, self.trunc)
        for j in range(1, self.trunc + 1):
            term = term * x
            if term.is_zero():
                break
            result = result + term * Fraction((-1) ** (j + 1), j)
        return result

    def pow_rational(self, r) -> "QSeries":
        """Rational power via exp(r*log); mantissa constant term must be 1."""
        r = rat(r)
        if r.denominator == 1:
            return self ** int(r)
        u = self._unit_mantissa()
        if u.constant_term() != 1:
            raise SeriesError("non-unit constant term: rational power needs constant term 1")
        mant = (QSeries(self.var, u.coeffs, u.trunc).log() * r).exp()
        return QSeries(self.var, mant.coeffs, mant.trunc, u.offset * r)

    def qd(self) -> "QSeries":
        """q d/dq, acting on the offset too: q^a c_n q^n -> (n+a) q^a c_n q^n."""
        return QSeries(self.var,
                       {n: (n + self.offset) * c for n, c in self.coeffs.items()},
                       self.trunc, self.offset)

    # -- composition ---------------------------------------------------------

    def compose(self, g: "QSeries") -> "QSeries":
        """f(g) for g with zero constant term and zero offset."""
        self._check_var(g)
        if self.offset != 0:
            raise SeriesError("composition requires zero offset on the outer series")
        if g.offset != 0 or g.constant_term() != 0:
            raise SeriesError("composition requires g(0)=0")
        trunc = min(self.trunc, g.trunc)
        result = QSeries.zero(self.var, trunc)
        for n in range(self.trunc, -1, -1):
            result = result * g
            c = self.coeffs.get(n)
            if c is not None:
                result = result + c
        return result.truncate(trunc)

    def revert(self) -> "QSeries":
        """Compositional inverse of f = z + O(z^2).

        Solves f(g) = z coefficient by coefficient; changing the z^n
        coefficient of g only affects f(g) at orders >= n, so a single
        upward sweep determines g.
        """
        if self.offset != 0 or self.constant_term() != 0 or self.coeff(min(1, self.trunc)) != 1:
            raise SeriesError("leading coefficient must be 1 at degree 1")
        T = self.trunc
        g = QSeries.gen(self.var, T)
        for n in range(2, T + 1):
            c = self.compose(g).coeff(n)
            if c != 0:
                g = g + QSeries(self.var, {n: -c}, T)
        return g

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.var == other.var and self.offset == other.offset
                and self.trunc == other.trunc and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.var, self.offset, self.trunc,
                     tuple(sorted(self.coeffs.items()))))

    def agrees_with(self, other: "QSeries", through: int | None = None) -> bool:
        """Exact agreement of the known parts (offset-aligned).

        ``through`` demands agreement through that mantissa order and raises
        if either side is not known that far.
        """
        self._check_var(other)
        try:
            a, b = self._aligned(other)
        except SeriesError:
            return False
        upto = min(a.trunc, b.trunc)
        if through is not None:
            if upto < through:
                raise SeriesError(f"series only known to order {upto}, need {through}")
            upto = through
        return all(a.coeffs.get(n, 0) == b.coeffs.get(n, 0) for n in range(upto + 1))

    def __str__(self):
        mant = self._mantissa_str()
        if self.offset == 0:
            return mant
        return f"{self.var}^({rat_str(self.offset)})*({mant})"

    def _mantissa_str(self):
        v = self.var
        out = join_terms((self.coeffs[n], "" if n == 0 else v if n == 1 else f"{v}^{n}")
                         for n in sorted(self.coeffs))
        return f"{out} + O({v}^{self.trunc + 1})"

    def __repr__(self):
        return f"QSeries({self})"

    def to_json(self) -> dict:
        return {
            "variable": self.var,
            "offset": rat_str(self.offset),
            "trunc": self.trunc,
            "coeffs": {str(n): rat_str(self.coeffs[n]) for n in sorted(self.coeffs)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QSeries":
        return cls(obj["variable"],
                   {int(n): Fraction(c) for n, c in obj["coeffs"].items()},
                   int(obj["trunc"]), Fraction(obj["offset"]))


class BiSeries:
    """Joint truncated expansion in two variables with per-variable offsets."""

    __slots__ = ("vars", "offsets", "truncs", "coeffs")

    def __init__(self, vars=("q1", "q2"), coeffs=None, truncs=(0, 0), offsets=(0, 0)):
        object.__setattr__(self, "vars", (str(vars[0]), str(vars[1])))
        object.__setattr__(self, "offsets", (rat(offsets[0]), rat(offsets[1])))
        truncs = (int(truncs[0]), int(truncs[1]))
        if truncs[0] < 0 or truncs[1] < 0:
            raise SeriesError("truncation orders must be >= 0")
        object.__setattr__(self, "truncs", truncs)
        clean = {}
        for (m, n), c in (coeffs or {}).items():
            c = rat(c)
            if c == 0:
                continue
            if not (0 <= m <= truncs[0] and 0 <= n <= truncs[1]):
                raise SeriesError(f"exponent pair ({m},{n}) outside truncation box")
            clean[(int(m), int(n))] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def one(cls, vars, truncs) -> "BiSeries":
        return cls(vars, {(0, 0): 1}, truncs)

    @classmethod
    def from_qseries(cls, s: QSeries, slot: int, other_var: str, other_trunc: int) -> "BiSeries":
        """Embed a univariate series as variable ``slot`` (0 or 1)."""
        if slot == 0:
            coeffs = {(n, 0): c for n, c in s.coeffs.items()}
            return cls((s.var, other_var), coeffs, (s.trunc, other_trunc), (s.offset, 0))
        coeffs = {(0, n): c for n, c in s.coeffs.items()}
        return cls((other_var, s.var), coeffs, (other_trunc, s.trunc), (0, s.offset))

    def coeff(self, m: int, n: int) -> Fraction:
        return self.coeffs.get((m, n), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _ord_bounds(self):
        if not self.coeffs:
            return self.truncs[0] + 1, self.truncs[1] + 1
        return (min(m for m, _ in self.coeffs), min(n for _, n in self.coeffs))

    def _check_compat(self, other: "BiSeries"):
        if self.vars != other.vars:
            raise SeriesError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _shift_into_coeffs(self, d0: int, d1: int) -> "BiSeries":
        if d0 == 0 and d1 == 0:
            return self
        return BiSeries(self.vars,
                        {(m + d0, n + d1): c for (m, n), c in self.coeffs.items()},
                        (self.truncs[0] + d0, self.truncs[1] + d1),
                        (self.offsets[0] - d0, self.offsets[1] - d1))

    def _aligned(self, other: "BiSeries"):
        if self.offsets == other.offsets:
            return self, other
        ds = [self.offsets[i] - other.offsets[i] for i in (0, 1)]
        if any(d.denominator != 1 for d in ds):
            raise SeriesError("cannot add bivariate series with incompatible offsets")
        a_sh = [max(int(d), 0) for d in ds]
        b_sh = [max(-int(d), 0) for d in ds]
        return self._shift_into_coeffs(*a_sh), other._shift_into_coeffs(*b_sh)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries(self.vars, {(0, 0): rat(other)}, self.truncs)
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check_compat(other)
        a, b = self._aligned(other)
        truncs = (min(a.truncs[0], b.truncs[0]), min(a.truncs[1], b.truncs[1]))
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        out = {k: c for k, c in out.items() if k[0] <= truncs[0] and k[1] <= truncs[1]}
        return BiSeries(a.vars, out, truncs, a.offsets)

    __radd__ = __add__

    def __neg__(self):
        return BiSeries(self.vars, {k: -c for k, c in self.coeffs.items()},
                        self.truncs, self.offsets)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries(self.vars, {(0, 0): rat(other)}, self.truncs)
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = rat(other)
            return BiSeries(self.vars, {k: c * r for k, c in self.coeffs.items()},
                            self.truncs, self.offsets)
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check_compat(other)
        oa, ob = self._ord_bounds(), other._ord_bounds()
        truncs = (min(self.truncs[0] + ob[0], other.truncs[0] + oa[0]),
                  min(self.truncs[1] + ob[1], other.truncs[1] + oa[1]))
        na, da = _int_parts(self.coeffs)
        nb, db = _int_parts(other.coeffs)
        acc = _kronecker_mul(na, nb, truncs)
        den = da * db
        return BiSeries(self.vars, {k: Fraction(v, den) for k, v in acc.items()},
                        truncs, (self.offsets[0] + other.offsets[0],
                                 self.offsets[1] + other.offsets[1]))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise SeriesError("bivariate series take integer exponents only")
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, BiSeries.one(self.vars, self.truncs))

    def inv(self) -> "BiSeries":
        """Inverse of a series whose (0,0) mantissa coefficient is a unit.

        Pure monomial prefactors are pulled into the offsets first; 1/(1+x)
        is the geometric series, which terminates inside the truncation box.
        """
        if not self.coeffs:
            raise SeriesError("non-unit constant term (series is zero)")
        d0, d1 = self._ord_bounds()
        u = BiSeries(self.vars,
                     {(m - d0, n - d1): c for (m, n), c in self.coeffs.items()},
                     (self.truncs[0] - d0, self.truncs[1] - d1),
                     (self.offsets[0] + d0, self.offsets[1] + d1))
        if (0, 0) not in u.coeffs:
            raise SeriesError("non-unit constant term in bivariate inverse")
        c0 = u.coeffs[(0, 0)]
        x = BiSeries(u.vars, {k: c for k, c in u.coeffs.items() if k != (0, 0)},
                     u.truncs) * (Fraction(1) / c0)
        result = BiSeries.one(u.vars, u.truncs)
        term = BiSeries.one(u.vars, u.truncs)
        sign = 1
        for _ in range(u.truncs[0] + u.truncs[1]):
            term = term * x
            sign = -sign
            if term.is_zero():
                break
            result = result + term * sign
        inv_offsets = (-u.offsets[0], -u.offsets[1])
        return BiSeries(u.vars, (result * (Fraction(1) / c0)).coeffs, result.truncs,
                        inv_offsets)

    def set_second_to_zero(self) -> QSeries:
        """Constant-term slice in the second variable (its offset must be 0)."""
        if self.offsets[1] != 0:
            raise SeriesError("cannot take q2 -> 0 with a nonzero q2 offset")
        coeffs = {m: c for (m, n), c in self.coeffs.items() if n == 0}
        return QSeries(self.vars[0], coeffs, self.truncs[0], self.offsets[0])

    def agrees_with(self, other: "BiSeries", through=None) -> bool:
        self._check_compat(other)
        try:
            a, b = self._aligned(other)
        except SeriesError:
            return False
        box = (min(a.truncs[0], b.truncs[0]), min(a.truncs[1], b.truncs[1]))
        if through is not None:
            if box[0] < through[0] or box[1] < through[1]:
                raise SeriesError(f"bivariate series only known to {box}, need {through}")
            box = through
        keys = set(a.coeffs) | set(b.coeffs)
        return all(a.coeffs.get(k, 0) == b.coeffs.get(k, 0)
                   for k in keys if k[0] <= box[0] and k[1] <= box[1])

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.vars == other.vars and self.offsets == other.offsets
                and self.truncs == other.truncs and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, self.offsets, self.truncs,
                     tuple(sorted(self.coeffs.items()))))

    def __str__(self):
        v1, v2 = self.vars

        def body(m, n):
            factors = []
            if m:
                factors.append(v1 if m == 1 else f"{v1}^{m}")
            if n:
                factors.append(v2 if n == 1 else f"{v2}^{n}")
            return "*".join(factors)

        out = join_terms((self.coeffs[k], body(*k)) for k in sorted(self.coeffs))
        out += f" + O({v1}^{self.truncs[0] + 1}) + O({v2}^{self.truncs[1] + 1})"
        pre = []
        if self.offsets[0] != 0:
            pre.append(f"{v1}^({rat_str(self.offsets[0])})")
        if self.offsets[1] != 0:
            pre.append(f"{v2}^({rat_str(self.offsets[1])})")
        if pre:
            return "*".join(pre) + f"*({out})"
        return out

    def __repr__(self):
        return f"BiSeries({self})"

    def to_json(self) -> dict:
        return {
            "variables": list(self.vars),
            "offsets": [rat_str(o) for o in self.offsets],
            "truncs": list(self.truncs),
            "coeffs": {f"{m},{n}": rat_str(self.coeffs[(m, n)])
                       for (m, n) in sorted(self.coeffs)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BiSeries":
        coeffs = {}
        for key, c in obj["coeffs"].items():
            m, n = key.split(",")
            coeffs[(int(m), int(n))] = Fraction(c)
        return cls(tuple(obj["variables"]), coeffs, tuple(obj["truncs"]),
                   tuple(Fraction(o) for o in obj["offsets"]))


# -- coefficient-ring helpers for EpsSeries ------------------------------------

def coeff_is_zero(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


def coeff_one_like(c):
    """Multiplicative identity of the ring a sample coefficient lives in."""
    if isinstance(c, (int, Fraction)):
        return Fraction(1)
    if isinstance(c, QSeries):
        return QSeries.one(c.var, c.trunc)
    if isinstance(c, BiSeries):
        return BiSeries.one(c.vars, c.truncs)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def coeff_inv(c):
    if isinstance(c, (int, Fraction)):
        if c == 0:
            raise SeriesError("non-unit constant term")
        return Fraction(1) / Fraction(c)
    return c.inv()


class EpsSeries:
    """Truncated series in the sewing parameter eps, over nested coefficients.

    Keys are integer powers of eps; the series is known through
    eps^trunc.  Coefficients are Fraction, QSeries or BiSeries and are
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
                c = Fraction(c)
            if coeff_is_zero(c):
                continue
            n = int(n)
            if n < 0 or n > trunc:
                raise SeriesError(f"eps power {n} outside [0, {trunc}]")
            clean[n] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("EpsSeries is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "EpsSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int, like=None) -> "EpsSeries":
        c = Fraction(1) if like is None else coeff_one_like(like)
        return cls({0: c}, trunc)

    # -- queries -------------------------------------------------------------

    def coeff_eps(self, n: int):
        if n < 0 or n > self.trunc:
            raise SeriesError(f"eps^{n} not known (trunc {self.trunc})")
        return self.coeffs.get(n, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_even(self) -> bool:
        """True when every nonzero coefficient sits at an even power of eps."""
        return all(n % 2 == 0 for n in self.coeffs)

    def _ord_bound(self) -> int:
        return min(self.coeffs) if self.coeffs else self.trunc + 1

    def _sample(self):
        for c in self.coeffs.values():
            if not isinstance(c, (int, Fraction)):
                return c
        return Fraction(1)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = {n: c for n, c in self.coeffs.items() if n <= trunc}
        for n, c in other.coeffs.items():
            if n <= trunc:
                out[n] = out[n] + c if n in out else c
        return EpsSeries(out, trunc)

    def __neg__(self):
        return EpsSeries({n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, EpsSeries):
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
            return EpsSeries(out, trunc)
        # anything else scales every coefficient
        return EpsSeries({n: c * other for n, c in self.coeffs.items()}, self.trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, EpsSeries.one(self.trunc, like=self._sample()))

    def times_eps(self) -> "EpsSeries":
        """Multiply by the exact monomial eps."""
        return EpsSeries({n + 1: c for n, c in self.coeffs.items()}, self.trunc + 1)

    def exp(self) -> "EpsSeries":
        """exp of a series with no eps^0 term."""
        if 0 in self.coeffs:
            raise SeriesError("exp requires zero constant term in eps")
        one = EpsSeries.one(self.trunc, like=self._sample())
        result = one
        term = one
        ord_ = self._ord_bound()
        if ord_ > self.trunc:
            return result
        for j in range(1, self.trunc // ord_ + 1):
            term = term * self * Fraction(1, j)
            if term.is_zero():
                break
            result = result + term
        return result

    def inv(self) -> "EpsSeries":
        """Inverse when the eps^0 coefficient is a unit of its ring."""
        c0 = self.coeffs.get(0)
        if c0 is None:
            raise SeriesError("non-unit constant term in eps series")
        c0_inv = coeff_inv(c0)
        x = EpsSeries({n: c * c0_inv for n, c in self.coeffs.items() if n != 0},
                      self.trunc)
        result = EpsSeries.one(self.trunc, like=self._sample())
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

    def truncate(self, new_trunc: int) -> "EpsSeries":
        if new_trunc > self.trunc:
            raise SeriesError("cannot raise truncation order")
        return EpsSeries({n: c for n, c in self.coeffs.items() if n <= new_trunc},
                         new_trunc)

    def map_coeffs(self, fn) -> "EpsSeries":
        return EpsSeries({n: fn(c) for n, c in self.coeffs.items()}, self.trunc)

    # -- comparison / rendering --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def agrees_with(self, other: "EpsSeries", through_eps: int | None = None,
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
            a = self.coeffs.get(n)
            b = other.coeffs.get(n)
            if a is None and b is None:
                continue
            if a is None or b is None:
                z, c = (b, a) if b is None else (a, b)
                if isinstance(c, (int, Fraction)):
                    if c != 0:
                        return False
                elif not c.is_zero():
                    return False
                continue
            if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
                if a != b:
                    return False
            elif isinstance(a, (int, Fraction)) or isinstance(b, (int, Fraction)):
                s = b if isinstance(a, (int, Fraction)) else a
                v = a if isinstance(a, (int, Fraction)) else b
                const = QSeries.const(s.var, v, s.trunc) if isinstance(s, QSeries) \
                    else BiSeries(s.vars, {(0, 0): rat(v)}, s.truncs)
                if not s.agrees_with(const, q_through):
                    return False
            else:
                if not a.agrees_with(b, q_through):
                    return False
        return True

    def __str__(self):
        parts = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            cs = rat_str(c) if isinstance(c, (int, Fraction)) else str(c)
            if n == 0:
                parts.append(f"({cs})")
            else:
                power = "eps" if n == 1 else f"eps^{n}"
                parts.append(f"({cs})*{power}")
        if not parts:
            parts = ["0"]
        return " + ".join(parts + [f"O(eps^{self.trunc + 1})"])

    def __repr__(self):
        return f"EpsSeries({self})"

    def to_json(self) -> dict:
        """Nested-series JSON with variable tag "eps"."""
        coeffs = {}
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            coeffs[str(n)] = rat_str(c) if isinstance(c, (int, Fraction)) else c.to_json()
        return {"variable": "eps", "trunc": self.trunc, "coeffs": coeffs}

    @classmethod
    def from_json(cls, obj: dict) -> "EpsSeries":
        coeffs = {}
        for n, c in obj["coeffs"].items():
            if isinstance(c, str):
                val = Fraction(c)
            elif "variables" in c:
                val = BiSeries.from_json(c)
            else:
                val = QSeries.from_json(c)
            coeffs[int(n)] = val
        return cls(coeffs, int(obj["trunc"]))


# -- Bernoulli numbers and classical expansions -------------------------------


@lru_cache(maxsize=None)
def _bernoulli_table(kmax: int):
    # Invert (e^z - 1)/z = sum z^j/(j+1)! exactly; B_k = k! [z^k].
    g = QSeries("z", {j: Fraction(1, factorial(j + 1)) for j in range(kmax + 1)}, kmax)
    inv = g.inv()
    return tuple(inv.coeff(k) * factorial(k) for k in range(kmax + 1))


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number from the generating function z/(e^z - 1)."""
    if k < 0:
        raise ValueError("bernoulli needs k >= 0")
    return _bernoulli_table(max(k, 4))[k]


@lru_cache(maxsize=None)
def eisenstein(k: int, trunc: int, var: str = "q") -> QSeries:
    """Normalized weight-k Eisenstein series -B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n.

    Odd k gives the zero series; k < 2 is rejected.  Memoized: the result
    is immutable, so callers share one instance per argument tuple.
    """
    if k < 2:
        raise ValueError("eisenstein needs k >= 2")
    if trunc < 0:
        raise SeriesError("truncation order must be >= 0")
    if k % 2 == 1:
        return QSeries.zero(var, trunc)
    coeffs = {0: -bernoulli(k) / factorial(k)}
    scale = Fraction(2, factorial(k - 1))
    for n in range(1, trunc + 1):
        m = n
        power = n ** (k - 1)
        while m <= trunc:
            coeffs[m] = coeffs.get(m, Fraction(0)) + scale * power
            m += n
    return QSeries(var, {n: c for n, c in coeffs.items() if c != 0}, trunc)


def eta_normalized(trunc: int, var: str = "q") -> QSeries:
    """Dedekind eta: the Euler product with the q^(1/24) prefactor as offset."""
    if trunc < 0:
        raise SeriesError("truncation order must be >= 0")
    prod = QSeries.one(var, trunc)
    for n in range(1, trunc + 1):
        prod = prod * QSeries(var, {0: 1, n: -1}, trunc)
    return QSeries(var, prod.coeffs, trunc, offset=Fraction(1, 24))


def qd(s: QSeries) -> QSeries:
    """The differential operator q d/dq (offset included)."""
    return s.qd()


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


class QuasiModularPoly:
    """A fixed-weight polynomial in the graded-ring generators E2, E4, E6."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight: int, coeffs=None):
        object.__setattr__(self, "weight", int(weight))
        clean = {}
        for (a, b, c), v in (coeffs or {}).items():
            v = rat(v)
            if v == 0:
                continue
            if 2 * a + 4 * b + 6 * c != weight:
                raise SeriesError(f"monomial (E2^{a} E4^{b} E6^{c}) is not weight {weight}")
            clean[(a, b, c)] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("QuasiModularPoly is immutable")

    def to_qseries(self, trunc: int, var: str = "q") -> QSeries:
        out = QSeries.zero(var, trunc)
        for (a, b, c), v in self.coeffs.items():
            term = QSeries.const(var, v, trunc)
            if a:
                term = term * eisenstein(2, trunc, var) ** a
            if b:
                term = term * eisenstein(4, trunc, var) ** b
            if c:
                term = term * eisenstein(6, trunc, var) ** c
            out = out + term
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, QuasiModularPoly):
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.weight, tuple(sorted(self.coeffs.items()))))

    def __str__(self):
        def body(exps):
            return "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(("E2", "E4", "E6"), exps) if e)

        return join_terms((self.coeffs[k], body(k))
                          for k in sorted(self.coeffs, reverse=True))

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
    expansions = [QuasiModularPoly(weight, {m: 1}).to_qseries(trunc) for m in monos]
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
        nums, den = _int_parts(dict(enumerate(row[k:])))
        rows.append((tuple(nums.values()), den))
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
    nums, den = _int_parts(s.coeffs)

    def dot(row):
        return sum(row[0][n] * c for n, c in nums.items())

    if any(dot(row) for row in consistency):
        raise NotQuasiModular(
            f"not quasi-modular of weight {weight} within truncation")
    return QuasiModularPoly(weight, {mono: Fraction(dot(row), row[1] * den)
                                     for mono, row in zip(monos, solution)})
