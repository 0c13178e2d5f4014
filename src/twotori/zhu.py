"""Genus-one 1-point functions of vacuum descendants as differential operators.

The torus 1-point function of L[-k1]...L[-km]|0> is computed by the mode
reduction

    Z(L[-k] u) = delta_{k,2} qd Z(u)
               + sum_{r >= 0} (-1)^r C(k+r-1, r+1) E_{k+r}(q) Z(L[r] u),

which terminates because L[r] u = 0 beyond the weight of u.  Results are
kept symbolic: an operator  sum_{i,j} c_ij C^j qd^i  applied to an abstract
base partition function, either in the raw Z basis or rewritten onto the
eta^C-normalized base (Theta basis).

Each coefficient c_ij is an exact polynomial in E2, E4 and E6, so the
recursion runs in the quasi-modular ring and no q-order enters it.  Two ring
facts close it: E_k for k >= 8 is a polynomial in E4 and E6 (a quadratic
recurrence, ``series.eisenstein_poly``), and qd acts on E2, E4 and E6 by
Ramanujan's derivatives (``EisensteinPoly.qd``).  An operator is read as
q-series only at its consumers (specialization, rendering, JSON), through
one cached table of the monomials E2^a E4^b E6^c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from types import MappingProxyType

from .reports import Report
from .series import (
    EisensteinPoly,
    QSeries,
    SeriesError,
    eisenstein_poly,
    monomial_str,
    parenthesize,
    quasimodular_monomials,
    rat,
)
from .virasoro import (
    _ONE,
    CPoly,
    VirState,
    _merge_into,
    apply_mode,
    check_partition,
    partition_weight,
)

Z_BASIS = "Z"
THETA_BASIS = "Theta"
_UNIT = EisensteinPoly.const(1)


class DiffOp:
    """sum_{i,j} c_ij C^j qd^i applied to an abstract base function.

    Each coefficient c_ij is an exact ``EisensteinPoly`` in E2, E4, E6.
    ``q_trunc`` is the q-order at which consumers read the coefficients as
    q-series (``series``, ``specialize``, rendering and JSON); it is None
    for an operator not yet read at any order, as the recursion's cache
    holds them.  In the Theta basis an overall eta(q)^(-C) prefactor is
    implicit and the base is the normalized partition function.  ``terms``
    is read-only, since the recursion's cache shares one instance between
    callers.
    """

    __slots__ = ("basis", "terms", "q_trunc", "_series")

    def __init__(self, basis: str, terms=None, q_trunc: int | None = None):
        if basis not in (Z_BASIS, THETA_BASIS):
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for (i, j), s in (terms or {}).items():
            if not isinstance(s, EisensteinPoly):
                s = EisensteinPoly.const(s)
            if s.is_zero():
                continue
            clean[(int(i), int(j))] = s
        self._init(basis, clean, None if q_trunc is None else int(q_trunc))

    def _init(self, basis, terms, q_trunc):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", terms if type(terms) is MappingProxyType
                           else MappingProxyType(terms))
        object.__setattr__(self, "q_trunc", q_trunc)

    @classmethod
    def _made(cls, basis, terms, q_trunc) -> "DiffOp":
        # (i, j) -> nonzero EisensteinPoly, so the checks of __init__ are skipped.
        op = object.__new__(cls)
        op._init(basis, terms, q_trunc)
        return op

    def __setattr__(self, *a):
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def identity(cls, basis: str, q_trunc: int | None = None) -> "DiffOp":
        return cls._made(basis, {(0, 0): _UNIT}, q_trunc)

    @classmethod
    def zero(cls, basis: str, q_trunc: int | None = None) -> "DiffOp":
        return cls._made(basis, {}, q_trunc)

    def read_at(self, q_trunc: int) -> "DiffOp":
        """The same operator, read as q-series through q^q_trunc."""
        return DiffOp._made(self.basis, self.terms, int(q_trunc))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: int, j: int) -> EisensteinPoly:
        return self.terms.get((i, j), EisensteinPoly())

    def max_derivative(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    def c_degree(self, i: int) -> int:
        """Highest C power among the qd^i coefficients (-1 if absent)."""
        return max((j for (a, j) in self.terms if a == i), default=-1)

    def series(self) -> MappingProxyType:
        """(i, j) -> q-expansion of c_ij through q^q_trunc, for the
        coefficients that do not vanish to that order.  Expanded once per
        operator and read-only, as the memoized degeneration sum shares it."""
        if self.q_trunc is None:
            raise SeriesError("operator has no q-order to read its coefficients at")
        if not hasattr(self, "_series"):
            expanded = {key: poly.to_qseries(self.q_trunc) for key, poly in self.terms.items()}
            object.__setattr__(self, "_series", MappingProxyType(
                {key: s for key, s in expanded.items() if not s.is_zero()}))
        return self._series

    def _check_compat(self, other: "DiffOp"):
        if self.basis != other.basis:
            raise SeriesError("cannot combine operators in different bases")

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.terms)
        _merge_into(out, other.terms.items())
        orders = [t for t in (self.q_trunc, other.q_trunc) if t is not None]
        return DiffOp._made(self.basis, out, min(orders, default=None))

    def scale(self, factor) -> "DiffOp":
        """Multiply by a rational or an E2/E4/E6 polynomial (no C, no derivative)."""
        return DiffOp._made(self.basis, {k: t for k, s in self.terms.items()
                                         if not (t := s * factor).is_zero()}, self.q_trunc)

    def scale_cpoly(self, p: CPoly) -> "DiffOp":
        # Integer numerators of p first, its one denominator last.
        out = {}
        for (i, j), s in self.terms.items():
            _merge_into(out, (((i, j + dj), s._scaled(c)) for dj, c in p.nums.items()))
        if p.den != 1:
            out = {k: s._scaled(1, p.den) for k, s in out.items()}
        return DiffOp._made(self.basis, out, self.q_trunc)

    def qd_compose(self) -> "DiffOp":
        """qd o self, by the Leibniz rule on the coefficients."""
        out = {}
        for (i, j), s in self.terms.items():
            _merge_into(out, (((i, j), s.qd()), ((i + 1, j), s)))
        return DiffOp._made(self.basis, out, self.q_trunc)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def _render(self, coeff_text) -> str:
        # Terms by falling derivative order, each as coeff_text(i, poly, s)*C^j*D^i
        # with s the q-expansion; a coefficient that renders as "1" is left
        # out before C or D.
        parts = []
        expanded = self.series()
        for (i, j) in sorted(expanded, key=lambda k: (-k[0], k[1])):
            sym = coeff_text(i, self.terms[(i, j)], expanded[(i, j)])
            mono = monomial_str(("C", j), ("D", i))
            parts.append(mono if sym == "1" and mono else "*".join(filter(None, (sym, mono))))
        return " + ".join(parts) or "0"

    def __str__(self):
        return self._render(lambda i, poly, s: f"({s})")

    def __repr__(self):
        return f"DiffOp[{self.basis}]({self})"

    def to_json(self) -> dict:
        expanded = self.series()
        entries = [{"d_order": i, "c_degree": j, "series": expanded[(i, j)].to_json()}
                   for (i, j) in sorted(expanded)]
        return {"basis": self.basis, "terms": entries}

    def render_symbolic(self, weight: int) -> str:
        """Operator string with E2/E4/E6 symbols for each weight-(n-2i)
        coefficient whose q-expansion has a coefficient to spare over the
        weight's monomials (as recognition would need); raw series otherwise."""
        def text(i, poly, s):
            w = weight - 2 * i
            legible = poly.weights() == {w} and s.trunc >= len(quasimodular_monomials(w))
            return parenthesize(str(poly) if legible else str(s))

        return self._render(text)


@dataclass(frozen=True)
class BasePartition:
    """An abstract normalized base: Theta series in one variable plus a
    rational central charge."""
    theta: QSeries
    c_value: Fraction

    @classmethod
    def heisenberg(cls, rank: int, q_trunc: int, var: str = "q") -> "BasePartition":
        return cls(QSeries.one(var, q_trunc), rat(rank))


# -- the recursion --------------------------------------------------------------


@lru_cache(maxsize=None)
def _op_for_word(word: tuple) -> DiffOp:
    """Exact Z-basis operator for the word L[-k_1]...L[-k_m]|0>.

    The word need not be PBW-ordered; the reduction handles any k_i >= 1,
    which is what makes the recursion-order invariance testable.  No q-order
    enters, so one cache entry serves every order it is read at.
    """
    if not word:
        return DiffOp.identity(Z_BASIS)
    k, tail = word[0], word[1:]
    tail_weight = sum(tail)
    out = DiffOp.zero(Z_BASIS)
    if k == 2:
        out = out + _op_for_word(tail).qd_compose()
    for r in range(tail_weight + 1):
        if (k + r) % 2:
            continue  # odd Eisenstein series vanish
        weight = comb(k + r - 1, r + 1)
        if weight == 0:
            continue
        reduced = _reduced_state(tail, r)
        if reduced.is_zero():
            continue
        factor = eisenstein_poly(k + r)._scaled((-1) ** r * weight)
        out = out + _op_for_state(reduced).scale(factor)
    return out


def _reduced_state(tail: tuple, r: int) -> VirState:
    # L[r] applied to the (possibly unordered) word state
    if not tail:
        return VirState()
    state = _state_for_word(tail)
    return apply_mode(r, state)


@lru_cache(maxsize=None)
def _state_for_word(word: tuple) -> VirState:
    """Normal-order L[-w_1]...L[-w_m]|0> for an arbitrary word of w_i >= 1."""
    state = VirState.vacuum()
    for w in reversed(word):
        state = apply_mode(-w, state)
    return state


def _op_for_state(v: VirState) -> DiffOp:
    # A PBW monomial with coefficient 1 is its cached operator itself.
    ops = [_op_for_word(parts) if coeff == _ONE else _op_for_word(parts).scale_cpoly(coeff)
           for parts, coeff in v.terms.items()]
    return reduce(DiffOp.__add__, ops) if ops else DiffOp.zero(Z_BASIS)


def one_point(v: VirState, q_trunc: int) -> DiffOp:
    """Z-basis 1-point operator of a square-bracket vacuum descendant, read
    at q-order q_trunc."""
    for parts in v.terms:
        check_partition(parts)
    return _op_for_state(v).read_at(q_trunc)


def one_point_word(word, q_trunc: int) -> DiffOp:
    """Head-first reduction of an arbitrary (not necessarily PBW) mode word."""
    word = tuple(int(k) for k in word)
    if any(k < 1 for k in word):
        raise ValueError("mode word entries must be >= 1")
    return _op_for_word(word).read_at(q_trunc)


# -- basis change ----------------------------------------------------------------


def _eta_rewrite(op: DiffOp, sign: int) -> DiffOp:
    # qd^i acting through eta^(-C) picks up sign * (C/2) E2 per derivative.
    e2_half = eisenstein_poly(2)._scaled(sign, 2)
    target = THETA_BASIS if sign > 0 else Z_BASIS
    powers = [DiffOp.identity(target, op.q_trunc)]
    for _ in range(op.max_derivative()):
        prev = powers[-1]
        nxt = prev.qd_compose() + prev.scale(e2_half).scale_cpoly(CPoly.c_power(1))
        powers.append(nxt)
    out = DiffOp.zero(target, op.q_trunc)
    for (i, j), s in op.terms.items():
        out = out + powers[i].scale(s).scale_cpoly(CPoly.c_power(j))
    return out


def to_theta_basis(op: DiffOp) -> DiffOp:
    """Rewrite a Z-basis operator onto the eta^C-normalized base.

    Uses qd(eta^(-C) X) = eta^(-C) (qd X + (C/2) E2 X), iterated per
    derivative order; the overall eta^(-C) becomes implicit.
    """
    if op.basis != Z_BASIS:
        raise SeriesError("operator is not in the Z basis")
    return _eta_rewrite(op, +1)


def to_z_basis(op: DiffOp) -> DiffOp:
    """Inverse rewrite (Theta -> Z), for round-trip checks."""
    if op.basis != THETA_BASIS:
        raise SeriesError("operator is not in the Theta basis")
    return _eta_rewrite(op, -1)


def specialize(op: DiffOp, base: BasePartition) -> QSeries:
    """Evaluate a Theta-basis operator at a concrete base.

    Returns the Theta-level series in the variable of the base; the implicit
    eta^(-C) prefactor is reattached by callers that need the raw partition
    function.
    """
    if op.basis != THETA_BASIS:
        raise SeriesError("specialize needs a Theta-basis operator")
    expanded = op.series()
    if base.theta.trunc < op.q_trunc:
        raise SeriesError(
            f"truncation mismatch: base known to q^{base.theta.trunc}, "
            f"operator needs q^{op.q_trunc}")
    theta = base.theta.truncate(op.q_trunc)
    derivs = [theta]
    for _ in range(op.max_derivative()):
        derivs.append(derivs[-1].qd())
    out = QSeries.zero(theta.var, op.q_trunc, theta.offset)
    for (i, j), s in expanded.items():
        out = out + s.renamed(theta.var) * derivs[i] * base.c_value ** j
    return out


# -- structural checks (operator shape forced by the recursion) -------------------


def structure_check(parts, q_trunc: int = 8, op: DiffOp | None = None) -> Report:
    """Verify the C-degree and quasi-modular-weight structure of a 1-point operator.

    For a PBW monomial with m modes and weight n: in the Z basis the qd^i
    coefficient has C-degree <= floor((m-i)/2) (<= m-i after the Theta
    rewrite), and every C^j qd^i coefficient is a polynomial in E2, E4, E6
    homogeneous of weight n-2i.  The weights are read off the exact
    coefficients, so the check holds at every q-order; ``q_trunc`` is the
    order the operator is read at, and labels the checks.
    """
    parts = check_partition(parts)
    m, n = len(parts), partition_weight(parts)
    if op is None:
        op = one_point(VirState.monomial(parts), q_trunc)
    report = Report(title=f"structure of 1-point operator for {list(parts)}")
    order = f"q<={op.q_trunc}"
    bound = (lambda i: (m - i) // 2) if op.basis == Z_BASIS else (lambda i: m - i)
    for i in range(op.max_derivative() + 1):
        deg = op.c_degree(i)
        report.add(f"C-degree of qd^{i} coefficient <= {bound(i)} ({op.basis} basis)",
                   deg <= bound(i), order=order,
                   expected=f"<= {bound(i)}", computed=str(deg))
    for (i, j), poly in sorted(op.terms.items()):
        w = n - 2 * i
        name = f"coefficient of C^{j} qd^{i} is quasi-modular of weight {w}"
        stray = sorted(poly.weights() - {w})
        if not stray:
            report.add(name, True, order=order)
        else:
            report.add(name, False, order=order, expected=f"only monomials of weight {w}",
                       computed=f"{poly} (monomials of weight {', '.join(map(str, stray))})")
    return report
