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
recursion runs in the operator ring Q[qd, C, E2, E4, E6] (``ring.OperatorPoly``,
one sum over integer numerators per step) and no q-order enters it.  Two ring
facts close it: E_k for k >= 8 is a polynomial in E4 and E6 (a quadratic
recurrence, ``ring.eisenstein_poly``), and qd acts on E2, E4 and E6 by
Ramanujan's derivatives (``ring._ramanujan``).  The change of basis is the
ring's eta rewrite.  A ``DiffOp`` is read as q-series only at its consumers
(specialization, rendering, JSON), through one cached table of the monomials
E2^a E4^b E6^c; the structure check reads the polynomials alone, so it never
loads the q-series engine (``series``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

from .reports import Report
from .ring import (
    EisensteinPoly,
    OperatorPoly,
    SeriesError,
    _Record,
    _setattr,
    _sum_terms,
    _times,
    eisenstein_poly,
    monomial_str,
    rat,
    symbolic_factor,
)
from .virasoro import VirState, apply_mode, check_partition, partition_weight

Z_BASIS = "Z"
THETA_BASIS = "Theta"
_UNIT = EisensteinPoly.const(1)


class DiffOp(OperatorPoly):
    """sum_{i,j} c_ij C^j qd^i applied to an abstract base function.

    An element of the operator ring ``ring.OperatorPoly``, keyed (i, j, a, b, c)
    (``coeff(i, j)`` reads c_ij back as an ``EisensteinPoly``), with its basis
    and ``q_trunc``, the q-order at which consumers read the coefficients as
    q-series (``series``, ``specialize``, rendering and JSON); it is None for
    an operator not yet read at any order, as the recursion's cache holds
    them.  In the Theta basis an overall eta(q)^(-C) prefactor is implicit
    and the base is the normalized partition function.  ``nums`` is
    read-only, since the recursion's cache shares one instance between
    callers; ring arithmetic on operators gives ``OperatorPoly`` elements.
    """

    __slots__ = ("basis", "q_trunc", "_series")
    __repr__ = object.__repr__  # the ring's repr prints str, which needs a q-order

    def __init__(self, basis: str, terms=None, q_trunc: int | None = None):
        # terms: an OperatorPoly, whose numerators the operator shares, or
        # (i, j) -> c_ij, an EisensteinPoly or a rational.
        if basis not in (Z_BASIS, THETA_BASIS):
            raise ValueError(f"unknown basis {basis!r}")
        if not isinstance(terms, OperatorPoly):
            terms = OperatorPoly({(int(i), int(j), *m): v for (i, j), c in (terms or {}).items()
                                  for m, v in (_UNIT * c).coeffs.items()})
        _setattr(self, "basis", basis)
        _setattr(self, "nums", MappingProxyType(terms.nums))
        _setattr(self, "den", terms.den)
        _setattr(self, "q_trunc", None if q_trunc is None else int(q_trunc))

    @classmethod
    def identity(cls, basis: str, q_trunc: int | None = None) -> "DiffOp":
        return cls(basis, OperatorPoly._made({(0, 0, 0, 0, 0): 1}, 1), q_trunc)

    def coeff(self, i: int, j: int) -> EisensteinPoly:
        return self.coefficients().get((i, j), EisensteinPoly())

    def series(self) -> MappingProxyType:
        """(i, j) -> q-expansion of c_ij through q^q_trunc, for the
        coefficients that do not vanish to that order, each summed from the
        integer numerators.  Expanded once per operator and read-only, as the
        memoized degeneration sum shares it."""
        if self.q_trunc is None:
            raise SeriesError("operator has no q-order to read its coefficients at")
        if not hasattr(self, "_series"):
            _setattr(self, "_series", MappingProxyType({
                key: s for key, c in self.coefficients().items()
                if not (s := c.to_qseries(self.q_trunc)).is_zero()}))
        return self._series

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return isinstance(other, DiffOp) and self.basis == other.basis and self._same(other)

    def _render(self, coeff_text) -> str:
        # Terms by falling derivative order, each as coeff_text(i, poly, s)*C^j*D^i
        # with s the q-expansion; a coefficient that renders as "1" is left
        # out before C or D.
        parts = []
        expanded, coefficients = self.series(), self.coefficients()
        for (i, j) in sorted(expanded, key=lambda k: (-k[0], k[1])):
            sym = coeff_text(i, coefficients[i, j], expanded[(i, j)])
            mono = monomial_str(("C", j), ("D", i))
            parts.append(mono if sym == "1" and mono else "*".join(filter(None, (sym, mono))))
        return " + ".join(parts) or "0"

    def __str__(self):
        return self._render(lambda i, poly, s: f"({s})")

    def to_json(self) -> dict:
        expanded = self.series()
        entries = [{"d_order": i, "c_degree": j, "series": expanded[(i, j)].to_json()}
                   for (i, j) in sorted(expanded)]
        return {"basis": self.basis, "terms": entries}

    def render_symbolic(self, weight: int) -> str:
        """Operator string with each weight-(n-2i) coefficient as
        ``symbolic_factor`` renders it: E2/E4/E6 symbols, or the raw series."""
        return self._render(lambda i, poly, s: symbolic_factor(poly, weight - 2 * i, s))


class BasePartition(_Record):
    """An abstract normalized base: Theta series in one variable plus a
    rational central charge."""
    _fields = ("theta", "c_value")

    def __init__(self, theta: QSeries, c_value: Fraction):
        super().__init__(theta, c_value)

    @classmethod
    def heisenberg(cls, rank: int, q_trunc: int, var: str = "q") -> "BasePartition":
        from .series import QSeries
        return cls(QSeries.one(var, q_trunc), rat(rank))


# -- the recursion --------------------------------------------------------------


@lru_cache(maxsize=None)
def _op_for_word(word: tuple) -> DiffOp:
    """Exact Z-basis operator for the word L[-k_1]...L[-k_m]|0>.

    The word need not be PBW-ordered; the reduction handles any k_i >= 1,
    which is what makes the recursion-order invariance testable.  No q-order
    enters, so one cache entry serves every order it is read at.  Every
    term of the reduction is one piece of a single sum over integer
    numerators.
    """
    if not word:
        return DiffOp.identity(Z_BASIS)
    k, tail = word[0], word[1:]
    pieces = []
    if k == 2:
        pieces += _op_for_word(tail)._qd_pieces()
    for r in range(sum(tail) + 1 if tail else 0):
        if (k + r) % 2:
            continue  # odd Eisenstein series vanish
        weight = comb(k + r - 1, r + 1)
        if weight:
            # L[r] applied to the (possibly unordered) word state
            reduced = apply_mode(r, _state_for_word(tail))
            pieces += _reduction(reduced, eisenstein_poly(k + r), (-1) ** r * weight)
    return DiffOp(Z_BASIS, OperatorPoly._made(*_sum_terms(pieces)))


@lru_cache(maxsize=None)
def _state_for_word(word: tuple) -> VirState:
    """Normal-order L[-w_1]...L[-w_m]|0> for an arbitrary word of w_i >= 1."""
    state = VirState.vacuum()
    for w in reversed(word):
        state = apply_mode(-w, state)
    return state


def _reduction(v: VirState, factor: EisensteinPoly, p: int):
    # Pieces of p * factor * (the operator of v), one per term of v.
    for (parts, j), s in v.nums.items():
        op = _op_for_word(parts)
        yield op.den * factor.den * v.den, p * s, _times(op.nums, factor.nums, j)


def one_point(v: VirState, q_trunc: int) -> DiffOp:
    """Z-basis 1-point operator of a square-bracket vacuum descendant, read
    at q-order q_trunc."""
    for parts, _ in v.nums:
        check_partition(parts)
    return DiffOp(Z_BASIS, OperatorPoly._made(*_sum_terms(_reduction(v, _UNIT, 1))), q_trunc)


def one_point_word(word, q_trunc: int) -> DiffOp:
    """Head-first reduction of an arbitrary (not necessarily PBW) mode word."""
    word = tuple(int(k) for k in word)
    if any(k < 1 for k in word):
        raise ValueError("mode word entries must be >= 1")
    return DiffOp(Z_BASIS, _op_for_word(word), q_trunc)


# -- basis change ----------------------------------------------------------------


def to_theta_basis(op: DiffOp) -> DiffOp:
    """Rewrite a Z-basis operator onto the eta^C-normalized base.

    Uses qd(eta^(-C) X) = eta^(-C) (qd X + (C/2) E2 X), iterated per
    derivative order (``OperatorPoly.eta_rewrite``); the overall eta^(-C)
    becomes implicit.
    """
    if op.basis != Z_BASIS:
        raise SeriesError("operator is not in the Z basis")
    return DiffOp(THETA_BASIS, op.eta_rewrite(+1), op.q_trunc)


def to_z_basis(op: DiffOp) -> DiffOp:
    """Inverse rewrite (Theta -> Z), for round-trip checks."""
    if op.basis != THETA_BASIS:
        raise SeriesError("operator is not in the Theta basis")
    return DiffOp(Z_BASIS, op.eta_rewrite(-1), op.q_trunc)


def specialize(op: DiffOp, base: BasePartition) -> QSeries:
    """Evaluate a Theta-basis operator at a concrete base.

    Returns the Theta-level series in the variable of the base; the implicit
    eta^(-C) prefactor is reattached by callers that need the raw partition
    function.  The sum runs in Q[E2, E4, E6], C read as c: one polynomial
    per derivative order i, expanded once and times qd^i Theta.
    """
    from .series import QSeries
    if op.basis != THETA_BASIS:
        raise SeriesError("specialize needs a Theta-basis operator")
    if op.q_trunc is None:
        raise SeriesError("operator has no q-order to read its coefficients at")
    if base.theta.trunc < op.q_trunc:
        raise SeriesError(
            f"truncation mismatch: base known to q^{base.theta.trunc}, "
            f"operator needs q^{op.q_trunc}")
    theta = base.theta.truncate(op.q_trunc)
    out, deriv = QSeries.zero(theta.var, op.q_trunc, theta.offset), theta
    for i in range(op.max_derivative() + 1):
        # The qd^i part at C = c and D = 1 is its coefficient polynomial.
        out = out + op.part(i).at(base.c_value, 1).to_qseries(op.q_trunc, theta.var) * deriv
        deriv = deriv.qd()
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
        op = one_point_word(parts, q_trunc)
    report = Report(title=f"structure of 1-point operator for {list(parts)}")
    order = f"q<={op.q_trunc}"
    bound = (lambda i: (m - i) // 2) if op.basis == Z_BASIS else (lambda i: m - i)
    for i in range(op.max_derivative() + 1):
        deg = op.c_degree(i)
        report.add(f"C-degree of qd^{i} coefficient <= {bound(i)} ({op.basis} basis)",
                   deg <= bound(i), order=order,
                   expected=f"<= {bound(i)}", computed=str(deg))
    weights = {}
    for i, j, a, b, c in op.nums:
        weights.setdefault((i, j), set()).add(2 * a + 4 * b + 6 * c)
    for (i, j), found in sorted(weights.items()):
        w = n - 2 * i
        name = f"coefficient of C^{j} qd^{i} is quasi-modular of weight {w}"
        stray = sorted(found - {w})
        if not stray:
            report.add(name, True, order=order)
        else:
            report.add(name, False, order=order, expected=f"only monomials of weight {w}",
                       computed=f"{op.coeff(i, j)} (monomials of weight "
                                f"{', '.join(map(str, stray))})")
    return report
