"""Two-tori sewing data: moment matrices, determinant and resolvent expansions,
the genus-two period matrix, and the pinched-torus modular parameter.

The raw moment matrix has entries

    A_a(k,l) = eps^((k+l)/2) (-1)^(l+1) (k+l-1)! / (sqrt(kl) (k-1)! (l-1)!) E_{k+l}(q_a),

whose sqrt(kl) factors are removed here by conjugating with diag(sqrt(k)).
Determinants, traces and (1,1) entries are unchanged, and every stored entry
becomes rational.  Entries with k+l odd vanish identically (odd Eisenstein
series and odd Bernoulli numbers), so every surviving power of eps is an
integer and the matrices are built from the even k+l entries only.

Every sewing quantity is read off the minors of A1 and A2 (A2(0) on the
pinched surface) taken separately.  A minor det A_a[S, U] is
eps^((sum S + sum U)/2) times a series in q_a alone, and nonzero only when
S and U hold equally many odd indices, so the few (S, U) with
sum S + sum U <= eps order are all that enter.  Cauchy-Binet gives

    det(I - A1 A2) = sum_{|S|=|U|} (-1)^|S| det A1[S,U] det A2[U,S],

and the matrix determinant lemma gives the (1,1) data of (I - A1 A2)^(-1)
from the same minors; the log-det is the log of that sum.  The only
bivariate products are one q1-series times one q2-series per (S, U).  The
matrix-vector resolvent chains (``resolvent_11``,
``weighted_resolvent_11``) compute the (1,1) data another way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .series import (
    QSeries,
    SeriesError,
    bernoulli,
    eisenstein,
)


@dataclass(frozen=True)
class AMatrix:
    """Truncated sewing-moment matrix with rational entries (sqrt(k) factors removed)."""
    size: int
    entries: tuple            # tuple of tuples of eps-series, all in one variable tuple
    eps_trunc: int

    def entry(self, k: int, l: int) -> QSeries:
        """1-based (k, l) entry."""
        return self.entries[k - 1][l - 1]


def _moment_matrix(N: int, eps_trunc: int, coeff, zero: QSeries) -> AMatrix:
    # Entry (k, l) is coeff(k, l) eps^((k+l)/2) for even k+l <= 2 eps_trunc.
    if N < 1:
        raise ValueError("matrix size must be >= 1")
    rows = tuple(
        tuple(QSeries.from_blocks("eps", {(k + l) // 2: coeff(k, l)}, eps_trunc)
              if (k + l) % 2 == 0 and k + l <= 2 * eps_trunc else zero
              for l in range(1, N + 1))
        for k in range(1, N + 1))
    return AMatrix(N, rows, eps_trunc)


def a_matrix(torus: int, N: int, eps_trunc: int, q_trunc: int) -> AMatrix:
    """Conjugated moment matrix of torus 1 or 2 (series in q1 resp. q2)."""
    if torus not in (1, 2):
        raise ValueError("torus must be 1 or 2")
    var = f"q{torus}"

    def coeff(k, l):
        c = Fraction((-1) ** (l + 1) * factorial(k + l - 1),
                     l * factorial(k - 1) * factorial(l - 1))
        return eisenstein(k + l, q_trunc, var) * c

    return _moment_matrix(N, eps_trunc, coeff,
                          QSeries.zero(("eps", var), (eps_trunc, q_trunc)))


def a2_degenerate(N: int, eps_trunc: int) -> AMatrix:
    """Pinched-torus limit of the second moment matrix: Bernoulli entries."""
    def coeff(k, l):
        return Fraction((-1) ** l, l * (k + l) * factorial(k - 1) * factorial(l - 1)) \
            * bernoulli(k + l)

    return _moment_matrix(N, eps_trunc, coeff, QSeries.zero("eps", eps_trunc))


def _q_layout(*mats: AMatrix):
    """The q-variables of the matrices' entries, sorted, and their orders."""
    orders = {}
    for m in mats:
        orders.update(zip(m.entries[0][0].vars[1:], m.entries[0][0].truncs[1:]))
    qvars = tuple(sorted(orders))
    return qvars, tuple(orders[v] for v in qvars)


def _embed(*mats: AMatrix):
    """Entry tuples of the matrices as series in one tuple of variables, eps
    followed by every q-variable of any of them, and the zero of that tuple
    at the smallest eps order among them.

    Each entry keeps its own orders; a q-variable it lacks enters with the
    order the other matrices give it.
    """
    qvars, qtruncs = _q_layout(*mats)
    vars = ("eps", *qvars)

    def lift(e):
        return e.embed(vars, (e.truncs[0], *qtruncs))

    zero = QSeries.zero(vars, (min(m.eps_trunc for m in mats), *qtruncs))
    return [tuple(tuple(map(lift, row)) for row in m.entries) for m in mats], zero


# -- minors of the moment matrices ------------------------------------------------


def _check_sizes(A: AMatrix, B: AMatrix, eps_trunc: int):
    if A.size != B.size:
        raise SeriesError("matrix sizes differ")
    if A.size < eps_trunc:
        raise SeriesError("matrix size too small for requested eps order")


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, QSeries) else x == 0


@lru_cache(maxsize=None)
def _index_pairs(limit: int, size: int) -> tuple:
    """(S, U, sum(S) + sum(U)) for the increasing index tuples S, U in
    1..size with |S| = |U|, equally many odd indices and sum(S) + sum(U) <=
    limit: the (S, U) whose products det A[S, U] det B[U, S], of order
    eps^(sum(S) + sum(U)), can be nonzero through eps^limit."""
    subsets = [()]
    for S in subsets:                       # grows while it is read
        subsets.extend(S + (x,) for x in range(S[-1] + 1 if S else 1,
                                                min(size, limit - sum(S)) + 1))
    groups = {}
    for S in subsets:
        groups.setdefault((len(S), sum(x % 2 for x in S)), []).append((S, sum(S)))
    return tuple((S, U, s + u) for group in groups.values()
                 for S, s in group for U, u in group if s + u <= limit)


class _Minors(dict):
    """det c[S, U] for a moment matrix with entries A(k, l) = c(k, l)
    eps^((k+l)/2), keyed on (S, U) and computed on first use by Laplace
    expansion along the first row, so each minor is computed once.

    c(k, l) is a series in the matrix's own q-variable (a rational for
    the pinched matrix), and so is every minor; ``lifted`` gives a minor in
    the variables ``qvars`` of the product it enters.
    """

    def __init__(self, A: AMatrix, qvars, qtruncs):
        for k, row in enumerate(A.entries, 1):
            for l, entry in enumerate(row, 1):
                if any(2 * e[0] != k + l for e in entry.nums):
                    raise SeriesError(f"moment-matrix entry ({k}, {l}) is not one eps block "
                                      f"at eps^({k + l}/2)")
        super().__init__({((), ()): 1})
        self.entry = A.entry
        self.zero = A.entries[0][0].block_zero()
        self.qvars, self.qtruncs = qvars, qtruncs
        self._lifted = {}

    def __missing__(self, key):
        S, U = key
        s, rows = S[0], S[1:]
        acc = self.zero
        for j, u in enumerate(U):
            if (s + u) % 2:
                continue
            sub = self[rows, U[:j] + U[j + 1:]]
            if _is_zero(sub):
                continue
            term = self.entry(s, u).block((s + u) // 2) * sub
            acc = acc - term if j % 2 else acc + term
        self[key] = acc
        return acc

    def lifted(self, S, U):
        x = self._lifted.get((S, U))
        if x is None:
            x = self[S, U]
            if isinstance(x, QSeries):
                x = x.embed(self.qvars, self.qtruncs)
            self._lifted[S, U] = x
        return x


def _minor_sums(A: AMatrix, B: AMatrix, eps_trunc: int, wanted=()):
    """log det(I - A B) and {name: value} for each name in ``wanted``, with
    R = (I - A B)^(-1): "d11" = eps (B R)(1,1), "d22" = eps (R A)(1,1) and
    "d12" = -eps R(1,1), each -eps N/det(I - A B) for its numerator N.

    Cauchy-Binet on the principal minors of A B gives
        det(I - A B) = sum_{|S|=|U|} (-1)^|S| det A[S,U] det B[U,S],
    a term of order eps^(sum S + sum U); N of "d12" (the (1,1) cofactor) is
    the same sum over S without 1.  The N of "d11" and "d22" are
    d/dt det(I - A B) at A + t E11 and at B + t E11 (matrix determinant
    lemma), with terms det A[S-1,U-1] det B[U,S] and det A[S,U]
    det B[U-1,S-1] for 1 in S and U, of order eps^(sum S + sum U - 1).
    """
    _check_sizes(A, B, eps_trunc)
    T = min(eps_trunc, A.eps_trunc, B.eps_trunc)
    qvars, qtruncs = _q_layout(A, B)
    zero = QSeries.zero(("eps", *qvars), (T, *qtruncs))
    block_zero = zero.block_zero()
    a, b = _Minors(A, qvars, qtruncs), _Minors(B, qvars, qtruncs)
    sums = {name: {} for name in ("det", *wanted)}

    def product(x, y):
        return None if _is_zero(x) or _is_zero(y) else x * y

    def add(name, n, sign, term):
        if term is not None and name in sums:
            acc = sums[name].get(n, block_zero)
            sums[name][n] = acc + term if sign > 0 else acc - term

    for S, U, n in _index_pairs(T + 1, A.size):
        sign = -1 if len(S) % 2 else 1
        if n <= T:
            term = product(a.lifted(S, U), b.lifted(U, S))
            add("det", n, sign, term)
            if 1 not in S:
                add("d12", n, sign, term)
        if S[:1] == U[:1] == (1,):
            if "d11" in sums:
                add("d11", n - 1, sign, product(a.lifted(S[1:], U[1:]), b.lifted(U, S)))
            if "d22" in sums:
                add("d22", n - 1, sign, product(a.lifted(S, U), b.lifted(U[1:], S[1:])))
    series = {name: QSeries.from_blocks("eps", blocks, T) if blocks else zero
              for name, blocks in sums.items()}
    logdet = series.pop("det").log()
    inv_det = (-logdet).exp() if wanted else None
    return logdet, {name: -(N * inv_det).times_eps() for name, N in series.items()}


def log_det_I_minus(A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """log det(I - A B), truncated at eps^eps_trunc (and at the matrices' own
    eps order), from the minors of A and B (Cauchy-Binet)."""
    return _minor_sums(A, B, eps_trunc)[0]


# -- resolvent chains (matrix-vector products) ---------------------------------------


def _dot(u, v, zero: QSeries) -> QSeries:
    acc = zero
    for x, y in zip(u, v):
        if x.is_zero() or y.is_zero():
            continue
        acc = acc + x * y
    return acc


def _mat_vec(A, v, zero: QSeries):
    return [_dot(row, v, zero) for row in A]


def _cut(s: QSeries, eps_trunc: int) -> QSeries:
    # The geometric sums below are exact through eps^eps_trunc only.
    return s.truncate((min(eps_trunc, s.truncs[0]), *s.truncs[1:]))


def _resolvent_vector_sum(a, b, eps_trunc: int, zero: QSeries):
    # sum_{n>=0} (a b)^n e_1, computed by matrix-vector chains
    e1 = [zero + 1] + [zero] * (len(a) - 1)
    total = list(e1)
    v = e1
    n = 1
    while 2 * n <= eps_trunc:
        v = _mat_vec(a, _mat_vec(b, v, zero), zero)
        total = [t + x for t, x in zip(total, v)]
        n += 1
    return total


def resolvent_11(A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """(I - A B)^(-1) (1,1) by the geometric series."""
    _check_sizes(A, B, eps_trunc)
    (a, b), zero = _embed(A, B)
    return _cut(_resolvent_vector_sum(a, b, eps_trunc, zero)[0], eps_trunc)


def weighted_resolvent_11(W: AMatrix, A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """(W (I - A B)^(-1)) (1,1), the variant the period matrix needs."""
    _check_sizes(A, B, eps_trunc)
    if W.size != A.size:
        raise SeriesError("matrix sizes differ")
    (w, a, b), zero = _embed(W, A, B)
    total = _resolvent_vector_sum(a, b, eps_trunc, zero)
    return _cut(_mat_vec(w, total, zero)[0], eps_trunc)


@dataclass(frozen=True)
class PeriodData:
    """2*pi*i-normalized period data: d11 = 2pi i (O11 - tau1), d22 likewise,
    d12 = 2pi i O12."""
    d11: QSeries
    d22: QSeries
    d12: QSeries

    def to_json(self) -> dict:
        return {"d11": self.d11.to_json(), "d22": self.d22.to_json(),
                "d12": self.d12.to_json()}


def sewing_data(q1_trunc: int, q2_trunc: int, eps_trunc: int, N: int,
                wanted=()) -> tuple[QSeries, dict]:
    """log det(I - A1 A2) and {name: entry} for each period entry named in
    ``wanted`` ("d11", "d22", "d12"), from one set of minors of A1 and A2.

    With R = (I - A1 A2)^(-1): d12 is -eps R(1,1), d11 is eps (A2 R)(1,1),
    and d22 is eps (A1 (I - A2 A1)^(-1))(1,1) = eps (R A1)(1,1) by the
    push-through identity.  An entry not asked for costs nothing.
    """
    return _minor_sums(a_matrix(1, N, eps_trunc, q1_trunc),
                       a_matrix(2, N, eps_trunc, q2_trunc), eps_trunc, wanted)


def period_matrix(q1_trunc: int, q2_trunc: int, eps_trunc: int, N: int) -> PeriodData:
    """Genus-two period matrix from the sewing expansion, in normalized form."""
    return PeriodData(**sewing_data(q1_trunc, q2_trunc, eps_trunc, N, ("d11", "d22", "d12"))[1])


@lru_cache(maxsize=None)
def _degenerate_sewing(q1_trunc: int, eps_trunc: int, N: int) -> tuple[QSeries, QSeries]:
    # Memoized: both results are immutable and pure functions of the orders.
    logdet, d = _minor_sums(a_matrix(1, N, eps_trunc, q1_trunc), a2_degenerate(N, eps_trunc),
                            eps_trunc, ("d11",))
    return logdet, d["d11"]


def degenerate_logdet(q1_trunc: int, eps_trunc: int, N: int) -> QSeries:
    """log det(I - A1 A2(0)) on the pinched surface, as an eps-series over q1."""
    return _degenerate_sewing(q1_trunc, eps_trunc, N)[0]


def degenerate_tau(q1_trunc: int, eps_trunc: int, N: int) -> QSeries:
    """2pi i (tau - tau1) on the pinched surface, as an eps-series over q1:
    eps (A2(0) (I - A1 A2(0))^(-1))(1,1), memoized with the log-det."""
    return _degenerate_sewing(q1_trunc, eps_trunc, N)[1]
