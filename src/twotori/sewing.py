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
eps^((sum S + sum U)/2) times the minor of the coefficients c_a(k, l), and
nonzero only when S and U hold equally many odd indices, so the few (S, U)
with sum S + sum U <= eps order are all that enter.  Cauchy-Binet gives

    det(I - A1 A2) = sum_{|S|=|U|} (-1)^|S| det A1[S,U] det A2[U,S],

and the matrix determinant lemma gives the (1,1) data of (I - A1 A2)^(-1)
as N/det from the same minors, each computed once by Laplace expansion
(``_Minors``) over any coefficient ring.  Between two tori each sum is one
pass over the integer numerators of q1-minors times q2-minors; the log-det
is the log of the det sum, and N/det one recurrence over the eps blocks.
On the pinched surface c_1(k, l) is a rational times E_{k+l}, a polynomial
in E2, E4, E6, so the same sums and recurrences run in that ring and each
eps block is expanded in q1 once.  The matrix-vector resolvent chains
(``resolvent_11``, ``weighted_resolvent_11``) compute the (1,1) data
another way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm

from .ring import (
    EisensteinPoly,
    SeriesError,
    _lowest_terms,
    _Record,
    _sum_terms,
    bernoulli,
    eisenstein_poly,
)
from .series import QSeries, _log_blocks, _quotient_blocks, eisenstein


class AMatrix(_Record):
    """Truncated sewing-moment matrix with rational entries (sqrt(k) factors
    removed): entry (k, l) is ``coeff(k, l)`` eps^((k+l)/2), and nothing else."""
    _fields = ("size", "entries", "eps_trunc")

    def __init__(self, size: int, entries: tuple, eps_trunc: int):
        for k, row in enumerate(entries, 1):
            for l, entry in enumerate(row, 1):
                if any(2 * e[0] != k + l for e in entry.nums):
                    raise SeriesError(f"moment-matrix entry ({k}, {l}) is not one eps block "
                                      f"at eps^({k + l}/2)")
        super().__init__(size, entries, eps_trunc)

    def entry(self, k: int, l: int) -> QSeries:
        """1-based (k, l) entry."""
        return self.entries[k - 1][l - 1]

    def coeff(self, k: int, l: int):
        """The eps^((k+l)/2) block of entry (k, l), for even k + l."""
        return self.entry(k, l).block((k + l) // 2)


def _moment_matrix(N: int, eps_trunc: int, coeff, zero: QSeries) -> AMatrix:
    # Entry (k, l) is coeff(k, l) eps^((k+l)/2) for even k+l <= 2 eps_trunc.
    _check_sizes(0, N)
    rows = tuple(
        tuple(QSeries.from_blocks("eps", {(k + l) // 2: coeff(k, l)}, eps_trunc)
              if (k + l) % 2 == 0 and k + l <= 2 * eps_trunc else zero
              for l in range(1, N + 1))
        for k in range(1, N + 1))
    return AMatrix(N, rows, eps_trunc)


def _moment_coeff(k: int, l: int) -> Fraction:
    # A_a(k, l) is this rational times E_{k+l}(q_a) eps^((k+l)/2).
    return Fraction((-1) ** (l + 1) * factorial(k + l - 1),
                    l * factorial(k - 1) * factorial(l - 1))


def _pinched_coeff(k: int, l: int) -> Fraction:
    # A2(0)(k, l) / eps^((k+l)/2): _moment_coeff times E_{k+l}(0) = -B_{k+l}/(k+l)!.
    return -_moment_coeff(k, l) * bernoulli(k + l) / factorial(k + l)


def a_matrix(torus: int, N: int, eps_trunc: int, q_trunc: int) -> AMatrix:
    """Conjugated moment matrix of torus 1 or 2 (series in q1 resp. q2)."""
    if torus not in (1, 2):
        raise ValueError("torus must be 1 or 2")
    var = f"q{torus}"
    return _moment_matrix(N, eps_trunc,
                          lambda k, l: eisenstein(k + l, q_trunc, var) * _moment_coeff(k, l),
                          QSeries.zero(("eps", var), (eps_trunc, q_trunc)))


def a2_degenerate(N: int, eps_trunc: int) -> AMatrix:
    """Pinched-torus limit of the second moment matrix: Bernoulli entries."""
    return _moment_matrix(N, eps_trunc, _pinched_coeff, QSeries.zero("eps", eps_trunc))


def _embed(*mats: AMatrix):
    """Entry tuples of the matrices as series in one tuple of variables, eps
    followed by every q-variable of any of them, sorted, and the zero of
    that tuple at the smallest eps order among them.

    Each entry keeps its own orders; a q-variable it lacks enters with the
    order the other matrices give it.
    """
    orders = {}
    for m in mats:
        orders.update(zip(m.entries[0][0].vars[1:], m.entries[0][0].truncs[1:]))
    qvars = tuple(sorted(orders))
    qtruncs = tuple(orders[v] for v in qvars)
    vars = ("eps", *qvars)

    def lift(e):
        return e.embed(vars, (e.truncs[0], *qtruncs))

    zero = QSeries.zero(vars, (min(m.eps_trunc for m in mats), *qtruncs))
    return [tuple(tuple(map(lift, row)) for row in m.entries) for m in mats], zero


# -- minors of the moment matrices ------------------------------------------------


def _check_sizes(eps_trunc: int, *sizes: int):
    # Moment matrices of these sizes, multiplied through eps^eps_trunc.
    if min(sizes) < 1:
        raise ValueError("matrix size must be >= 1")
    if len(set(sizes)) > 1:
        raise SeriesError("matrix sizes differ")
    if sizes[0] < eps_trunc:
        raise SeriesError("matrix size too small for requested eps order")


def _is_zero(x) -> bool:
    return x == 0 if isinstance(x, (int, Fraction)) else x.is_zero()


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

    c(k, l) (k + l even, at most ``limit``) is read once: a series, a
    polynomial or a rational, with ``one`` the unit of its ring.  Rationals
    are held as ints over their common denominator ``den``.  ``numerators``
    gives a minor as its denominator and its integer numerators at the
    exponents ``keys`` of its q-variable, zeros included.
    """

    def __init__(self, coeff, size: int, limit: int, one):
        c = {(k, l): coeff(k, l) for k in range(1, size + 1) for l in range(1, size + 1)
             if (k + l) % 2 == 0 and k + l <= limit}
        self.den = 1
        if isinstance(one, Fraction):
            self.den = lcm(*(v.denominator for v in c.values()))
            c = {key: v.numerator * (self.den // v.denominator) for key, v in c.items()}
            one = 1
        super().__init__({((), ()): one})
        self.c, self.zero = c, one * 0
        self.keys = (list(product(*(range(t + 1) for t in one.truncs)))
                     if isinstance(one, QSeries) else [()])
        self._nums = {}

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
            term = self.c[s, u] * sub
            acc = acc - term if j % 2 else acc + term
        self[key] = acc
        return acc

    def numerators(self, S, U):
        x = self._nums.get((S, U))
        if x is None:
            m = self[S, U]
            x = self._nums[S, U] = ((m.den, [m.nums.get(e, 0) for e in self.keys])
                                    if isinstance(m, QSeries) else (self.den ** len(S), [m]))
        return x


def _cauchy_binet(limit: int, size: int):
    """(name, n, sign, (S, U), (U', S')) for each term sign det A[S, U]
    det B[U', S'] at eps^n <= eps^limit of det(I - A B) ("det") and of the
    numerators N of "d11", "d22" and "d12" (see ``_minor_sums``)."""
    for S, U, n in _index_pairs(limit + 1, size):
        sign = -1 if len(S) % 2 else 1
        if n <= limit:
            yield "det", n, sign, (S, U), (U, S)
            if 1 not in S:
                yield "d12", n, sign, (S, U), (U, S)
        if S[:1] == U[:1] == (1,):
            yield "d11", n - 1, sign, (S[1:], U[1:]), (U, S)
            yield "d22", n - 1, sign, (S, U), (U[1:], S[1:])


def _outer_sum(terms, keys_a, keys_b, vars, truncs) -> QSeries:
    """sum sign eps^n x y over ``terms`` (n, sign, x, y), x and y minors of A
    and B as (den, numerators at ``keys_a`` resp. ``keys_b``), a series in
    ``vars``: over the lcm of the terms' denominators, one row of integer
    numerators per (n, exponents of x) adds m x_e times the numerators of y.
    """
    den = lcm(*(dx * dy for _, _, (dx, _), (dy, _) in terms))
    rows = {}
    for n, sign, (dx, xs), (dy, ys) in terms:
        m = sign * (den // (dx * dy))
        for e, v in zip(keys_a, xs):
            if v:
                k, mv = (n, *e), m * v
                row = rows.get(k)
                rows[k] = ([mv * w for w in ys] if row is None
                           else [r + mv * w for r, w in zip(row, ys)])
    nums = {(*k, *f): v for k, row in rows.items() for f, v in zip(keys_b, row) if v}
    return QSeries._made(vars, *_lowest_terms(nums, den), truncs, (Fraction(0),) * len(vars))


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
    A and B are in distinct q-variables, so each sum is one pass of outer
    products (``_outer_sum``), and N/det(I - A B) is ``N.divided_by(det)``.
    """
    _check_sizes(eps_trunc, A.size, B.size)
    T = min(eps_trunc, A.eps_trunc, B.eps_trunc)
    (va, ta), (vb, tb) = ((m.entries[0][0].vars[1:], m.entries[0][0].truncs[1:])
                          for m in (A, B))
    if set(va) & set(vb):
        raise SeriesError(f"the minors of A and B share a q-variable: {va}, {vb}")
    a, b = (_Minors(m.coeff, m.size, T + 1, m.entries[0][0].block_zero() + 1) for m in (A, B))
    terms = {name: [] for name in ("det", *wanted)}
    for name, n, sign, x, y in _cauchy_binet(T, A.size):
        if name in terms:
            terms[name].append((n, sign, a.numerators(*x), b.numerators(*y)))
    vars, truncs = ("eps", *va, *vb), (T, *ta, *tb)
    sums = {name: _outer_sum(t, a.keys, b.keys, vars, truncs) for name, t in terms.items()}
    det = sums.pop("det")
    return det.log(), {name: -N.divided_by(det).times_eps() for name, N in sums.items()}


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
    _check_sizes(eps_trunc, A.size, B.size)
    (a, b), zero = _embed(A, B)
    return _cut(_resolvent_vector_sum(a, b, eps_trunc, zero)[0], eps_trunc)


def weighted_resolvent_11(W: AMatrix, A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """(W (I - A B)^(-1)) (1,1), the variant the period matrix needs."""
    _check_sizes(eps_trunc, W.size, A.size, B.size)
    (w, a, b), zero = _embed(W, A, B)
    total = _resolvent_vector_sum(a, b, eps_trunc, zero)
    return _cut(_mat_vec(w, total, zero)[0], eps_trunc)


class PeriodData(_Record):
    """2*pi*i-normalized period data: d11 = 2pi i (O11 - tau1), d22 likewise,
    d12 = 2pi i O12."""
    _fields = ("d11", "d22", "d12")

    def __init__(self, d11: QSeries, d22: QSeries, d12: QSeries):
        super().__init__(d11, d22, d12)

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
    """log det(I - A1 A2(0)) and -eps N/det(I - A1 A2(0)) (N of "d11" in
    ``_minor_sums``) as polynomials in E2, E4, E6, each eps block expanded in
    q1 once.  Memoized: both results are immutable."""
    _check_sizes(eps_trunc, N)
    a = _Minors(lambda k, l: eisenstein_poly(k + l) * _moment_coeff(k, l), N, eps_trunc + 1,
                EisensteinPoly.const(1))
    b = _Minors(_pinched_coeff, N, eps_trunc + 1, Fraction(1))
    pieces = {"det": {}, "d11": {}}
    for name, n, sign, x, y in _cauchy_binet(eps_trunc, N):
        if name in pieces and b[y] and not a[x].is_zero():
            pieces[name].setdefault(n, []).append(
                (a[x].den * b.den ** len(y[0]), sign * b[y], a[x].nums.items()))
    det, num = ({n: p for n, terms in pieces[name].items()
                 if not (p := EisensteinPoly._made(*_sum_terms(terms))).is_zero()} for name in pieces)
    zero, q1_zero = EisensteinPoly(), QSeries.zero("q1", q1_trunc)

    def expanded(blocks, trunc):
        return QSeries.from_blocks("eps", {0: q1_zero, **{
            n: p.to_qseries(q1_trunc, "q1") for n, p in blocks.items()}}, trunc)

    delta = _quotient_blocks(num, det, eps_trunc, zero)
    return (expanded(_log_blocks(det, eps_trunc, zero), eps_trunc),
            expanded({n + 1: -p for n, p in delta.items()}, eps_trunc + 1))


def degenerate_logdet(q1_trunc: int, eps_trunc: int, N: int) -> QSeries:
    """log det(I - A1 A2(0)) on the pinched surface, as an eps-series over q1."""
    return _degenerate_sewing(q1_trunc, eps_trunc, N)[0]


def degenerate_tau(q1_trunc: int, eps_trunc: int, N: int) -> QSeries:
    """2pi i (tau - tau1) on the pinched surface, as an eps-series over q1:
    eps (A2(0) (I - A1 A2(0))^(-1))(1,1), memoized with the log-det."""
    return _degenerate_sewing(q1_trunc, eps_trunc, N)[1]
