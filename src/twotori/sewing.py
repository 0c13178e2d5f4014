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
pinched surface) taken separately (``_sewing_pass``), exactly in
Q[E(q1)] (x) Q[E(q2)] (Q[E(q1)] when pinched), since c_a(k, l) is a
rational times E_{k+l}(q_a) and c(k, l) of A2(0) a rational.  The two-tori
blocks, and the closed forms that ``genus2`` exponentiates from them, are
expanded in q from one table per call of the monomials E2^a E4^b E6^c times
a mantissa (``_Expansions``), which both tori share when their mantissas
agree.  ``log_det_I_minus`` and the resolvent chains (``resolvent_11``,
``weighted_resolvent_11``) compute the same data from q-series entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from types import MappingProxyType

from .ring import (
    EisensteinPoly,
    RationalPoly,
    SeriesError,
    _Record,
    _lowest_terms,
    _outer,
    _sum_terms,
    bernoulli,
    eisenstein_poly,
    monomial_str,
)
from .series import QSeries, _log_blocks, _monomial_qseries, _quotient_blocks, eisenstein


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


@lru_cache(maxsize=None)
def _index_pairs(limit: int) -> tuple:
    """(S, U, sum(S) + sum(U)) for the increasing index tuples S, U with |S|
    = |U|, equally many odd indices and sum(S) + sum(U) <= limit: the (S, U)
    whose products det A[S, U] det B[U, S], of order eps^(sum(S) + sum(U)),
    can be nonzero through eps^limit: c(k, l) = 0 for odd k + l, so det
    c[S, U] = 0 unless S and U hold equally many odd indices.  Every index
    is below ``limit``, so the moment matrices' size never enters."""
    subsets = [()]
    for S in subsets:                       # grows while it is read
        subsets.extend(S + (x,) for x in range(S[-1] + 1 if S else 1, limit - sum(S) + 1))
    groups = {}
    for S in subsets:
        groups.setdefault((len(S), sum(x % 2 for x in S)), []).append((S, sum(S)))
    return tuple((S, U, s + u) for group in groups.values()
                 for S, s in group for U, u in group if s + u <= limit)


class _Minors(dict):
    """det c[S, U] for a moment matrix with entries A(k, l) = c(k, l)
    eps^((k+l)/2), keyed on (S, U) and computed on first use by Laplace
    expansion along the first row, so each minor is computed once.

    c(k, l) (k + l even, at most ``limit``) is read once, an element of any
    ring whose unit is ``one``: a polynomial in ``_sewing_pass``, an int in
    ``_degenerate_sewing``, a series or a rational in ``log_det_I_minus``.
    """

    def __init__(self, coeff, limit: int, one):
        super().__init__({((), ()): one})
        self.c = {(k, l): coeff(k, l) for k in range(1, limit) for l in range(1, limit + 1 - k)
                  if (k + l) % 2 == 0}
        self.zero = one * 0

    def __missing__(self, key):
        S, U = key
        s, rows = S[0], S[1:]
        acc = self.zero
        for j, u in enumerate(U):
            if (s + u) % 2:
                continue
            sub = self[rows, U[:j] + U[j + 1:]]
            if sub == self.zero:
                continue
            term = self.c[s, u] * sub
            acc = acc - term if j % 2 else acc + term
        self[key] = acc
        return acc


def _cauchy_binet(limit: int):
    """(name, n, sign, (S, U), (U', S')) for each term sign det A[S, U]
    det B[U', S'] at eps^n <= eps^limit of det(I - A B) ("det") and of the
    numerators N of "d11", "d22" and "d12" (see ``_sewing_pass``)."""
    for S, U, n in _index_pairs(limit + 1):
        sign = -1 if len(S) % 2 else 1
        if n <= limit:
            yield "det", n, sign, (S, U), (U, S)
            if 1 not in S:
                yield "d12", n, sign, (S, U), (U, S)
        if S[:1] == U[:1] == (1,):
            yield "d11", n - 1, sign, (S[1:], U[1:]), (U, S)
            yield "d22", n - 1, sign, (S, U), (U[1:], S[1:])


def log_det_I_minus(A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """log det(I - A B), truncated at eps^eps_trunc (and at the matrices' own
    eps order), by Cauchy-Binet with one series product of minors per term
    in the q-variables of both matrices: the reference for ``_sewing_pass``."""
    _check_sizes(eps_trunc, A.size, B.size)
    T = min(eps_trunc, A.eps_trunc, B.eps_trunc)
    mats, zero = _embed(A, B)
    block_zero = zero.block_zero()
    a, b = [_Minors(lambda k, l: m[k - 1][l - 1].block((k + l) // 2), T + 1, block_zero + 1)
            for m in mats]
    blocks = {}
    for S, U, n in _index_pairs(T):
        term = a[S, U] * b[U, S]
        blocks[n] = blocks.get(n, block_zero) + (-term if len(S) % 2 else term)
    return QSeries.from_blocks("eps", blocks, T).log()


# -- the sewing pass in the rings of quasimodular forms ------------------------------


class _Rationals(RationalPoly):
    """Q as a ring with no generators: its one monomial is ()."""

    __slots__ = ()

    @staticmethod
    def _monomial_str(k) -> str:
        return ""


class _EisensteinPair(RationalPoly):
    """An exact polynomial in E2, E4, E6 of q1 and of q2, keyed by
    (a, b, c, a', b', c') for E2^a E4^b E6^c(q1) E2^a' E4^b' E6^c'(q2)."""

    __slots__ = ()

    @staticmethod
    def _monomial_str(k) -> str:
        return monomial_str(*zip(("E2(q1)", "E4(q1)", "E6(q1)", "E2(q2)", "E4(q2)", "E6(q2)"), k))

    def to_qseries(self, t1: "_Expansions", t2: "_Expansions", offsets: tuple) -> QSeries:
        """The (q1, q2)-expansion times the tables' mantissas and q1^o1 q2^o2,
        (o1, o2) = ``offsets``: sum_m X_m(q1) (x) sum_m' c_{m,m'} X_m'(q2), X
        the table entries, summed row by row in ints over one denominator."""
        rows = {}
        for k, v in self.nums.items():
            rows.setdefault(k[:3], []).append((t2[k[3:]], v))
        pieces = [(t1[m], *_sum_terms((x.den, v, x.nums.items()) for x, v in row))
                  for m, row in rows.items()]
        den, acc = lcm(*(x.den * d for x, _, d in pieces)), {}
        for x, y, d in pieces:
            s, y = den // (x.den * d), list(y.items())
            for i, a in x.nums.items():
                row, a = acc.setdefault(i, {}), a * s
                for j, b in y:
                    row[j] = row.get(j, 0) + a * b
        return QSeries._reduced(("q1", "q2"), {i + j: v for i, row in acc.items()
                                               for j, v in row.items() if v},
                                den * self.den, (t1.trunc, t2.trunc), offsets)


class _Expansions(dict):
    """E2^a E4^b E6^c, keyed (a, b, c), expanded times the mantissa of a
    one-variable x (not its offset): one product per entry, on first use."""

    def __init__(self, x: QSeries):
        self.trunc, self.u = x.trunc, x.renamed("q")

    def __missing__(self, m):
        x = _monomial_qseries(m, self.trunc)
        if (self.u.nums, self.u.den) != ({(0,): 1}, 1):  # the mantissa 1 costs no product
            x = x * self.u if any(m) else self.u
        self[m] = x
        return x


def _pair_expander(x1: QSeries, x2: QSeries):
    """p -> ``p.to_qseries`` times x1(q1) x2(q2), one-variable series whose
    mantissas have a nonzero constant term and share one table when equal."""
    t1 = _Expansions(x1)
    t2 = t1 if (x1.nums, x1.den, x1.trunc) == (x2.nums, x2.den, x2.trunc) else _Expansions(x2)
    return lambda p: p.to_qseries(t1, t2, (x1.offset, x2.offset))


def _sewing_pass(ring, eps_trunc: int, wanted, b=None):
    """log det(I - A B) and {name: -eps N/det(I - A B)} for the numerator N
    of each name in ``wanted``, from the minors of A = A1 in E2, E4, E6 of q1
    and of B: ``b`` in other generators (A2(0) in Q on the pinched surface),
    or else A2 read from A1's own table, since c(k, l) E_{k+l} is the same
    polynomial in E(q2) as in E(q1) and only its key position in ``_outer``
    puts a minor in q2.  Exact in ``ring``: {n: block}, one polynomial per
    power of eps, for the log-det and for each entry.

    Cauchy-Binet on the principal minors of A B gives
        det(I - A B) = sum_{|S|=|U|} (-1)^|S| det A[S,U] det B[U,S],
    a term of order eps^(sum S + sum U); N of "d12" = -eps R(1,1), R =
    (I - A B)^(-1), is the same sum over S without 1 (the (1,1) cofactor).
    The N of "d11" = eps (B R)(1,1) and "d22" = eps (R A)(1,1) are
    d/dt det(I - A B) at A + t E11 and at B + t E11 (matrix determinant
    lemma), with terms det A[S-1,U-1] det B[U,S] and det A[S,U]
    det B[U-1,S-1] for 1 in S and U, of order eps^(sum S + sum U - 1).
    Each term is the outer product of two minors' numerators, and each eps
    block of a sum is one ``_sum_terms``.
    """
    if eps_trunc < 1:
        raise ValueError("eps order must be >= 1")
    a = _Minors(lambda k, l: eisenstein_poly(k + l) * _moment_coeff(k, l), eps_trunc + 1,
                EisensteinPoly.const(1))
    b = a if b is None else b
    pieces = {name: {} for name in ("det", *wanted)}
    for name, n, sign, x, y in _cauchy_binet(eps_trunc):
        if name in pieces and not (mx := a[x]).is_zero() and not (my := b[y]).is_zero():
            pieces[name].setdefault(n, []).append((mx.den * my.den, sign,
                                                   _outer(mx.nums, my.nums)))
    det, *nums = ({n: p for n, terms in pieces[name].items()
                   if not (p := ring._made(*_sum_terms(terms))).is_zero()} for name in pieces)
    one = ring._made(dict(_outer(a[(), ()].nums, b[(), ()].nums)), 1)  # the empty minors
    return _log_blocks(det, eps_trunc, one), {name: {
        n + 1: -p for n, p in _quotient_blocks(N, det, eps_trunc, one).items()}
        for name, N in zip(wanted, nums)}


def _eps_series(blocks: dict, trunc: int, expand, zero) -> QSeries:
    # The eps-series of ring blocks {n: p}, each block expanded in q once.
    return QSeries.from_blocks("eps", {0: expand(zero), **{
        n: expand(p) for n, p in blocks.items()}}, trunc)


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


def sewing_data(q1_trunc: int, q2_trunc: int, eps_trunc: int, wanted=()) -> tuple[QSeries, dict]:
    """log det(I - A1 A2) and {name: entry} for each period entry named in
    ``wanted`` ("d11", "d22", "d12"), from one table of minors of A1 and A2.

    With R = (I - A1 A2)^(-1): d12 is -eps R(1,1), d11 is eps (A2 R)(1,1),
    and d22 is eps (A1 (I - A2 A1)^(-1))(1,1) = eps (R A1)(1,1) by the
    push-through identity.  An entry not asked for costs nothing.
    """
    logdet, d = _sewing_pass(_EisensteinPair, eps_trunc, wanted)
    expand = _pair_expander(QSeries.one("q1", q1_trunc), QSeries.one("q2", q2_trunc))
    return _eps_series(logdet, eps_trunc, expand, _EisensteinPair()), {name: _eps_series(
        blocks, eps_trunc + 1, expand, _EisensteinPair()) for name, blocks in d.items()}


def period_matrix(q1_trunc: int, q2_trunc: int, eps_trunc: int) -> PeriodData:
    """Genus-two period matrix from the sewing expansion, in normalized form."""
    return PeriodData(**sewing_data(q1_trunc, q2_trunc, eps_trunc, ("d11", "d22", "d12"))[1])


@lru_cache(maxsize=None)
def _degenerate_sewing(eps_trunc: int) -> tuple[dict, dict]:
    """The blocks {n: p} in Q[E2, E4, E6] of log det(I - A1 A2(0)) and delta
    (the "d11" of ``_sewing_pass``), read-only and memoized per eps order.
    A2(0)'s minors are those of the integers D c(k, l), D the lcm of the
    denominators, over D^|S|: one content gcd per minor."""
    D = lcm(*(_pinched_coeff(k, n - k).denominator
              for n in range(2, eps_trunc + 2, 2) for k in range(1, n)))
    ints = _Minors(lambda k, l: (_pinched_coeff(k, l) * D).numerator, eps_trunc + 1, 1)
    b = {(U, S): _Rationals._made(*_lowest_terms({(): m} if (m := ints[U, S]) else {},
                                                 D ** len(S)))
         for S, U, n in _index_pairs(eps_trunc + 1)
         if n <= eps_trunc or S[:1] == U[:1] == (1,)}      # the minors the pass reads
    logdet, d = _sewing_pass(EisensteinPoly, eps_trunc, ("d11",), b)
    return MappingProxyType(logdet), MappingProxyType(d["d11"])


def degenerate_logdet(q1_trunc: int, eps_trunc: int) -> QSeries:
    """log det(I - A1 A2(0)) on the pinched surface, as an eps-series over q1."""
    return _eps_series(_degenerate_sewing(eps_trunc)[0], eps_trunc,
                       lambda p: p.to_qseries(q1_trunc, "q1"), EisensteinPoly())


def degenerate_tau(q1_trunc: int, eps_trunc: int) -> QSeries:
    """2pi i (tau - tau1) on the pinched surface, as an eps-series over q1:
    eps (A2(0) (I - A1 A2(0))^(-1))(1,1), read from the log-det's memo."""
    return _eps_series(_degenerate_sewing(eps_trunc)[1], eps_trunc + 1,
                       lambda p: p.to_qseries(q1_trunc, "q1"), EisensteinPoly())
