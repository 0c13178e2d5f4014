"""Two-tori sewing data: moment matrices, determinant and resolvent expansions,
the genus-two period matrix, and the pinched-torus modular parameter.

The raw moment matrix has entries

    A_a(k,l) = eps^((k+l)/2) (-1)^(l+1) (k+l-1)! / (sqrt(kl) (k-1)! (l-1)!) E_{k+l}(q_a),

whose sqrt(kl) factors are removed here by conjugating with diag(sqrt(k)).
Determinants, traces and (1,1) entries are unchanged, and every stored entry
becomes rational.  Entries with k+l odd vanish identically (odd Eisenstein
series and odd Bernoulli numbers), so every surviving power of eps is an
integer and the matrices are built from the even k+l entries only.

Every sewing quantity is read off one set of powers P^n of P = A1 A2 (A2(0)
on the pinched surface): the log-det from their traces, and the period data and the pinched modulus from
the first row and column of sum_n P^n.  The matrix-vector resolvent chains
(``resolvent_11``, ``weighted_resolvent_11``) compute the same entries
another way.
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


def _embed(*mats: AMatrix):
    """Entry tuples of the matrices as series in one tuple of variables, eps
    followed by every q-variable of any of them, and the zero of that tuple
    at the smallest eps order among them.

    Each entry keeps its own orders; a q-variable it lacks enters with the
    order the other matrices give it.
    """
    orders = {}
    for m in mats:
        orders.update(zip(m.entries[0][0].vars, m.entries[0][0].truncs))
    vars = tuple(sorted(orders))            # "eps" sorts before "q1", "q2"

    def lift(e):
        return e.embed(vars, (e.truncs[0], *(orders[v] for v in vars[1:])))

    zero = QSeries.zero(vars, (min(m.eps_trunc for m in mats),
                               *(orders[v] for v in vars[1:])))
    return [tuple(tuple(map(lift, row)) for row in m.entries) for m in mats], zero


# -- matrix algebra over eps-series -------------------------------------------------


def _mat_mul(A, B, zero: QSeries):
    # Sums start from ``zero``, so every entry is cut to its eps order
    # whatever the matrix size.
    size = len(A)
    out = []
    for k in range(size):
        row = []
        for l in range(size):
            acc = zero
            for m in range(size):
                if A[k][m].is_zero() or B[m][l].is_zero():
                    continue
                acc = acc + A[k][m] * B[m][l]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _dot(u, v, zero: QSeries) -> QSeries:
    acc = zero
    for x, y in zip(u, v):
        if x.is_zero() or y.is_zero():
            continue
        acc = acc + x * y
    return acc


def _mat_vec(A, v, zero: QSeries):
    return [_dot(row, v, zero) for row in A]


def _check_sizes(A: AMatrix, B: AMatrix, eps_trunc: int):
    if A.size != B.size:
        raise SeriesError("matrix sizes differ")
    if A.size < eps_trunc:
        raise SeriesError("matrix size too small for requested eps order")


@dataclass(frozen=True)
class _PowerSums:
    """What the sewing quantities need from the powers of P = a b, for a and b
    embedded in one variable tuple with ``zero`` the zero of that tuple."""
    a: tuple
    b: tuple
    zero: QSeries
    logdet: QSeries         # -sum_{n>=1} Tr(P^n)/n = log det(I - P)
    row: list               # first row of sum_{n>=0} P^n = (I - P)^(-1)
    col: list               # its first column


def _power_sums(A: AMatrix, B: AMatrix, eps_trunc: int) -> _PowerSums:
    # One pass over P^n, 2n <= eps_trunc: every entry of P^n is O(eps^(2n)),
    # so the n-sums are exact at eps^eps_trunc.
    _check_sizes(A, B, eps_trunc)
    (a, b), zero = _embed(A, B)
    P = _mat_mul(a, b, zero)
    row = [zero + 1] + [zero] * (A.size - 1)
    col = list(row)
    logdet = zero
    power = P
    n = 1
    while 2 * n <= eps_trunc:
        if n > 1:
            power = _mat_mul(power, P, zero)
        tr = zero
        for k in range(A.size):
            tr = tr + power[k][k]
        logdet = logdet + tr * Fraction(-1, n)
        row = [r + x for r, x in zip(row, power[0])]
        col = [c + p[0] for c, p in zip(col, power)]
        n += 1
    return _PowerSums(a, b, zero, logdet, row, col)


def log_det_I_minus(A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """log det(I - A B) = -sum_{n>=1} Tr((A B)^n)/n, truncated at eps^eps_trunc.

    The n-sum is finite: Tr((A B)^n) = O(eps^(2n)).
    """
    return _power_sums(A, B, eps_trunc).logdet


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
    return _resolvent_vector_sum(a, b, eps_trunc, zero)[0]


def weighted_resolvent_11(W: AMatrix, A: AMatrix, B: AMatrix, eps_trunc: int) -> QSeries:
    """(W (I - A B)^(-1)) (1,1), the variant the period matrix needs."""
    _check_sizes(A, B, eps_trunc)
    if W.size != A.size:
        raise SeriesError("matrix sizes differ")
    (w, a, b), zero = _embed(W, A, B)
    total = _resolvent_vector_sum(a, b, eps_trunc, zero)
    return _mat_vec(w, total, zero)[0]


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


def sewing_data(q1_trunc: int, q2_trunc: int, eps_trunc: int,
                N: int) -> tuple[QSeries, PeriodData]:
    """log det(I - A1 A2) and the period data, from one set of powers of A1 A2.

    With R = (I - A1 A2)^(-1): d12 is -eps R(1,1), d11 is eps (A2 R)(1,1),
    and d22 is eps (A1 (I - A2 A1)^(-1))(1,1) = eps (R A1)(1,1) by the
    push-through identity.
    """
    s = _power_sums(a_matrix(1, N, eps_trunc, q1_trunc),
                    a_matrix(2, N, eps_trunc, q2_trunc), eps_trunc)
    d11 = _dot(s.b[0], s.col, s.zero).times_eps()
    d22 = _dot(s.row, [r[0] for r in s.a], s.zero).times_eps()
    d12 = -s.col[0].times_eps()
    return s.logdet, PeriodData(d11, d22, d12)


def period_matrix(q1_trunc: int, q2_trunc: int, eps_trunc: int, N: int) -> PeriodData:
    """Genus-two period matrix from the sewing expansion, in normalized form."""
    return sewing_data(q1_trunc, q2_trunc, eps_trunc, N)[1]


@lru_cache(maxsize=None)
def _degenerate_sewing(q1_trunc: int, eps_trunc: int, N: int) -> tuple[QSeries, QSeries]:
    # Memoized: both results are immutable and pure functions of the orders.
    s = _power_sums(a_matrix(1, N, eps_trunc, q1_trunc), a2_degenerate(N, eps_trunc),
                    eps_trunc)
    return s.logdet, _dot(s.b[0], s.col, s.zero).times_eps()


def degenerate_logdet(q1_trunc: int, eps_trunc: int, N: int) -> QSeries:
    """log det(I - A1 A2(0)) on the pinched surface, as an eps-series over q1."""
    return _degenerate_sewing(q1_trunc, eps_trunc, N)[0]


def degenerate_tau(q1_trunc: int, eps_trunc: int, N: int) -> QSeries:
    """2pi i (tau - tau1) on the pinched surface, as an eps-series over q1:
    eps (A2(0) (I - A1 A2(0))^(-1))(1,1), memoized with the log-det."""
    return _degenerate_sewing(q1_trunc, eps_trunc, N)[1]
