"""Two-tori sewing data: moment matrices, determinant and resolvent expansions,
the genus-two period matrix, and the pinched-torus modular parameter.

The raw moment matrix has entries

    A_a(k,l) = eps^((k+l)/2) (-1)^(l+1) (k+l-1)! / (sqrt(kl) (k-1)! (l-1)!) E_{k+l}(q_a),

whose sqrt(kl) factors are removed here by conjugating with diag(sqrt(k)).
Determinants, traces and (1,1) entries are unchanged, and every stored entry
becomes rational.  Entries with k+l odd vanish identically (odd Eisenstein
series and odd Bernoulli numbers), so every surviving power of eps is an
integer and the matrices are built from the even k+l entries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .series import (
    EpsSeries,
    QSeries,
    SeriesError,
    bernoulli,
    eisenstein,
)


@dataclass(frozen=True)
class AMatrix:
    """Truncated sewing-moment matrix with rational entries (sqrt(k) factors removed)."""
    size: int
    entries: tuple            # tuple of tuples of EpsSeries
    var: str | None           # q-variable of series coefficients; None if rational
    q_trunc: int              # q-order of series coefficients (0 for rational)
    eps_trunc: int

    def entry(self, k: int, l: int) -> EpsSeries:
        """1-based (k, l) entry."""
        return self.entries[k - 1][l - 1]


def _moment_matrix(N: int, eps_trunc: int, coeff, var: str | None,
                   q_trunc: int) -> AMatrix:
    # Entry (k, l) is coeff(k, l) eps^((k+l)/2) for even k+l <= 2 eps_trunc.
    if N < 1:
        raise ValueError("matrix size must be >= 1")
    zero = EpsSeries.zero(eps_trunc)
    rows = tuple(
        tuple(EpsSeries({(k + l) // 2: coeff(k, l)}, eps_trunc)
              if (k + l) % 2 == 0 and k + l <= 2 * eps_trunc else zero
              for l in range(1, N + 1))
        for k in range(1, N + 1))
    return AMatrix(N, rows, var, q_trunc, eps_trunc)


def a_matrix(torus: int, N: int, eps_trunc: int, q_trunc: int) -> AMatrix:
    """Conjugated moment matrix of torus 1 or 2 (series in q1 resp. q2)."""
    if torus not in (1, 2):
        raise ValueError("torus must be 1 or 2")
    var = f"q{torus}"

    def coeff(k, l):
        c = Fraction((-1) ** (l + 1) * factorial(k + l - 1),
                     l * factorial(k - 1) * factorial(l - 1))
        return eisenstein(k + l, q_trunc, var) * c

    return _moment_matrix(N, eps_trunc, coeff, var, q_trunc)


def a2_degenerate(N: int, eps_trunc: int) -> AMatrix:
    """Pinched-torus limit of the second moment matrix: Bernoulli entries."""
    def coeff(k, l):
        return Fraction((-1) ** l, l * (k + l) * factorial(k - 1) * factorial(l - 1)) \
            * bernoulli(k + l)

    return _moment_matrix(N, eps_trunc, coeff, None, 0)


def _embed(*mats: AMatrix) -> list:
    """Entry tuples of the matrices, over one coefficient ring.

    When a q1 matrix meets a q2 matrix, every q-series coefficient is
    embedded in the joint (q1, q2) ring.  Rational coefficients need no
    embedding: they multiply and add with any series.
    """
    q_truncs = {m.var: m.q_trunc for m in mats if m.var is not None}
    if len(q_truncs) < 2:
        return [m.entries for m in mats]
    vars = ("q1", "q2")
    truncs = (q_truncs["q1"], q_truncs["q2"])

    def lift(c):
        return c.embed(vars, truncs) if isinstance(c, QSeries) else c

    return [tuple(tuple(e.map_coeffs(lift) for e in row) for row in m.entries)
            for m in mats]


# -- matrix algebra over EpsSeries ------------------------------------------------


def _mat_mul(A, B, size: int, eps_trunc: int):
    out = []
    for k in range(size):
        row = []
        for l in range(size):
            acc = EpsSeries.zero(eps_trunc)
            for m in range(size):
                if A[k][m].is_zero() or B[m][l].is_zero():
                    continue
                acc = acc + A[k][m] * B[m][l]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_vec(A, v, size: int, eps_trunc: int):
    out = []
    for k in range(size):
        acc = EpsSeries.zero(eps_trunc)
        for m in range(size):
            if A[k][m].is_zero() or v[m].is_zero():
                continue
            acc = acc + A[k][m] * v[m]
        out.append(acc)
    return out


def _check_sizes(A: AMatrix, B: AMatrix, eps_trunc: int):
    if A.size != B.size:
        raise SeriesError("matrix sizes differ")
    if A.size < eps_trunc:
        raise SeriesError("matrix size too small for requested eps order")


def log_det_I_minus(A: AMatrix, B: AMatrix, eps_trunc: int) -> EpsSeries:
    """log det(I - A B) = -sum_{n>=1} Tr((A B)^n)/n, truncated at eps^eps_trunc.

    The n-sum is finite: Tr((A B)^n) = O(eps^(2n)).
    """
    _check_sizes(A, B, eps_trunc)
    a, b = _embed(A, B)
    et = min(A.eps_trunc, B.eps_trunc)
    P = _mat_mul(a, b, A.size, et)
    power = P
    out = EpsSeries.zero(et)
    n = 1
    while 2 * n <= eps_trunc:
        if n > 1:
            power = _mat_mul(power, P, A.size, et)
        tr = EpsSeries.zero(et)
        for k in range(A.size):
            tr = tr + power[k][k]
        out = out + tr * Fraction(-1, n)
        n += 1
    return out


def _resolvent_vector_sum(a, b, eps_trunc: int, et: int):
    # sum_{n>=0} (a b)^n e_1, computed by matrix-vector chains
    size = len(a)
    sample = next((c for row in a for e in row for c in e.coeffs.values()), Fraction(1))
    e1 = [EpsSeries.one(et, like=sample) if k == 0 else EpsSeries.zero(et)
          for k in range(size)]
    total = list(e1)
    v = e1
    n = 1
    while 2 * n <= eps_trunc:
        v = _mat_vec(a, _mat_vec(b, v, size, et), size, et)
        total = [t + x for t, x in zip(total, v)]
        n += 1
    return total


def resolvent_11(A: AMatrix, B: AMatrix, eps_trunc: int) -> EpsSeries:
    """(I - A B)^(-1) (1,1) by the geometric series."""
    _check_sizes(A, B, eps_trunc)
    a, b = _embed(A, B)
    et = min(A.eps_trunc, B.eps_trunc)
    return _resolvent_vector_sum(a, b, eps_trunc, et)[0]


def weighted_resolvent_11(W: AMatrix, A: AMatrix, B: AMatrix, eps_trunc: int) -> EpsSeries:
    """(W (I - A B)^(-1)) (1,1), the variant the period matrix needs."""
    _check_sizes(A, B, eps_trunc)
    if W.size != A.size:
        raise SeriesError("matrix sizes differ")
    w, a, b = _embed(W, A, B)
    et = min(A.eps_trunc, B.eps_trunc)
    total = _resolvent_vector_sum(a, b, eps_trunc, et)
    return _mat_vec(w, total, W.size, et)[0]


@dataclass(frozen=True)
class PeriodData:
    """2*pi*i-normalized period data: d11 = 2pi i (O11 - tau1), d22 likewise,
    d12 = 2pi i O12."""
    d11: EpsSeries
    d22: EpsSeries
    d12: EpsSeries

    def to_json(self) -> dict:
        return {"d11": self.d11.to_json(), "d22": self.d22.to_json(),
                "d12": self.d12.to_json()}


def period_matrix(q1_trunc: int, q2_trunc: int, eps_trunc: int, N: int) -> PeriodData:
    """Genus-two period matrix from the sewing expansion, in normalized form."""
    A1 = a_matrix(1, N, eps_trunc, q1_trunc)
    A2 = a_matrix(2, N, eps_trunc, q2_trunc)
    # d11 and d12 share the chain sum_n (A1 A2)^n e_1: the (1,1) entries of
    # A2 (I - A1 A2)^(-1) and (I - A1 A2)^(-1).
    _check_sizes(A1, A2, eps_trunc)
    a1, a2 = _embed(A1, A2)
    et = min(A1.eps_trunc, A2.eps_trunc)
    total = _resolvent_vector_sum(a1, a2, eps_trunc, et)
    d11 = _mat_vec(a2, total, N, et)[0].times_eps()
    d22 = weighted_resolvent_11(A1, A2, A1, eps_trunc).times_eps()
    d12 = -total[0].times_eps()
    return PeriodData(d11, d22, d12)


@lru_cache(maxsize=None)
def degenerate_tau(q1_trunc: int, eps_trunc: int, N: int) -> EpsSeries:
    """2pi i (tau - tau1) on the pinched surface, as a rational eps-series.

    Memoized: the result is immutable and a pure function of the orders.
    """
    A1 = a_matrix(1, N, eps_trunc, q1_trunc)
    A20 = a2_degenerate(N, eps_trunc)
    return weighted_resolvent_11(A20, A1, A20, eps_trunc).times_eps()
