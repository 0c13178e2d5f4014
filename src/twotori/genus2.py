"""Closed-form genus-two partition functions and the degeneration checks.

The pinched-torus limit q2 -> 0 is always taken algebraically: the second
moment matrix becomes its Bernoulli form, every q2-series collapses to its
constant term, and the q2^(C/24) prefactor cancels the eta(q2)^(-C) offset
by construction; the pinched log-det and modulus are exact polynomials in
E2, E4, E6 per power of eps, expanded in q1 once.  The limit of the
normalized partition function is then compared, order by order in the
sewing parameter, against two independent routes: an exact Taylor shift of
the genus-one data to the degenerate modulus, and the sum of 1-point
operators of the conformal-map vacuum descendants (the Zhu-recursion route).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm
from types import MappingProxyType

from .reports import Report
from .ring import _Record, rat, rat_str
from .series import QSeries, eisenstein, eta_normalized
from .sewing import degenerate_logdet, degenerate_tau, sewing_data
# virasoro and zhu are imported where the operator route runs, so the closed
# forms (``compute z2-module`` and the like) never load them.

# Header note for every degeneration report: the closed-form limit is taken
# with the q2^(r/24) normalization forced by eta(q2)^(-r) ~ q2^(-r/24) (and by
# the q2^(C/24) factor in the operator route); the source identity displays
# the prefactor as q2^(r/2).
PREFACTOR_NOTE = ("q2 -> 0 limit normalized by q2^(C/24) (eta asymptotics); "
                  "the displayed q2^(r/2) prefactor is read as q2^(r/24)")


class ModulePair(_Record):
    """Pairing data of the two modules glued at the sewing: rank plus the
    three inner products alpha.alpha, beta.beta, alpha.beta."""
    _fields = ("rank", "alpha_sq", "beta_sq", "alpha_dot_beta")

    def __init__(self, rank: int = 1, alpha_sq=0, beta_sq=0, alpha_dot_beta=0):
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        super().__init__(rank, rat(alpha_sq), rat(beta_sq), rat(alpha_dot_beta))


def _times_q(s: QSeries, f: QSeries) -> QSeries:
    """The eps-series s times f, a series in the other variables of s."""
    return s * f.embed(s.vars, (s.truncs[0], *f.truncs))


def taylor_shift(f: QSeries, delta: QSeries) -> QSeries:
    """sum_l (delta^l / l!) qd^l f: f at the shifted modulus, order by order,
    for an eps-series delta over the variable of f."""
    powers = _taylor_weights(delta)
    out = _times_q(powers[0], f)
    df = f
    for dpow in powers[1:]:
        df = df.qd()
        out = out + _times_q(dpow, df)
    return out


@lru_cache(maxsize=None)
def _taylor_weights(delta: QSeries) -> tuple:
    """(delta^l / l!) for l = 0, 1, ..., up to the last power that is
    nonzero to the eps order of delta.

    Memoized per delta: every shift to one modulus reads one table, and the
    powers are immutable.
    """
    dpow = QSeries.one(delta.vars, delta.truncs)
    powers = [dpow]
    ord_ = max(delta._ord_bounds()[0], 1)
    for l in range(1, delta.truncs[0] // ord_ + 1):
        dpow = dpow * delta * Fraction(1, l)
        if dpow.is_zero():
            break
        powers.append(dpow)
    return tuple(powers)


# -- closed forms -----------------------------------------------------------------


def _eta_prefactor(q1_trunc: int, q2_trunc: int) -> QSeries:
    # (eta(q1) eta(q2))^-1, the eta factor of the rank-1 free boson.
    vars, truncs = ("q1", "q2"), (q1_trunc, q2_trunc)
    return (eta_normalized(q1_trunc, "q1").inv().embed(vars, truncs)
            * eta_normalized(q2_trunc, "q2").inv().embed(vars, truncs))


def z2_heisenberg(q1_trunc: int, q2_trunc: int, eps_trunc: int) -> QSeries:
    """Rank-1 free-boson genus-two partition function,
    (eta(q1) eta(q2))^-1 det(I - A1 A2)^(-1/2): the module pair of zero pairing."""
    return z2_module_pair(ModulePair(), q1_trunc, q2_trunc, eps_trunc)


def z2_module_pair(p: ModulePair, q1_trunc: int, q2_trunc: int, eps_trunc: int) -> QSeries:
    """Module-pair partition function over the rank-r free boson,
    exp(-(r/2) log det(I - A1 A2) + arg) (eta(q1) eta(q2))^-r q1^(a.a/2) q2^(b.b/2).

    The exponential period factor is exact here: e^{i pi a.a O11} equals
    q1^(a.a/2) e^{a.a d11/2} in the normalized period data, so no
    transcendental constants enter.  The sewing pass sums only the period
    entries of nonzero pairing.
    """
    pairing = {"d11": p.alpha_sq / 2, "d22": p.beta_sq / 2, "d12": p.alpha_dot_beta}
    pairing = {name: c for name, c in pairing.items() if c}
    logdet, d = sewing_data(q1_trunc, q2_trunc, eps_trunc, tuple(pairing))
    arg = logdet * Fraction(-p.rank, 2)
    for name, c in pairing.items():
        arg = arg + d[name] * c
    mono = QSeries(("q1", "q2"), {(0, 0): 1}, (q1_trunc, q2_trunc),
                   offsets=(p.alpha_sq / 2, p.beta_sq / 2))
    return _times_q(arg.exp(), _eta_prefactor(q1_trunc, q2_trunc) ** p.rank * mono)


def z2_heisenberg_degenerate(q1_trunc: int, eps_trunc: int) -> QSeries:
    """lim q2^(1/24) Z^(2) for the rank-1 free boson:
    eta(q1)^-1 det(I - A1 A2(0))^(-1/2), the module limit of zero pairing."""
    return z2_module_degenerate(ModulePair(), q1_trunc, eps_trunc)


def z2_module_degenerate(p: ModulePair, q1_trunc: int, eps_trunc: int) -> QSeries:
    """lim q2^(r/24) Z^(2)_{alpha,0}: the pinched closed form (beta must be 0).

    Memoized per pair and orders, so the free boson and the pair of zero
    pairing share one result.
    """
    if p.beta_sq != 0 or p.alpha_dot_beta != 0:
        raise ValueError("degenerate module limit needs beta = 0")
    return _z2_module_degenerate(p, q1_trunc, eps_trunc)


@lru_cache(maxsize=None)
def _z2_module_degenerate(p: ModulePair, q1_trunc: int, eps_trunc: int) -> QSeries:
    det = _degenerate_det(q1_trunc, eps_trunc, p.rank)
    if p.alpha_sq:
        det = det * (degenerate_tau(q1_trunc, eps_trunc) * (p.alpha_sq / 2)).exp()
    pre = QSeries.monomial("q1", p.alpha_sq / 2, q1_trunc) * _eta_inverse(q1_trunc) ** p.rank
    return _times_q(det, pre)


@lru_cache(maxsize=None)
def _eta_inverse(q1_trunc: int) -> QSeries:
    # eta(q1)^-1, the genus-one factor of every pinched closed form; memoized
    # and immutable like the forms themselves.
    return eta_normalized(q1_trunc, "q1").inv()


@lru_cache(maxsize=None)
def _degenerate_det(q1_trunc: int, eps_trunc: int, r: int) -> QSeries:
    """det(I - A1 A2(0))^(-r/2) = exp(-(r/2) log det(I - A1 A2(0))), as an
    eps-series over q1.

    Memoized: the result is immutable and a pure function of the orders and
    r.  It reads ``degenerate_logdet`` through this module's namespace, so a
    patched log-det reaches it once the caches are cleared.
    """
    return (degenerate_logdet(q1_trunc, eps_trunc) * Fraction(-r, 2)).exp()


@lru_cache(maxsize=None)
def _heisenberg_normalizer(q1_trunc: int, eps_trunc: int, r: int) -> QSeries:
    """(lim q2^(1/24) Z^(2) of the free boson)^r eta(q1)^r, the normalizer of
    the theta pairs of rank r: its eps^0 block is exactly 1, so it divides
    block by block (``QSeries.divided_by``); memoized like ``_degenerate_det``."""
    lim = z2_heisenberg_degenerate(q1_trunc, eps_trunc)
    return _times_q(lim, eta_normalized(q1_trunc, "q1")) ** r


# -- the operator-valued degeneration sum -------------------------------------------

# Variables of the eps coefficients of H_l: the base modulus and the central charge.
H_VARS = ("q1", "C")


class OperatorEpsSeries(_Record):
    """sum_n eps^n (Theta-basis 1-point operator of the weight-n descendant):
    the q2 -> 0 limit of q2^(C/24) Z^(2) as an operator on the base."""
    _fields = ("terms", "eps_trunc", "q_trunc")

    def __init__(self, terms, eps_trunc: int, q_trunc: int):
        # terms: eps power -> DiffOp (Theta basis), held read-only, since
        # degeneration_sum shares one instance between callers.
        super().__init__(MappingProxyType(dict(terms)), eps_trunc, q_trunc)

    def specialize(self, base: BasePartition) -> QSeries:
        from .zhu import specialize
        return QSeries.from_blocks("eps", {n: specialize(op, base)
                                           for n, op in self.terms.items()}, self.eps_trunc)

    def extract_H(self, l: int) -> QSeries:
        """Coefficient of qd^l Theta in the degeneration sum: H_l(q1, C, eps).

        A series in ("eps",) + H_VARS: the eps^n block holds the C^j q1^m
        coefficients of the weight-n operator's qd^l part.  C is known
        through C^eps_trunc, which covers every degree the Theta basis
        allows (j <= n/2).
        """
        if l < 0:
            raise ValueError("derivative order must be >= 0")
        if l not in self._H:
            return QSeries.zero(("eps", *H_VARS), (self.eps_trunc, self.q_trunc, self.eps_trunc))
        return self._H[l]

    @cached_property
    def _H(self) -> dict:
        # l -> H_l for every l that occurs, from one pass over the integer
        # numerators of every operator's q-expansions.
        parts = {}
        for n, op in self.terms.items():
            for (l, j), s in op.series().items():
                parts.setdefault(l, []).append((n, j, s))
        truncs = (self.eps_trunc, self.q_trunc, self.eps_trunc)
        H = {}
        for l, group in parts.items():
            den = lcm(*(s.den for _, _, s in group))
            nums = {(n, m, j): v * (den // s.den)
                    for n, j, s in group for (m,), v in s.nums.items()}
            H[l] = QSeries._reduced(("eps", *H_VARS), nums, den, truncs, (Fraction(0),) * 3)
        return H


@lru_cache(maxsize=None)
def degeneration_sum(max_weight: int, q_trunc: int) -> OperatorEpsSeries:
    """Assemble the operator-valued eps-series from the vacuum descendants.

    Memoized: the result is read-only and a pure function of the orders.
    """
    from .virasoro import lambda_vector
    from .zhu import one_point, to_theta_basis
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    lam = lambda_vector(max_weight)
    terms = {}
    for n in range(0, max_weight + 1, 2):
        if lam[n].is_zero():
            continue
        op = to_theta_basis(one_point(lam[n], q_trunc))
        if not op.is_zero():
            terms[n] = op
    return OperatorEpsSeries(terms, max_weight, q_trunc)


# -- verification suites -------------------------------------------------------------


def _fmt_eps(series: QSeries, eps_trunc: int) -> str:
    return str(series.truncate((min(eps_trunc, series.truncs[0]), *series.truncs[1:])))


def verify_detHi(eps_trunc: int = 8, q_trunc: int = 6) -> Report:
    """Check H_l = det(I - A1 A2(0))^(-C/2) delta^l / l! identically in C.

    Both sides are eps-series over (q1, C)-series.  The left side comes from
    the Zhu-recursion operators of the vacuum descendants; the right side
    from the Bernoulli moment matrix.  One equality per l <= eps_trunc/2
    (H_l = O(eps^(2l)) vanishes beyond), plus the structural bounds n >= 2l
    and j <= n/2 - l.
    """
    report = Report(title="determinant form of the degeneration coefficients",
                    notes=[PREFACTOR_NOTE])
    ds = degeneration_sum(eps_trunc, q_trunc)
    vars, truncs = ("eps", *H_VARS), (eps_trunc, q_trunc, eps_trunc)

    def lift(s):
        # An eps-series over q1 as a series in (eps, q1, C), constant in C.
        return s.embed(vars, (*s.truncs, eps_trunc))

    delta = lift(degenerate_tau(q_trunc, eps_trunc))
    logdet = lift(degenerate_logdet(q_trunc, eps_trunc))
    det = (logdet * QSeries(vars, {(0, 0, 1): Fraction(-1, 2)}, truncs)).exp()
    det_delta_l = det
    for l in range(eps_trunc // 2 + 1):
        if l:
            det_delta_l = det_delta_l * delta
        lhs = ds.extract_H(l)
        rhs = det_delta_l * Fraction(1, factorial(l))
        ok = lhs.agrees_with(rhs, truncs)
        report.add(f"H_{l} == det(I-A1*A2(0))^(-C/2) * delta^{l}/{l}!", ok,
                   order=f"eps<={eps_trunc}, q<={q_trunc}, symbolic C",
                   expected=str(rhs) if not ok else "",
                   computed=str(lhs) if not ok else "")
        report.add(f"H_{l} = O(eps^{2 * l})", lhs._ord_bounds()[0] >= 2 * l,
                   order=f"eps<={eps_trunc}")
        bound_ok = all(2 * j <= n - 2 * l for n, _, j in lhs.nums)
        report.add(f"C-degree of H_{l} bounded by n/2 - {l}", bound_ok,
                   order=f"eps<={eps_trunc}")
    return report


def verify_heisenberg_degeneration(eps_trunc: int = 6, q_trunc: int = 10) -> Report:
    """Free-boson pinching: lim q2^(1/24) Z^(2) against the shifted genus-one
    function, including the intermediate expansions from the proof."""
    if eps_trunc < 4:
        raise ValueError("the free-boson degeneration checks need eps_trunc >= 4")
    report = Report(title="free-boson torus degeneration", notes=[PREFACTOR_NOTE])
    e2 = eisenstein(2, q_trunc, "q1")
    e4 = eisenstein(4, q_trunc, "q1")
    delta = degenerate_tau(q_trunc, eps_trunc)
    eta1 = eta_normalized(q_trunc, "q1")

    def check_coeff(name, series, n, expected):
        got = series.block(n)
        ok = got.agrees_with(expected, through=min(q_trunc, got.trunc, expected.trunc))
        report.add(name, ok, order=f"q<={q_trunc}",
                   expected=str(expected) if not ok else "",
                   computed=str(got) if not ok else "")

    # eta(q) = eta(q1) [1 + E2/24 eps^2 - (E2^2/1152 + 5 E4/576) eps^4 + ...]
    eta_ratio = _times_q(taylor_shift(eta1, delta), _eta_inverse(q_trunc))
    check_coeff("eta(q)/eta(q1) at eps^2", eta_ratio, 2, e2 * Fraction(1, 24))
    check_coeff("eta(q)/eta(q1) at eps^4", eta_ratio, 4,
                -(e2 * e2 * Fraction(1, 1152) + e4 * Fraction(5, 576)))

    # 1/eta(q) = (1/eta(q1)) [1 - E2/24 eps^2 + (E2^2/384 + 5 E4/576) eps^4 + ...]
    z1 = taylor_shift(_eta_inverse(q_trunc), delta)
    z1_ratio = _times_q(z1, eta1)
    check_coeff("eta(q)^-1 ratio at eps^2", z1_ratio, 2, e2 * Fraction(-1, 24))
    check_coeff("eta(q)^-1 ratio at eps^4", z1_ratio, 4,
                e2 * e2 * Fraction(1, 384) + e4 * Fraction(5, 576))

    # det(I - A1 A2(0))^(-1/2) = 1 - E2/24 eps^2 + (E2^2/384 + E4/96) eps^4 + ...
    det = _degenerate_det(q_trunc, eps_trunc, 1)
    check_coeff("det^(-1/2) at eps^2", det, 2, e2 * Fraction(-1, 24))
    check_coeff("det^(-1/2) at eps^4", det, 4,
                e2 * e2 * Fraction(1, 384) + e4 * Fraction(1, 96))

    # lim q2^(1/24) Z^(2) / Z^(1)(q) = 1 + 0 eps^2 + E4/576 eps^4 + O(eps^6)
    lim = _heisenberg_normalizer(q_trunc, eps_trunc, 1)  # the limit times eta(q1)
    ratio = lim.divided_by(z1_ratio)
    check_coeff("degeneration ratio at eps^0", ratio, 0, QSeries.one("q1", q_trunc))
    check_coeff("degeneration ratio at eps^2", ratio, 2, QSeries.zero("q1", q_trunc))
    check_coeff("degeneration ratio at eps^4", ratio, 4, e4 * Fraction(1, 576))
    report.add("only even eps powers appear", lim.is_even() and ratio.is_even(),
               order=f"eps<={eps_trunc}")
    return report


def verify_theta_degeneration(p: ModulePair, eps_trunc: int = 8, q_trunc: int = 6) -> Report:
    """Main degeneration statement for a beta = 0 module pair at C = rank.

    Three routes to lim_{q2->0}: (a) the closed forms, the pair's limit over
    the free boson's to the r-th, both times eta(q1)^r so that the divisor's
    eps^0 block is 1; (b) the Taylor-shifted genus-one normalized function;
    (c) the Zhu-recursion operator sum.  The report records (a) == (b) and
    (c) against both.
    """
    if p.beta_sq != 0 or p.alpha_dot_beta != 0:
        raise ValueError("theta degeneration check needs beta = 0")
    r = p.rank
    report = Report(
        title=f"torus degeneration of the normalized partition function "
              f"(alpha^2={rat_str(p.alpha_sq)}, r={r})",
        notes=[PREFACTOR_NOTE])

    delta = degenerate_tau(q_trunc, eps_trunc)
    eta1 = eta_normalized(q_trunc, "q1")
    theta1 = QSeries.monomial("q1", p.alpha_sq / 2, q_trunc)

    unnormalized = _times_q(z2_module_degenerate(p, q_trunc, eps_trunc), eta1 ** r)
    theta_lim = unnormalized.divided_by(_heisenberg_normalizer(q_trunc, eps_trunc, r))  # (a)
    theta_taylor = taylor_shift(theta1, delta)        # (b)
    ds = degeneration_sum(eps_trunc, q_trunc)
    from .zhu import BasePartition
    zhu_side = ds.specialize(BasePartition(theta1, Fraction(r)))  # (c)

    through = (eps_trunc, q_trunc)
    ok_ab = theta_lim.agrees_with(theta_taylor, through)
    report.add("lim Theta^(2) == Theta^(1)(q) (closed form vs Taylor shift)",
               ok_ab, order=f"eps<={eps_trunc}, q<={q_trunc}",
               expected="" if ok_ab else _fmt_eps(theta_taylor, eps_trunc),
               computed="" if ok_ab else _fmt_eps(theta_lim, eps_trunc))

    ok_c = zhu_side.agrees_with(unnormalized, through)
    report.add("Zhu-recursion degeneration sum == closed-form limit "
               "(eta^r reattached)", ok_c,
               order=f"eps<={eps_trunc}, q<={q_trunc}",
               expected="" if ok_c else _fmt_eps(unnormalized, eps_trunc),
               computed="" if ok_c else _fmt_eps(zhu_side, eps_trunc))

    det_r = _degenerate_det(q_trunc, eps_trunc, r)
    ok_cross = zhu_side.agrees_with(det_r * theta_taylor, through)
    report.add("operator route == det^(-r/2) * shifted Theta^(1)", ok_cross,
               order=f"eps<={eps_trunc}, q<={q_trunc}")

    report.add("only even eps powers appear",
               theta_lim.is_even() and zhu_side.is_even(),
               order=f"eps<={eps_trunc}")
    return report
