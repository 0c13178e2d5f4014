"""Closed-form genus-two partition functions and the degeneration checks.

The pinched-torus limit q2 -> 0 is always taken algebraically: the second
moment matrix becomes its Bernoulli form, every q2-series collapses to its
constant term, and the q2^(C/24) prefactor cancels the eta(q2)^(-C) offset
by construction; the pinched log-det and modulus are exact polynomials in
E2, E4, E6 per power of eps, memoized per eps order.  The limit of the
normalized partition function is then compared, order by order in the
sewing parameter, against two independent routes: an exact Taylor shift of
the genus-one data to the degenerate modulus, and the sum of 1-point
operators of the conformal-map vacuum descendants (the Zhu-recursion route).
Every suite compares exact polynomials per power of eps, so its identities
hold at every q-order; only a failed check is expanded in q, to print it.

Each closed form is one exp in its ring, Q[E(q1)] (x) Q[E(q2)] on two tori
and the operator ring Q[qd, C, E2, E4, E6] (``ring.OperatorPoly``) of the
Zhu operators when pinched, and is expanded in q once per power of eps: on
two tori from one table of E2^a E4^b E6^c times eta^(-r), shared by both
tori at one q-order, with q_a^(pairing/2 - r/24) attached at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .reports import Report
from .ring import EisensteinPoly, OperatorPoly, _eta_power, _Record, _sum_terms, rat, rat_str
from .series import QSeries, _exp_blocks, _monomial_qseries, _quotient_blocks, eta_normalized
from .sewing import (_degenerate_sewing, _EisensteinPair, _eps_series, _pair_expander,
                     _sewing_pass)
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
    entries of nonzero pairing, and the exponent and its exp run in
    Q[E(q1)] (x) Q[E(q2)]: each eps block is expanded once, times the
    one-variable factors eta(q_a)^-r q_a^(pairing/2), from one shared table.
    """
    pairing = {"d11": p.alpha_sq / 2, "d22": p.beta_sq / 2, "d12": p.alpha_dot_beta}
    pairing = {name: c for name, c in pairing.items() if c}
    logdet, d = _sewing_pass(_EisensteinPair, eps_trunc, tuple(pairing))
    arg = {n: x * Fraction(-p.rank, 2) for n, x in logdet.items()}
    for name, c in pairing.items():
        for n, x in d[name].items():
            if n <= eps_trunc:
                arg[n] = arg[n] + x * c if n in arg else x * c
    eta_r = {t: _eta_inverse(t) ** p.rank for t in {q1_trunc, q2_trunc}}
    x1, x2 = (QSeries.monomial(v, e, t) * eta_r[t].renamed(v)
              for v, e, t in (("q1", p.alpha_sq / 2, q1_trunc), ("q2", p.beta_sq / 2, q2_trunc)))
    blocks = _exp_blocks(arg, eps_trunc, _EisensteinPair({(0,) * 6: 1}))
    return _eps_series(blocks, eps_trunc, _pair_expander(x1, x2), _EisensteinPair())


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
    # det(I - A1 A2(0))^(-r/2) exp(a delta) at a = alpha^2/2, read off the
    # closed-form operator, times q1^a eta(q1)^-r.
    pre = QSeries.monomial("q1", p.alpha_sq / 2, q1_trunc) * _eta_inverse(q1_trunc) ** p.rank
    return _eps_series(_at(_pinched_operator(eps_trunc), p.rank, p.alpha_sq / 2), eps_trunc,
                       lambda x: x.to_qseries(q1_trunc, "q1") * pre, EisensteinPoly())


@lru_cache(maxsize=None)
def _eta_inverse(q1_trunc: int) -> QSeries:
    # eta(q1)^-1, the genus-one factor of every closed form; memoized and
    # immutable like the forms themselves.
    return eta_normalized(q1_trunc, "q1").inv()


# -- the operator-valued degeneration sum -------------------------------------------

# Variables of the eps coefficients of H_l: the base modulus and the central charge.
H_VARS = ("q1", "C")


def _blocks(ops: dict, f) -> dict:
    # {n: f(op)} over the eps^n operators, without the zero blocks.
    return {n: x for n, op in ops.items() if (x := f(op)).nums}


def _at(ops: dict, r: int, a: Fraction) -> dict:
    # {n: op} at C = r on the base q1^a, over it, in Q[E2, E4, E6].
    return _blocks(ops, lambda op: op.at(r, a))


def _H_series(blocks: dict, eps_trunc: int, q_trunc: int) -> QSeries:
    # qd^l blocks as a series in ("eps",) + H_VARS, expanded through q1^q_trunc.
    pieces = [(s.den * p.den, v, [((n, m, j), w) for (m,), w in s.nums.items()])
              for n, p in blocks.items() for (_, j, *k), v in p.nums.items()
              for s in (_monomial_qseries(tuple(k), q_trunc),)]
    return QSeries._made(("eps", *H_VARS), *_sum_terms(pieces),
                         (eps_trunc, q_trunc, eps_trunc), (Fraction(0),) * 3)


class OperatorEpsSeries(_Record):
    """sum_n eps^n (Theta-basis 1-point operator of the weight-n descendant):
    the q2 -> 0 limit of q2^(C/24) Z^(2) as an operator on the base."""
    _fields = ("terms", "eps_trunc", "q_trunc")

    def __init__(self, terms, eps_trunc: int, q_trunc: int):
        # terms: eps power -> DiffOp (Theta basis), held read-only, since
        # degeneration_sum shares one instance between callers.
        super().__init__(MappingProxyType(dict(terms)), eps_trunc, q_trunc)

    def extract_H(self, l: int) -> QSeries:
        """Coefficient of qd^l Theta in the degeneration sum: H_l(q1, C, eps).

        A series in ("eps",) + H_VARS: the eps^n block holds the C^j q1^m
        coefficients of the weight-n operator's qd^l part.  C is known
        through C^eps_trunc, which covers every degree the Theta basis
        allows (j <= n/2).
        """
        if l < 0:
            raise ValueError("derivative order must be >= 0")
        return _H_series(_blocks(self.terms, lambda op: op.part(l)), self.eps_trunc, self.q_trunc)


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


@lru_cache(maxsize=None)
def _pinched_operator(eps_trunc: int) -> MappingProxyType:
    """det(I - A1 A2(0))^(-C/2) exp(delta qd) as {n: eps^n operator}, whose
    qd^l part is det^(-C/2) delta^l / l!: the exp runs in Q[D, C, E2, E4, E6],
    D = qd.  Memoized per eps order, like the pinched blocks it is made of."""
    f = {}  # the exponent: the log-det times -C/2 plus delta times D
    for (i, j, x), blocks in zip(((0, 1, Fraction(-1, 2)), (1, 0, 1)),
                                 _degenerate_sewing(eps_trunc)):
        for n, p in blocks.items():
            term = OperatorPoly._made({(i, j, *k): v for k, v in p.nums.items()}, p.den) * x
            f[n] = f[n] + term if n in f else term
    return MappingProxyType(_exp_blocks(f, eps_trunc, OperatorPoly({(0, 0, 0, 0, 0): 1})))


def verify_detHi(eps_trunc: int = 8, q_trunc: int = 6) -> Report:
    """Check H_l = det(I - A1 A2(0))^(-C/2) delta^l / l! identically in C.

    Both sides are qd^l parts of exact polynomials per power of eps, so each
    equality holds at every q-order; a failed one prints them as eps-series
    over (q1, C)-series.  The left side comes from the Zhu-recursion
    operators of the vacuum descendants; the right side from the Bernoulli
    moment matrix.  One equality per l <= eps_trunc/2 (H_l = O(eps^(2l))
    vanishes beyond), plus the structural bounds n >= 2l and j <= n/2 - l.
    """
    report = Report(title="determinant form of the degeneration coefficients",
                    notes=[PREFACTOR_NOTE])
    ds = degeneration_sum(eps_trunc, q_trunc)
    for l in range(eps_trunc // 2 + 1):
        lhs, rhs = (_blocks(ops, lambda op: op.part(l))
                    for ops in (ds.terms, _pinched_operator(eps_trunc)))
        ok = lhs == rhs
        report.add(f"H_{l} == det(I-A1*A2(0))^(-C/2) * delta^{l}/{l}!", ok,
                   order=f"eps<={eps_trunc}, q<={q_trunc}, symbolic C",
                   expected="" if ok else str(_H_series(rhs, eps_trunc, q_trunc)),
                   computed="" if ok else str(_H_series(lhs, eps_trunc, q_trunc)))
        report.add(f"H_{l} = O(eps^{2 * l})", min(lhs, default=eps_trunc + 1) >= 2 * l,
                   order=f"eps<={eps_trunc}")
        bound_ok = all(2 * k[1] <= n - 2 * l for n, p in lhs.items() for k in p.nums)
        report.add(f"C-degree of H_{l} bounded by n/2 - {l}", bound_ok,
                   order=f"eps<={eps_trunc}")
    return report


def _eta_shift(ops: dict, s: int) -> dict:
    """{n: block} of eta(q)^s / eta(q1)^s for s = +-1: sum_l (delta^l / l!) P_l,
    delta^l / l! the qd^l C^0 part of the closed form and P_l the qd^0 part of
    the Theta basis change's qd^l (``ring._eta_power``) at C = -s, since
    qd^l (eta^(-C) X) = eta^(-C) P_l X.  Each block is one ``_sum_terms``."""
    shift = {n: op.part(j=0).coefficients() for n, op in ops.items()}  # (l, 0) -> delta^l/l!
    p = [_eta_power(1, l).at(-s, 0) for l in range(1 + max(
        (l for c in shift.values() for l, _ in c), default=0))]
    return _blocks(shift, lambda c: EisensteinPoly._made(*_sum_terms(
        (x.den * p[l].den, 1, EisensteinPoly._mul_nums(x.nums, p[l].nums).items())
        for (l, _), x in c.items())))


def verify_heisenberg_degeneration(eps_trunc: int = 6, q_trunc: int = 10) -> Report:
    """Free-boson pinching: lim q2^(1/24) Z^(2) against the shifted genus-one
    function, including the intermediate expansions from the proof.

    Every line is an exact identity in Q[E2, E4, E6] per power of eps, read
    off the closed-form operator: the eta ratios (``_eta_shift``),
    det^(-1/2) at C = 1 and qd = 0, and the degeneration ratio as their
    block quotient.  A failed line prints both sides expanded through q1^q_trunc.
    """
    if eps_trunc < 4:
        raise ValueError("the free-boson degeneration checks need eps_trunc >= 4")
    report = Report(title="free-boson torus degeneration", notes=[PREFACTOR_NOTE])
    zero, one = EisensteinPoly(), EisensteinPoly.const(1)
    e2, e4 = EisensteinPoly({(1, 0, 0): 1}), EisensteinPoly({(0, 1, 0): 1})

    def check_coeff(name, blocks, n, expected):
        got = blocks.get(n, zero)
        ok = got == expected
        report.add(name, ok, order=f"q<={q_trunc}",
                   expected="" if ok else str(expected.to_qseries(q_trunc, "q1")),
                   computed="" if ok else str(got.to_qseries(q_trunc, "q1")))

    closed = _pinched_operator(eps_trunc)
    # eta(q) = eta(q1) [1 + E2/24 eps^2 - (E2^2/1152 + 5 E4/576) eps^4 + ...]
    eta_ratio = _eta_shift(closed, 1)
    check_coeff("eta(q)/eta(q1) at eps^2", eta_ratio, 2, e2 * Fraction(1, 24))
    check_coeff("eta(q)/eta(q1) at eps^4", eta_ratio, 4,
                -(e2 * e2 * Fraction(1, 1152) + e4 * Fraction(5, 576)))

    # 1/eta(q) = (1/eta(q1)) [1 - E2/24 eps^2 + (E2^2/384 + 5 E4/576) eps^4 + ...]
    z1_ratio = _eta_shift(closed, -1)
    check_coeff("eta(q)^-1 ratio at eps^2", z1_ratio, 2, e2 * Fraction(-1, 24))
    check_coeff("eta(q)^-1 ratio at eps^4", z1_ratio, 4,
                e2 * e2 * Fraction(1, 384) + e4 * Fraction(5, 576))

    # det(I - A1 A2(0))^(-1/2) = 1 - E2/24 eps^2 + (E2^2/384 + E4/96) eps^4 + ...
    det = _at(closed, 1, 0)
    check_coeff("det^(-1/2) at eps^2", det, 2, e2 * Fraction(-1, 24))
    check_coeff("det^(-1/2) at eps^4", det, 4,
                e2 * e2 * Fraction(1, 384) + e4 * Fraction(1, 96))

    # lim q2^(1/24) Z^(2) / Z^(1)(q) = 1 + 0 eps^2 + E4/576 eps^4 + O(eps^6), where
    # lim eta(q1) q2^(1/24) Z^(2) is det^(-1/2)
    ratio = _quotient_blocks(det, z1_ratio, eps_trunc, one)
    check_coeff("degeneration ratio at eps^0", ratio, 0, one)
    check_coeff("degeneration ratio at eps^2", ratio, 2, zero)
    check_coeff("degeneration ratio at eps^4", ratio, 4, e4 * Fraction(1, 576))
    report.add("only even eps powers appear", all(n % 2 == 0 for n in (*det, *ratio)),
               order=f"eps<={eps_trunc}")
    return report


def verify_theta_degeneration(p: ModulePair, eps_trunc: int = 8, q_trunc: int = 6) -> Report:
    """Main degeneration statement for a beta = 0 module pair at C = rank.

    Three routes to lim_{q2->0}, each q1^a (a = alpha^2/2) times one
    polynomial in E2, E4, E6 per power of eps: (a) the closed forms, the
    pair's limit over the free boson's to the r-th; (b) the Taylor-shifted
    genus-one normalized function, exp(a delta) q1^a since qd q1^a = a q1^a;
    (c) the Zhu-recursion operator sum.  The report records (a) == (b) and
    (c) against both, as polynomial identities at C = r and D = qd = a; a
    failed one prints its sides as eps-series over q1.
    """
    if p.beta_sq != 0 or p.alpha_dot_beta != 0:
        raise ValueError("theta degeneration check needs beta = 0")
    r, a, zero, one = p.rank, p.alpha_sq / 2, EisensteinPoly(), EisensteinPoly.const(1)
    report = Report(
        title=f"torus degeneration of the normalized partition function "
              f"(alpha^2={rat_str(p.alpha_sq)}, r={r})",
        notes=[PREFACTOR_NOTE])

    def expanded(blocks):
        mono = QSeries.monomial("q1", a, q_trunc)
        return str(_eps_series(blocks, eps_trunc, lambda x: x.to_qseries(q_trunc, "q1") * mono,
                               zero))

    zhu_side = _at(degeneration_sum(eps_trunc, q_trunc).terms, r, a)            # (c)
    closed = _pinched_operator(eps_trunc)
    pair, det_r, theta_taylor = _at(closed, r, a), _at(closed, r, 0), _at(closed, 0, a)  # (b)
    theta_lim = _quotient_blocks(pair, det_r, eps_trunc, one)                    # (a)

    order = f"eps<={eps_trunc}, q<={q_trunc}"
    ok_ab = theta_lim == theta_taylor
    report.add("lim Theta^(2) == Theta^(1)(q) (closed form vs Taylor shift)", ok_ab,
               order=order, expected="" if ok_ab else expanded(theta_taylor),
               computed="" if ok_ab else expanded(theta_lim))

    ok_c = zhu_side == pair
    report.add("Zhu-recursion degeneration sum == closed-form limit "
               "(eta^r reattached)", ok_c, order=order,
               expected="" if ok_c else expanded(pair),
               computed="" if ok_c else expanded(zhu_side))

    report.add("operator route == det^(-r/2) * shifted Theta^(1)",
               _quotient_blocks(zhu_side, det_r, eps_trunc, one) == theta_taylor, order=order)

    report.add("only even eps powers appear",
               all(n % 2 == 0 for n in (*theta_lim, *zhu_side)), order=f"eps<={eps_trunc}")
    return report
