"""Genus-two closed forms, the operator degeneration sum, and the verifiers."""

from fractions import Fraction as F

import pytest

from twotori.ring import eisenstein_poly
from twotori.series import QSeries, eisenstein, eta_normalized
from twotori.genus2 import (
    H_VARS,
    ModulePair,
    OperatorEpsSeries,
    _eta_prefactor,
    _times_q,
    degeneration_sum,
    taylor_shift,
    verify_detHi,
    verify_heisenberg_degeneration,
    verify_theta_degeneration,
    z2_heisenberg,
    z2_heisenberg_degenerate,
    z2_module_degenerate,
    z2_module_pair,
)
from twotori import genus2
from twotori.sewing import (
    a_matrix,
    degenerate_logdet,
    degenerate_tau,
    log_det_I_minus,
    period_matrix,
    resolvent_11,
    weighted_resolvent_11,
)
from twotori.reports import Check, Report
from twotori.virasoro import VirState
from twotori.zhu import THETA_BASIS, BasePartition, DiffOp, one_point

from test_series import set_second_to_zero


def partition_numbers(trunc):
    """Oracle: p(n) by the Euler recurrence with pentagonal numbers."""
    p = [1]
    for n in range(1, trunc + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = (-1) ** (k + 1)
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


# -- the free-boson closed forms as they were computed on their own ----------------


def oracle_z2_heisenberg(q1_trunc, q2_trunc, eps_trunc, N=None):
    # (eta(q1) eta(q2))^-1 det(I - A1 A2)^(-1/2), from the log-det alone.
    N = eps_trunc if N is None else N
    logdet = log_det_I_minus(a_matrix(1, N, eps_trunc, q1_trunc),
                             a_matrix(2, N, eps_trunc, q2_trunc), eps_trunc)
    return _times_q((logdet * F(-1, 2)).exp(), _eta_prefactor(q1_trunc, q2_trunc))


def oracle_z2_heisenberg_degenerate(q1_trunc, eps_trunc, N=None):
    # eta(q1)^-1 det(I - A1 A2(0))^(-1/2), with no delta factor.
    N = eps_trunc if N is None else N
    det = (degenerate_logdet(q1_trunc, eps_trunc, N) * F(-1, 2)).exp()
    return _times_q(det, eta_normalized(q1_trunc, "q1").inv())


# -- the pinched-surface quantities as they were computed before memoization -------


def oracle_z2_module_degenerate(p, q1_trunc, eps_trunc, N=None):
    # lim q2^(r/24) Z^(2)_{alpha,0}, every factor built afresh on each call.
    N = eps_trunc if N is None else N
    det = (degenerate_logdet(q1_trunc, eps_trunc, N) * F(-p.rank, 2)).exp()
    if p.alpha_sq:
        det = det * (degenerate_tau(q1_trunc, eps_trunc, N) * (p.alpha_sq / 2)).exp()
    pre = (QSeries.monomial("q1", p.alpha_sq / 2, q1_trunc)
           * eta_normalized(q1_trunc, "q1").inv() ** p.rank)
    return _times_q(det, pre)


def oracle_taylor_shift(f, delta):
    # sum_l (delta^l / l!) qd^l f, the powers of delta built in the loop.
    dpow = QSeries.one(delta.vars, delta.truncs)
    out = _times_q(dpow, f)
    df = f
    ord_ = max(delta._ord_bounds()[0], 1)
    for l in range(1, delta.truncs[0] // ord_ + 1):
        dpow = dpow * delta * F(1, l)
        if dpow.is_zero():
            break
        df = df.qd()
        out = out + _times_q(dpow, df)
    return out


def oracle_extract_H(ds, l):
    # H_l by a scan over every operator's Fraction coefficients, per l.
    return QSeries(("eps", *H_VARS),
                   {(n, m, j): c for n, op in ds.terms.items()
                    for (i, j), s in op.series().items() if i == l
                    for (m,), c in s.coeffs.items()},
                   (ds.eps_trunc, ds.q_trunc, ds.eps_trunc))


# (q1, eps, N)
PINCHED_ORDERS = [(0, 1, 1), (3, 4, 4), (4, 4, 7), (5, 6, 6), (6, 8, 8), (2, 8, 11)]
PINCHED_PAIRS = [ModulePair(), ModulePair(1, F(1)), ModulePair(2, F(1, 4)), ModulePair(1, F(2)),
                 ModulePair(3, F(-2, 3))]


class TestPinchedMemos:
    # Memoized pinched quantities must equal the uncached computation.
    @pytest.mark.parametrize("q1, e, N", PINCHED_ORDERS)
    @pytest.mark.parametrize("p", PINCHED_PAIRS)
    def test_module_degenerate_equals_oracle(self, p, q1, e, N):
        assert z2_module_degenerate(p, q1, e, N) == oracle_z2_module_degenerate(p, q1, e, N)

    @pytest.mark.parametrize("q1, e", [(3, 4), (5, 6), (6, 8)])
    def test_default_N_shares_one_entry(self, q1, e):
        # N=None resolves to the eps order before the key is built: one
        # cache entry, one result object, equal to the oracle.
        genus2._z2_module_degenerate.cache_clear()
        p = ModulePair(1, F(1))
        got = z2_module_degenerate(p, q1, e)
        assert z2_module_degenerate(p, q1, e, e) is got
        assert genus2._z2_module_degenerate.cache_info().currsize == 1
        assert got == oracle_z2_module_degenerate(p, q1, e)
        # N above the eps order is its own entry, with the same known part.
        above = z2_module_degenerate(p, q1, e, e + 3)
        assert above == oracle_z2_module_degenerate(p, q1, e, e + 3)
        assert genus2._z2_module_degenerate.cache_info().currsize == 2

    def test_free_boson_is_the_zero_pair_entry(self):
        genus2._z2_module_degenerate.cache_clear()
        assert z2_heisenberg_degenerate(4, 6) is z2_module_degenerate(ModulePair(1, F(0)), 4, 6, 6)
        assert genus2._z2_module_degenerate.cache_info().currsize == 1

    @pytest.mark.parametrize("q1, e, N", PINCHED_ORDERS)
    def test_taylor_shift_equals_oracle(self, q1, e, N):
        delta = degenerate_tau(q1, e, N)
        eta = eta_normalized(q1, "q1")
        for f in (eta, eta.inv(), QSeries.monomial("q1", F(3, 2), q1),
                  eisenstein(2, q1, "q1") * eisenstein(4, q1, "q1") + QSeries.one("q1", q1)):
            assert taylor_shift(f, delta) == oracle_taylor_shift(f, delta)

    def test_taylor_shift_by_a_non_pinched_delta(self):
        # A delta with an eps^1 term and one that is zero: the table stops
        # at the first zero power, as the loop did.
        delta = QSeries(("eps", "q1"), {(1, 0): F(1, 3), (2, 1): -2, (5, 2): F(7, 5)}, (6, 4))
        f = QSeries("q1", {0: 2, 1: F(-1, 2), 3: 5}, 4, offsets=F(1, 24))
        for d in (delta, delta.times_eps(), QSeries.zero(("eps", "q1"), (6, 4))):
            assert taylor_shift(f, d) == oracle_taylor_shift(f, d)

    @pytest.mark.parametrize("q1, e, N", PINCHED_ORDERS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_degenerate_det_is_exp_of_the_logdet(self, r, q1, e, N):
        # det(I - A1 A2(0))^(-r/2) stays a q1-series exp of the pinched log-det.
        logdet = degenerate_logdet(q1, e, N)
        assert genus2._degenerate_det(q1, e, N, r) == (logdet * F(-r, 2)).exp()

    @pytest.mark.parametrize("e, q", [(2, 3), (4, 4), (6, 5), (8, 8)])
    def test_extract_H_equals_oracle(self, e, q):
        ds = degeneration_sum(e, q)
        for l in range(e // 2 + 2):
            assert ds.extract_H(l) == oracle_extract_H(ds, l)


# (q1, q2, eps, N)
FREE_BOSON_ORDERS = [(0, 0, 1, 1), (3, 2, 4, 4), (2, 3, 4, 6), (4, 4, 6, 6), (6, 5, 8, 9),
                     (1, 0, 2, 2)]


class TestFreeBosonIsZeroPairing:
    # The free-boson forms are the module forms at zero pairing; they must
    # equal the standalone closed forms as objects, as text and as JSON.
    @pytest.mark.parametrize("q1, q2, e, N", FREE_BOSON_ORDERS)
    def test_full(self, q1, q2, e, N):
        got, want = z2_heisenberg(q1, q2, e, N), oracle_z2_heisenberg(q1, q2, e, N)
        assert got == want
        assert str(got) == str(want) and got.to_json() == want.to_json()

    @pytest.mark.parametrize("q1, q2, e, N", FREE_BOSON_ORDERS)
    def test_degenerate(self, q1, q2, e, N):
        got, want = z2_heisenberg_degenerate(q1, e, N), oracle_z2_heisenberg_degenerate(q1, e, N)
        assert got == want
        assert str(got) == str(want) and got.to_json() == want.to_json()


class TestModulePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulePair(0)
        p = ModulePair(2, F(1, 4), F(1), F(1, 3))
        assert (p.alpha_sq, p.beta_sq, p.alpha_dot_beta) == (F(1, 4), F(1), F(1, 3))

    def test_value_semantics(self):
        # A memo key: equal pairs are equal and hash alike, and a pair is
        # immutable.
        p = ModulePair(1, alpha_sq=F(2))
        assert p == ModulePair(1, 2) and hash(p) == hash(ModulePair(1, "2"))
        assert ModulePair() == ModulePair(1, F(0)) != p
        with pytest.raises(AttributeError):
            p.rank = 2


class TestReportValues:
    # Report and Check compare and print field by field, and a Report keeps
    # the lists it is given.
    def test_equal_reports_compare_equal(self):
        a, b = Report("t", ["n"]), Report("t", ["n"])
        a.add("x", True)
        b.add("x", True)
        assert a == b and a != Report("t", ["n"]) and a != Report("u", ["n"], b.checks)
        assert a.checks == [Check("x", True)] and hash(Check("x", True)) == hash(Check("x", 1))
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(AttributeError):
            a.checks[0].passed = False

    def test_repr_names_the_fields(self):
        assert repr(Check("x", True)) == \
            "Check(name='x', passed=True, order='', expected='', computed='')"
        assert repr(Report("t")) == "Report(title='t', notes=[], checks=[])"

    def test_report_holds_the_lists_it_is_given(self):
        notes, checks = ["n"], []
        report = Report("t", notes, checks)
        report.add("x", False)
        assert report.notes is notes and checks == [Check("x", False)]
        assert Report("t").notes is not Report("t").notes


class TestTaylorShift:
    def test_constant_is_fixed(self):
        delta = degenerate_tau(4, 4, 4)
        s = taylor_shift(QSeries.one("q1", 4), delta)
        assert s.blocks() == {0: QSeries.one("q1", 4)}

    def test_monomial_exponentiates(self):
        # sum_l (d^l/l!) a^l q^a = e^(a d) q^a
        delta = degenerate_tau(5, 6, 6)
        a = F(3, 2)
        mono = QSeries.monomial("q1", a, 5)
        lhs = taylor_shift(mono, delta)
        shift = (delta * a).exp()
        rhs = shift * mono.embed(shift.vars, (shift.truncs[0], 5))
        assert lhs.agrees_with(rhs, (6, 5))


class TestClosedForms:
    def test_heisenberg_leading_term_counts_partitions(self):
        z = z2_heisenberg(5, 5, 4)
        lead = z.block(0)
        p = partition_numbers(5)
        assert lead.offsets == (F(-1, 24), F(-1, 24))
        for m in range(6):
            for n in range(6):
                assert lead.coeff(m, n) == p[m] * p[n]

    def test_heisenberg_even_and_stable(self):
        a = z2_heisenberg(3, 3, 4, N=4)
        b = z2_heisenberg(3, 3, 4, N=7)
        assert a.is_even()
        assert a.to_json() == b.to_json()

    def test_module_pair_reduces_to_heisenberg(self):
        p = ModulePair(1)
        assert z2_module_pair(p, 3, 3, 4) == z2_heisenberg(3, 3, 4)

    def test_module_pair_leading_term(self):
        p = ModulePair(2, alpha_sq=F(1))
        z = z2_module_pair(p, 3, 3, 4)
        lead = z.block(0)
        assert lead.offsets == (F(1, 2) - F(2, 24), F(-2, 24))

    def test_full_z2_pinches_to_degenerate_form(self):
        # q2-series truncated to constants + eta(q2) offset cancelled
        # reproduces the closed degenerate form entry by entry
        full = z2_heisenberg(6, 0, 6)
        deg = z2_heisenberg_degenerate(6, 6)
        for n in range(7):
            sliced = set_second_to_zero(full.block(n) * QSeries(("q1", "q2"), {(0, 0): 1},
                                                                (6, 0), offsets=(0, F(1, 24))))
            assert sliced.agrees_with(deg.block(n))

    def test_module_degenerate_pinches_consistently(self):
        p = ModulePair(1, alpha_sq=F(1))
        full = z2_module_pair(p, 5, 0, 4)
        deg = z2_module_degenerate(p, 5, 4)
        for n in range(5):
            sliced = set_second_to_zero(full.block(n) * QSeries(("q1", "q2"), {(0, 0): 1},
                                                                (5, 0), offsets=(0, F(1, 24))))
            assert sliced.agrees_with(deg.block(n))

    def test_degenerate_module_requires_beta_zero(self):
        with pytest.raises(ValueError):
            z2_module_degenerate(ModulePair(1, F(1), F(1)), 4, 4)


def operator_at(ds, n: int) -> DiffOp:
    """The eps^n operator of a degeneration sum, zero where it has none."""
    return ds.terms.get(n, DiffOp(THETA_BASIS, {}, ds.q_trunc))


def operator_series_json(ds) -> dict:
    """A degeneration sum as nested eps JSON, one operator per eps power."""
    return {"variable": "eps", "trunc": ds.eps_trunc,
            "coeffs": {str(n): ds.terms[n].to_json() for n in sorted(ds.terms)}}


class TestDegenerationSum:
    def test_leading_operator_is_identity(self):
        ds = degeneration_sum(4, 6)
        assert operator_at(ds, 0) == DiffOp.identity("Theta", 6)

    def test_weight_two_operator(self):
        ds = degeneration_sum(2, 6)
        expected = DiffOp("Theta", {(1, 0): F(-1, 12),
                                    (0, 1): eisenstein_poly(2) * F(-1, 24)}, 6)
        assert operator_at(ds, 2) == expected

    def test_shared_operators_are_read_only(self):
        # degeneration_sum and the recursion's cache hand the same DiffOp
        # to every caller, so no caller may change it.
        op = operator_at(degeneration_sum(4, 4), 2)
        with pytest.raises(AttributeError):
            op.nums.clear()
        with pytest.raises(TypeError):
            op.nums[(0, 0, 0, 0, 0)] = 1
        with pytest.raises(AttributeError):
            op.nums = {}
        assert operator_at(degeneration_sum(4, 4), 2).nums == op.nums and not op.is_zero()

    def test_specialized_to_heisenberg(self):
        ds = degeneration_sum(2, 8)
        sp = ds.specialize(BasePartition.heisenberg(1, 8, "q1"))
        assert sp.block(0) == QSeries.one("q1", 8)
        assert sp.block(2) == eisenstein(2, 8, "q1") * F(-1, 24)

    def test_extract_H_values(self):
        ds = degeneration_sum(4, 6)
        H0, H1 = ds.extract_H(0), ds.extract_H(1)
        truncs = (6, 4)
        assert H0.block(0) == QSeries.one(H_VARS, truncs)
        assert H1.block(2) == QSeries.const(H_VARS, F(-1, 12), truncs)
        assert H0.block(2) == (eisenstein(2, 6, "q1").embed(H_VARS, truncs)
                                   * QSeries(H_VARS, {(0, 1): F(-1, 24)}, truncs))
        with pytest.raises(ValueError):
            ds.extract_H(-1)

    def test_json_shapes(self):
        ds = degeneration_sum(2, 4)
        js = operator_series_json(ds)
        assert js["variable"] == "eps" and "0" in js["coeffs"]
        H0 = ds.extract_H(0).to_json()
        assert H0["variable"] == "eps" and H0["coeffs"]["0"]["variables"] == list(H_VARS)


class TestVerifiers:
    def test_detHi_small(self):
        rep = verify_detHi(eps_trunc=6, q_trunc=4)
        assert rep.passed
        assert len(rep.checks) == 12

    @pytest.mark.parametrize("n, l_over", [(2, 1), (4, 2)])
    def test_detHi_identity_fails_on_a_perturbed_H(self, monkeypatch, n, l_over):
        # The identity and the C-degree bound must be able to FAIL: add
        # C*q1^3*eps^n (q1^3 is the top known q-order, eps^4 the top eps
        # order) to every H_l; both checks have to notice it, and the
        # C-degree bound must fail for H_l_over, where 1 > n/2 - l_over.
        extract_H = OperatorEpsSeries.extract_H

        def perturbed(self, l):
            bump = QSeries(H_VARS, {(self.q_trunc, 1): 1}, (self.q_trunc, self.eps_trunc))
            return extract_H(self, l) + QSeries.from_blocks("eps", {n: bump}, self.eps_trunc)

        monkeypatch.setattr(OperatorEpsSeries, "extract_H", perturbed)
        rep = verify_detHi(eps_trunc=4, q_trunc=3)
        identity = [c for c in rep.checks if " == det(I-A1*A2(0))" in c.name]
        assert len(identity) == 3
        for c in identity:
            assert not c.passed and c.expected and c.computed
        name = f"C-degree of H_{l_over} bounded by n/2 - {l_over}"
        bound = [c for c in rep.checks if c.name == name]
        assert len(bound) == 1 and not bound[0].passed

    def test_heisenberg_degeneration(self):
        rep = verify_heisenberg_degeneration(eps_trunc=6, q_trunc=6)
        assert rep.passed

    def test_heisenberg_degeneration_needs_eps_order_4(self):
        with pytest.raises(ValueError, match="eps_trunc >= 4"):
            verify_heisenberg_degeneration(eps_trunc=3, q_trunc=4)

    @pytest.mark.parametrize("alpha_sq,rank", [(F(0), 1), (F(1), 1), (F(1, 4), 2)])
    def test_theta_degeneration(self, alpha_sq, rank):
        rep = verify_theta_degeneration(ModulePair(rank, alpha_sq),
                                        eps_trunc=6, q_trunc=4)
        assert rep.passed

    def test_theta_degeneration_requires_beta_zero(self):
        with pytest.raises(ValueError):
            verify_theta_degeneration(ModulePair(1, F(1), F(1)), 4, 4)

    def test_reports_record_prefactor_note(self):
        rep = verify_detHi(eps_trunc=4, q_trunc=4)
        assert any("q2^(r/24)" in n for n in rep.notes)

    def test_report_json_schema(self):
        rep = verify_heisenberg_degeneration(eps_trunc=4, q_trunc=4)
        js = rep.to_json()
        assert js["pass"] is True
        assert all({"name", "pass", "order", "expected", "computed"} <= set(c)
                   for c in js["checks"])


class TestModulePairLeadingValue:
    def test_eps0_coefficient_value(self):
        # beta = 0: leading term is q1^(a^2/2) / (eta(q1) eta(q2))^r exactly
        p = ModulePair(2, alpha_sq=F(1))
        lead = z2_module_pair(p, 4, 4, 4).block(0)
        eta1 = eta_normalized(4, "q1").inv() ** 2
        eta2 = eta_normalized(4, "q2").inv() ** 2
        want = ((QSeries.monomial("q1", F(1, 2), 4) * eta1).embed(("q1", "q2"), (4, 4))
                * eta2.embed(("q1", "q2"), (4, 4)))
        assert lead == want


class TestTorusSwapSymmetry:
    def test_heisenberg_symmetric_in_both_tori(self):
        # gluing is symmetric: every eps coefficient is a symmetric array
        z = z2_heisenberg(4, 4, 6)
        for n in range(7):
            c = z.block(n)
            assert c.offsets[0] == c.offsets[1]
            for (m, k), v in c.coeffs.items():
                assert c.coeff(k, m) == v, (n, m, k)


# -- raising the orders keeps every known coefficient ---------------------------

PAIR = ModulePair(2, alpha_sq=F(1), beta_sq=F(2), alpha_dot_beta=F(1))
PINCHED = ModulePair(1, alpha_sq=F(1, 4))


def _period_parts(e, q):
    pd = period_matrix(q, q, e, e)
    return [pd.d11, pd.d22, pd.d12]


def _sewing_pair(e, q):
    return a_matrix(1, e, e, q), a_matrix(2, e, e, q)


def _resolvents(e, q):
    A1, A2 = _sewing_pair(e, q)
    return [resolvent_11(A1, A2, e), resolvent_11(A2, A1, e)]


def _weighted_resolvents(e, q):
    A1, A2 = _sewing_pair(e, q)
    return [weighted_resolvent_11(A2, A1, A2, e), weighted_resolvent_11(A1, A2, A1, e)]


TRUNCATED = {
    "degenerate_tau": lambda e, q: [degenerate_tau(q, e, e)],
    "period_matrix": _period_parts,
    "z2_module_pair": lambda e, q: [z2_module_pair(PAIR, q, q, e)],
    "z2_module_degenerate": lambda e, q: [z2_module_degenerate(PINCHED, q, e)],
    "z2_heisenberg": lambda e, q: [z2_heisenberg(q, q, e)],
    "log_det_I_minus": lambda e, q: [log_det_I_minus(*_sewing_pair(e, q), e)],
    "resolvent_11": _resolvents,
    "weighted_resolvent_11": _weighted_resolvents,
}


def _one_point_terms(q):
    # The series of every (qd^i, C^j) term, i, j <= weight, of the 1-point
    # operators of a few descendants; an absent term is the zero series.
    out = []
    for parts in [(2,), (2, 2), (3, 3), (4, 2)]:
        op, w = one_point(VirState.monomial(parts), q), sum(parts)
        out += [op.coeff(i, j).to_qseries(q) for i in range(w + 1) for j in range(w + 1)]
    return out


# q-series results, which take only the q-order.
Q_TRUNCATED = {
    "one_point": _one_point_terms,
    "eisenstein": lambda q: [eisenstein(k, q) for k in (2, 4, 6, 10)],
    "eta_normalized": lambda q: [eta_normalized(q)],
}


class TestTruncationMetamorphic:
    @pytest.mark.parametrize("e, q", [(2, 1), (4, 2), (4, 3)])
    @pytest.mark.parametrize("name", sorted(TRUNCATED))
    def test_higher_orders_agree_with_lower(self, name, e, q):
        # Every coefficient a result claims at (e, q) must survive at
        # (e+2, q+3): a truncation order that claims too much shows here.
        low, high = TRUNCATED[name](e, q), TRUNCATED[name](e + 2, q + 3)
        for a, b in zip(low, high):
            assert a.truncs[0] >= e
            assert a.agrees_with(b, (e,) + (q,) * (len(a.vars) - 1))

    @pytest.mark.parametrize("e, q", [(2, 1), (4, 2), (4, 3)])
    @pytest.mark.parametrize("name", sorted(Q_TRUNCATED))
    def test_q_series_agree_with_higher_orders(self, name, e, q):
        # The same check for the q-series builders: every coefficient they
        # claim at q must survive at q+3 (e only names the shared grid).
        low, high = Q_TRUNCATED[name](q), Q_TRUNCATED[name](q + 3)
        for a, b in zip(low, high, strict=True):
            assert a.trunc >= q
            assert a.agrees_with(b, a.trunc)

    @pytest.mark.parametrize("e, q", [(4, 2), (4, 3)])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_extract_H_agrees_with_higher_orders(self, l, e, q):
        low = degeneration_sum(e, q).extract_H(l)
        high = degeneration_sum(e + 2, q + 3).extract_H(l)
        assert low.truncs[0] >= e
        assert low.vars == ("eps", *H_VARS) and low.truncs[1:] == (q, e)
        assert low.agrees_with(high, (e, q, e))
