"""Work-count guards: how often the expensive shared routines run.

Counts, not timings: each test wraps a function in the namespace of the
module that calls it and asserts how many calls one fixed input makes.
"""

import sys
from fractions import Fraction

import pytest

from twotori import cli, genus2, ring, series, sewing, virasoro, zhu
from twotori.genus2 import ModulePair, z2_module_pair
from twotori.series import QSeries
from twotori.virasoro import VirState, partitions_of_weight


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def clear_caches() -> None:
    """Empty every lru_cache of genus2, sewing and zhu, as a new CLI run
    finds them; a memo added later is found without naming it here."""
    for module in (genus2, sewing, zhu):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()


@pytest.fixture
def cold_caches():
    # A CLI run starts with empty caches; so does each counted run here.
    clear_caches()
    yield
    clear_caches()


def test_module_pair_expands_each_minor_once(monkeypatch):
    # One pass over the minors of A1 and A2 at eps order 10, and no
    # matrix-vector chain: the log-det and the period data come from the
    # same minors.  Each matrix has 43 nonempty index pairs (S, U) with
    # sum S + sum U <= 10 and equally many odd indices, and each minor is
    # expanded once.
    passes = counting(monkeypatch, sewing, "_minor_sums")
    chains = counting(monkeypatch, sewing, "_resolvent_vector_sum")
    minors = counting(monkeypatch, sewing._Minors, "__missing__")
    z2_module_pair(ModulePair(2, alpha_sq=Fraction(2)), 1, 1, 10)
    assert (len(passes), len(chains)) == (1, 0)
    keys = [(id(m), key) for m, key in minors]
    assert len(set(keys)) == len(keys) == 2 * 43
    assert len({m for m, _ in keys}) == 2


def test_sewing_pass_builds_no_series_per_minor_pair(monkeypatch):
    # The Cauchy-Binet sums run over the minors' integer numerators, and
    # each period entry is a block division: at eps order 10 the pass makes
    # no exp and no (q1, q2) product per (S, U).  Its 45 (q1, q2) products
    # are block products of the log (10) and of the three divisions (10 each
    # for d11 and d22, whose even blocks vanish, and 15 for d12); the
    # per-product pass made 99, one per nonzero Cauchy-Binet term among them.
    exps = counting(monkeypatch, QSeries, "exp")
    mul = QSeries.__mul__
    bivariate = []
    monkeypatch.setattr(QSeries, "__mul__", lambda a, b: (
        bivariate.append(b.vars) if isinstance(b, QSeries) and len(a.vars) > 1 else None)
        or mul(a, b))
    sewing.sewing_data(10, 10, 10, 10, ("d11", "d22", "d12"))
    assert exps == []
    assert bivariate == [("q1", "q2")] * 45


def test_sewing_pass_sums_only_paired_entries(monkeypatch):
    # A period entry enters the module form only through its pairing, so
    # the pass sums d11 alone for alpha^2 != 0 = beta^2 = alpha.beta, and no
    # entry at all for the free boson.
    passes = counting(monkeypatch, sewing, "_minor_sums")
    z2_module_pair(ModulePair(2, alpha_sq=Fraction(2)), 1, 1, 4)
    genus2.z2_heisenberg(1, 1, 4)
    assert [tuple(args[3]) for args in passes] == [("d11",), ()]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_power_squares_only_below_the_top_bit(monkeypatch, n):
    # base**n takes one product per set bit of n and one square per bit
    # below the top one; the free-boson forms raise the eta factor to ** 1.
    base = QSeries(("q1", "q2"), {(0, 0): 1, (1, 0): 2, (0, 1): -1}, (3, 3))
    products = counting(monkeypatch, QSeries, "__mul__")
    base ** n
    assert len(products) == bin(n).count("1") + n.bit_length() - 1


def test_verify_all_builds_shared_data_once(monkeypatch, capsys, cold_caches):
    # detHi and the four theta pairs share one degeneration sum, and every
    # suite shares one degenerate sewing pass (log-det and delta together),
    # which sums its Cauchy-Binet terms once.  The degeneration sum is the
    # only caller of lambda_vector in verify all.
    sums = counting(monkeypatch, virasoro, "lambda_vector")
    passes = counting(monkeypatch, sewing, "_cauchy_binet")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert (len(sums), len(passes)) == (1, 1)


def test_verify_all_runs_the_pinched_pass_in_the_ring(monkeypatch, capsys, cold_caches):
    # The pinched log-det and delta come from minors in Q[E2, E4, E6]:
    # verify all builds no q1-series moment matrix, runs no q1-series pass
    # and makes one pinched pass.
    matrices = counting(monkeypatch, sewing, "a_matrix")
    series_passes = counting(monkeypatch, sewing, "_minor_sums")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert (len(matrices), len(series_passes)) == (0, 0)
    assert sewing._degenerate_sewing.cache_info().misses == 1


def test_verify_all_computes_each_pinched_quantity_once(monkeypatch, capsys, cold_caches):
    # det(I - A1 A2(0))^(-r/2), eta(q1)^-1 and the pinched closed forms are
    # memoized per orders, and the Taylor weights delta^l/l! per delta: the
    # free-boson suite and the four theta pairs evaluate each pinched form
    # once per distinct module pair and share one table of delta powers;
    # the free-boson normalizer of the theta pairs is inverted once per
    # rank, and the sewing pass divides by the determinant instead of
    # taking exp(-log det).  Without these memos the run made 19 exps and
    # 16 inverses.
    exps = counting(monkeypatch, QSeries, "exp")
    invs = counting(monkeypatch, QSeries, "inv")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert len(exps) <= 6 and len(invs) <= 5
    pairs = {ModulePair()} | {ModulePair(rank, Fraction(a)) for a, rank in cli.THETA_SUITE_PAIRS}
    forms = genus2._z2_module_degenerate.cache_info()
    assert forms.misses == forms.currsize == len(pairs) == 4
    assert genus2._taylor_weights.cache_info().misses == 1


def test_degeneration_coefficients_come_from_one_pass(monkeypatch):
    # Every H_l reads the operators' q-expansions in one pass: asking for
    # H_0 .. H_5 reads each operator once, not once per l.
    ds = genus2.degeneration_sum(8, 8)
    fresh = genus2.OperatorEpsSeries(ds.terms, ds.eps_trunc, ds.q_trunc)
    reads = counting(monkeypatch, zhu.DiffOp, "series")
    Hs = [fresh.extract_H(l) for l in range(6)]
    assert len(reads) == len(ds.terms) > 1
    assert Hs == [ds.extract_H(l) for l in range(6)] and Hs[5].is_zero()


def test_perturbed_logdet_fails_after_the_caches_are_cleared(monkeypatch, capsys, cold_caches):
    # A warm run fills the pinched-surface memos.  Once they are cleared, a
    # log-det perturbed at eps^6 q1 (a perturbation of the closed-form side
    # only) must reach the closed form: the Zhu-recursion line turns FAIL.
    argv = ["verify", "theta-degen", "--alpha-sq", "1", "--eps-order", "8", "--q-order", "6"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    logdet = genus2.degenerate_logdet

    def perturbed(q1_trunc, eps_trunc, N):
        s = logdet(q1_trunc, eps_trunc, N)
        return s + QSeries(s.vars, {(6, 1): Fraction(1, 7)}, s.truncs)

    clear_caches()
    monkeypatch.setattr(genus2, "degenerate_logdet", perturbed)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 1
    line = next(l for l in out.splitlines()
                if "Zhu-recursion degeneration sum == closed-form limit" in l)
    assert "FAIL" in line


def test_verify_all_shares_the_structure_suite_operators(capsys, cold_caches):
    # The degeneration sum reads the same 1-point operators that the
    # structure suite builds, so verify all adds no recursion work of its own.
    def word_misses(*argv) -> int:
        zhu._op_for_word.cache_clear()
        assert cli.main(["verify", *argv, "--q-order", "8", "--max-weight", "8"]) == 0
        capsys.readouterr()
        return zhu._op_for_word.cache_info().misses

    alone = word_misses("structure")
    assert alone > 0
    assert word_misses("all", "--eps-order", "8") == alone


def test_verify_all_sums_descendants_once(monkeypatch, capsys, cold_caches):
    # A --max-weight above the eps order changes no degeneration check, so
    # detHi and the theta pairs still share one degeneration sum.
    sums = counting(monkeypatch, virasoro, "lambda_vector")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "10"])
    capsys.readouterr()
    assert code == 0
    assert len(sums) == 1


def test_verify_all_builds_each_eisenstein_table_once(monkeypatch, capsys, cold_caches):
    # The Zhu operators' monomial table reads E_k over "q", the moment
    # matrices and the free-boson checks over "q1"; one table per (k,
    # q-order) serves every variable.  A table of even weight calls
    # series.bernoulli once.
    for cached in (*vars(ring).values(), *vars(series).values()):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    builds = counting(monkeypatch, series, "bernoulli")
    requests = [counting(monkeypatch, m, "eisenstein") for m in (series, sewing, genus2)]
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    tables = {args[:2] for calls in requests for args in calls if args[0] % 2 == 0}
    assert {(k, 8) for k in (2, 4, 6)} <= tables
    assert len(builds) == len(tables)


def test_one_point_reads_one_operator_at_every_q_order(cold_caches):
    # The word cache is keyed by the word alone: reading the same state at
    # a higher q-order runs no recursion step again.
    state = VirState.monomial((4, 3, 3, 2))
    zhu.one_point(state, 8)
    misses = zhu._op_for_word.cache_info().misses
    assert misses > 0
    zhu.one_point(state, 12)
    assert zhu._op_for_word.cache_info().misses == misses


def test_recursion_constructs_no_fraction(cold_caches):
    # The Zhu recursion and the normal ordering run on integer numerators: a
    # cold pass over every PBW monomial of weight <= 12 builds no Fraction,
    # and the same operators and states as before fill the word caches.
    for cached in (virasoro._normal_order_word, ring.eisenstein_poly):
        cached.cache_clear()
    new = Fraction.__new__.__code__
    made = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(frame.f_back.f_code.co_qualname)

    parts = [p for w in range(2, 13) for p in partitions_of_weight(w)]
    sys.setprofile(profile)
    try:
        for p in parts:
            zhu.one_point(VirState.monomial(p), 12)
    finally:
        sys.setprofile(None)
    assert made == []
    assert len(parts) == 76
    assert (zhu._op_for_word.cache_info().currsize,
            zhu._state_for_word.cache_info().currsize,
            virasoro._normal_order_word.cache_info().currsize) == (77, 20, 466)


def test_bernoulli_numbers_come_from_one_table(monkeypatch, capsys, cold_caches):
    # One table serves every k and grows only when a larger k is asked for:
    # a verify all run inverts no z-series for it, where a table per k
    # inverted (e^z - 1)/z once for each distinct k.
    for cached in (*vars(ring).values(), *vars(series).values()):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    inverted = []
    inv = QSeries.inv
    monkeypatch.setattr(QSeries, "inv", lambda s: inverted.append(s.vars) or inv(s))
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert ("z",) not in inverted
    table = ring._bernoulli_coefficient.cache_info
    top = table().currsize
    ring.bernoulli(top - 1)
    ring.bernoulli(2)
    assert (table().currsize, table().misses) == (top, top)
    ring.bernoulli(top + 3)
    assert (table().currsize, table().misses) == (top + 4, top + 4)
