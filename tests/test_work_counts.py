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


def counting_everywhere(monkeypatch, module, name) -> list:
    """``counting`` in every twotori module that holds module.name, so that
    a module that imported the function by name is counted too."""
    fn = getattr(module, name)
    calls = counting(monkeypatch, module, name)
    for m in (ring, series, virasoro, zhu, sewing, genus2, cli):
        if getattr(m, name, None) is fn:
            monkeypatch.setattr(m, name, getattr(module, name))
    return calls


def clear_caches() -> None:
    """Empty every lru_cache of ring, series, virasoro, genus2, sewing and
    zhu, as a new CLI run finds them; a memo added later is found without
    naming it here."""
    for module in (ring, series, virasoro, genus2, sewing, zhu):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()


@pytest.fixture
def cold_caches():
    # A CLI run starts with empty caches; so does each counted run here.
    clear_caches()
    yield
    clear_caches()


def test_module_pair_expands_each_minor_once(monkeypatch, cold_caches):
    # One pass in Q[E(q1)] (x) Q[E(q2)] over the minors of A1 and A2 at eps
    # order 10, with no q-series moment matrix and no matrix-vector chain:
    # the log-det and the period data come from the same minors.  A matrix
    # has 43 nonempty index pairs (S, U) with sum S + sum U <= 10 and
    # equally many odd indices; A1 and A2 share one table of polynomial
    # minors, and each minor is built once.
    matrices = counting(monkeypatch, sewing, "a_matrix")
    passes = counting(monkeypatch, genus2, "_sewing_pass")
    chains = counting(monkeypatch, sewing, "_resolvent_vector_sum")
    minors = counting(monkeypatch, sewing._Minors, "__missing__")
    z2_module_pair(ModulePair(2, alpha_sq=Fraction(2)), 1, 1, 10)
    assert (len(matrices), len(passes), len(chains)) == (0, 1, 0)
    assert passes[0][0] is sewing._EisensteinPair
    keys = [(id(m), key) for m, key in minors]
    assert len(set(keys)) == len(keys) == 43
    assert len({m for m, _ in keys}) == 1


def test_module_pair_multiplies_each_table_entry_once(monkeypatch, cold_caches):
    # Every eps block reads one table of monomial expansions times the
    # mantissa eta^-2, which both tori share at one q-order, so no
    # one-variable product (monomial, q-order, mantissa) is made twice; the
    # per-block expansion made 278 such products of 168 distinct pairs.
    products, mul = [], QSeries.__mul__

    def counted(a, b):
        if isinstance(b, QSeries) and len(a.vars) == len(b.vars) == 1:
            products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    z2_module_pair(ModulePair(2, alpha_sq=Fraction(2)), 16, 16, 16)
    assert products and len(set(products)) == len(products)


def test_sewing_pass_builds_no_series_per_minor_pair(monkeypatch, cold_caches):
    # The Cauchy-Binet sums, the log and the divisions run in the ring, and
    # each eps block is expanded in (q1, q2) once, as integer outer products
    # of one-variable expansions: at eps order 10 the pass makes no exp and
    # no product of (q1, q2) series at all, where the q-series pass made 45
    # and the per-product pass 99, one per nonzero Cauchy-Binet term.
    exps = counting(monkeypatch, QSeries, "exp")
    mul = QSeries.__mul__
    bivariate = []
    monkeypatch.setattr(QSeries, "__mul__", lambda a, b: (
        bivariate.append(b.vars) if isinstance(b, QSeries) and len(a.vars) > 1 else None)
        or mul(a, b))
    sewing.sewing_data(10, 10, 10, ("d11", "d22", "d12"))
    assert exps == []
    assert bivariate == []


def test_sewing_pass_sums_only_paired_entries(monkeypatch):
    # A period entry enters the module form only through its pairing, so
    # the pass sums d11 alone for alpha^2 != 0 = beta^2 = alpha.beta, and no
    # entry at all for the free boson.
    passes = counting(monkeypatch, genus2, "_sewing_pass")
    z2_module_pair(ModulePair(2, alpha_sq=Fraction(2)), 1, 1, 4)
    genus2.z2_heisenberg(1, 1, 4)
    assert [tuple(args[2]) for args in passes] == [("d11",), ()]


def test_closed_forms_take_no_series_exp(monkeypatch, capsys, cold_caches):
    # Each closed form is one exp in its ring, expanded once per eps block
    # times one-variable factors: compute z2-module at 10 and verify all at
    # 8 call no QSeries.exp and multiply no series in two or more
    # q-variables, where the q-series exps took one over (eps, q1, q2) and
    # one over (eps, q1), and the prefactor was a (q1, q2) product.
    exps = counting(monkeypatch, QSeries, "exp")
    products, mul = [], QSeries.__mul__
    monkeypatch.setattr(QSeries, "__mul__", lambda a, b: (
        isinstance(b, QSeries) and sum(v.startswith("q") for v in a.vars) > 1
        and products.append(a.vars)) or mul(a, b))
    for argv in (["compute", "z2-module", "--alpha-sq", "2", "--rank", "2", "--eps-order", "10",
                  "--q-order", "10"],
                 ["verify", "all", "--eps-order", "8", "--q-order", "8", "--max-weight", "8"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert exps == [] and products == []


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
    # The pinched log-det and delta come from minors in Q[E2, E4, E6] and
    # Q: verify all builds no q1-series moment matrix and makes one pinched
    # pass, in Q[E2, E4, E6].
    matrices = counting(monkeypatch, sewing, "a_matrix")
    passes = counting(monkeypatch, sewing, "_sewing_pass")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert len(matrices) == 0
    assert [args[0] for args in passes] == [ring.EisensteinPoly]
    assert sewing._degenerate_sewing.cache_info().misses == 1


def test_verify_all_computes_each_pinched_quantity_once(monkeypatch, capsys, cold_caches):
    # The pinched log-det and delta are computed once, as polynomial blocks
    # per eps order, and so is the closed-form operator made from them; every
    # suite reads them.  Every degeneration suite compares polynomials read
    # off that operator, so none builds a pinched closed form, an eta(q1)
    # inverse or a table of Taylor weights delta^l/l!, and a cold run takes
    # no exp and inverts no series (the conformal map is peeled without
    # one).  Without the memos the q-series suites made 19 exps and 16
    # inverses; with them and the q-series free-boson suite, one closed
    # form, one Taylor table and two inverses (eta(q1) and the map's).
    exps = counting(monkeypatch, QSeries, "exp")
    invs = counting(monkeypatch, QSeries, "inv")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert exps == [] and invs == []
    for memo in (sewing._degenerate_sewing, genus2._pinched_operator):
        assert memo.cache_info().misses == memo.cache_info().currsize == 1
    for memo in (genus2._z2_module_degenerate, genus2._eta_inverse, genus2._taylor_weights):
        assert memo.cache_info().currsize == 0


def test_verify_all_expands_no_eps_series_and_peels_without_powers(
        monkeypatch, capsys, cold_caches):
    # Every degeneration line is a polynomial identity per eps block, so a
    # cold verify all multiplies no series in two or more variables (the
    # q-series free-boson suite multiplied (eps, q1)-series), shifts no
    # series to the pinched modulus and expands no delta (taylor_shift and
    # degenerate_tau), and inverts no series; and the conformal map's peel
    # sums binomial series in g^k, so beta_coefficients, which runs once,
    # takes no rational power (each step took one, an exp of a log).
    products, mul = [], QSeries.__mul__
    monkeypatch.setattr(QSeries, "__mul__", lambda a, b: (
        isinstance(b, QSeries) and len(a.vars) > 1 and products.append(a.vars)) or mul(a, b))
    shifts = counting_everywhere(monkeypatch, genus2, "taylor_shift")
    taus = counting_everywhere(monkeypatch, sewing, "degenerate_tau")
    inverted = counting(monkeypatch, QSeries, "inv")
    betas = counting(monkeypatch, virasoro, "beta_coefficients")
    powers = counting(monkeypatch, QSeries, "pow_rational")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert products == [] and shifts == [] and taus == [] and inverted == []
    assert len(betas) == 1 and powers == []


def test_degeneration_coefficients_come_from_one_pass(monkeypatch):
    # Every H_l is read off the operators' numerators, the qd^l part of each
    # as a polynomial: asking for H_0 .. H_5 expands no operator's
    # coefficients as q-series, where the q-series route expanded each
    # operator once for all l.
    ds = genus2.degeneration_sum(8, 8)
    fresh = genus2.OperatorEpsSeries(ds.terms, ds.eps_trunc, ds.q_trunc)
    reads = counting(monkeypatch, zhu.DiffOp, "series")
    Hs = [fresh.extract_H(l) for l in range(6)]
    assert reads == [] and len(ds.terms) > 1
    assert Hs == [ds.extract_H(l) for l in range(6)] and Hs[5].is_zero()


def test_perturbed_logdet_fails_after_the_caches_are_cleared(monkeypatch, capsys, cold_caches):
    # A warm run fills the pinched-surface memos.  Once they are cleared, a
    # log-det perturbed at eps^6 (E4/7 added to its polynomial block, a
    # perturbation of the closed-form side only) must reach the closed
    # form: the Zhu-recursion line turns FAIL.
    argv = ["verify", "theta-degen", "--alpha-sq", "1", "--eps-order", "8", "--q-order", "6"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    blocks = genus2._degenerate_sewing

    def perturbed(eps_trunc):
        logdet, delta = blocks(eps_trunc)
        bump = ring.EisensteinPoly({(0, 1, 0): Fraction(1, 7)})
        return {**logdet, 6: logdet[6] + bump}, delta

    clear_caches()
    monkeypatch.setattr(genus2, "_degenerate_sewing", perturbed)
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
    # The modular identities read E_k over "q" at q-order 20, and a closed
    # form's monomial expansions read E_k over "q1" and "q2" at its q-order;
    # one table per (k, q-order) serves every variable.  A table of even
    # weight calls series.bernoulli once.  The degeneration suites compare
    # polynomials, so verify all expands no E_k at its own q-order 8.
    for cached in (*vars(ring).values(), *vars(series).values()):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    builds = counting(monkeypatch, series, "bernoulli")
    requests = [counting(monkeypatch, m, "eisenstein") for m in (series, sewing)]
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    tables = {args[:2] for calls in requests for args in calls if args[0] % 2 == 0}
    assert tables == {(2, 20), (4, 20)} and len(builds) == len(tables)
    assert cli.main(["compute", "z2-heisenberg", "--eps-order", "8", "--q-order", "8"]) == 0
    capsys.readouterr()
    tables = {args[:2] for calls in requests for args in calls if args[0] % 2 == 0}
    assert {(k, 8) for k in (2, 4, 6)} <= tables
    assert len(builds) == len(tables)


@pytest.mark.parametrize("obj", [["z2-module", "--alpha-sq", "2", "--rank", "2"], ["period"],
                                 ["tau-degen"]])
def test_compute_renders_only_the_format_asked_for(monkeypatch, capsys, obj):
    # compute prints its table or its JSON form and builds only that one:
    # a table run serializes no series, and a JSON run renders none as text,
    # where every run built both forms.
    texts = counting(monkeypatch, QSeries, "__str__")
    serialized = counting(monkeypatch, QSeries, "to_json")
    argv = ["compute", *obj, "--eps-order", "4", "--q-order", "3", "--format"]
    assert cli.main([*argv, "table"]) == 0
    assert serialized == []
    texts.clear()
    assert cli.main([*argv, "json"]) == 0
    capsys.readouterr()
    assert serialized and texts == []


def test_tau_degen_prints_its_ring_blocks_without_recognition(monkeypatch, capsys, cold_caches):
    # The eps^n block of tau-degen is an exact polynomial in Q[E2, E4, E6]
    # before it is expanded, so the table prints that polynomial and solves
    # no q-series back into the ring, where recognition ran once per block.
    solves = counting(monkeypatch, series, "to_quasimodular")
    assert cli.main(["compute", "tau-degen", "--eps-order", "8", "--q-order", "8"]) == 0
    assert "E2*eps^4" in capsys.readouterr().out
    assert solves == []


def test_eta_is_one_euler_product_per_q_order(monkeypatch, capsys, cold_caches):
    # verify all reads eta at q-order 20 (the modular identities, in q),
    # and compute z2-heisenberg at 8 (in q1 and in q2): each Euler product
    # is built once, one factor (1 - q^n) per n, whatever variable reads it.
    # The degeneration suites compare polynomials and read no eta.
    series._eta_product.cache_clear()
    factors = []
    mul = QSeries.__mul__

    def counted(a, b):
        if isinstance(b, QSeries) and b.den == 1 and len(b.nums) == 2 and b.nums.get((0,)) == 1:
            (n,), v = max(b.nums.items())
            if v == -1:
                factors.append((b.trunc, n))
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    assert code == 0
    assert sorted(factors) == [(20, n) for n in range(1, 21)]
    assert cli.main(["compute", "z2-heisenberg", "--eps-order", "8", "--q-order", "8"]) == 0
    capsys.readouterr()
    assert sorted(factors) == [(t, n) for t in (8, 20) for n in range(1, t + 1)]


def in_suites(monkeypatch, record):
    """Wrap detHi and the theta suite so that ``record()`` is true while
    either runs."""
    depth = [0]
    for name in ("verify_detHi", "verify_theta_degeneration"):
        suite = getattr(genus2, name)

        def wrapped(*args, suite=suite):
            depth[0] += 1
            try:
                return suite(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(genus2, name, wrapped)
    return lambda: depth[0] > 0


def test_verify_all_inverts_no_eps_series_and_specializes_in_the_ring(
        monkeypatch, capsys, cold_caches):
    # The free-boson suite divides polynomial blocks, so no series is
    # inverted at all (the eps-series inverses made 3, and the q-series
    # suite still inverted eta(q1)); and the theta pairs specialize the
    # operators in Q[E2, E4, E6] at a one-term base, so specialization
    # makes no q-series product at all (it made one per operator), and
    # neither does detHi (the z-series products of the conformal map, which
    # builds the descendants, are not theirs).
    inverted = []
    inv = QSeries.inv
    monkeypatch.setattr(QSeries, "inv", lambda s: inverted.append(s.vars) or inv(s))
    inside = in_suites(monkeypatch, None)
    calls = counting(monkeypatch, zhu, "specialize")
    products, mul = [], QSeries.__mul__
    monkeypatch.setattr(QSeries, "__mul__",
                        lambda a, b: (inside() and a.vars != ("z",) and products.append(a.vars))
                        or mul(a, b))
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert inverted == []
    assert calls == [] and products == []


def test_verify_all_checks_detHi_and_the_theta_pairs_in_the_rings(
        monkeypatch, capsys, cold_caches):
    # detHi, the free boson and the four theta pairs compare polynomials per
    # eps block: the run builds no eps-series at all, over (q1, C) or over
    # q1, and takes no QSeries.exp inside them, and the pinched blocks and
    # the closed-form operator they make are built once, for the one eps
    # order.
    inside = in_suites(monkeypatch, None)
    built, init = [], QSeries._init
    monkeypatch.setattr(QSeries, "_init", lambda s, vars, *a: built.append(vars) or init(
        s, vars, *a))
    exps, exp = [], QSeries.exp
    monkeypatch.setattr(QSeries, "exp", lambda s: (inside() and exps.append(s.vars)) or exp(s))
    passes = counting(monkeypatch, sewing, "_sewing_pass")
    code = cli.main(["verify", "all", "--eps-order", "12", "--q-order", "10",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert built and not [v for v in built if v[0] == "eps"]
    assert exps == []
    assert [(args[0], args[1]) for args in passes] == [(ring.EisensteinPoly, 12)]
    for memo in (sewing._degenerate_sewing, genus2._pinched_operator):
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (1, 1)


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
    # and the same operators and states as before fill the word caches.  The
    # normal ordering memoizes 195 (mode, partition) pairs, where the
    # word-keyed kernel held 466 raw words.
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
            virasoro._normal_order_word.cache_info().currsize) == (77, 20, 195)


def test_normal_ordering_memoizes_modes_on_partitions(cold_caches, monkeypatch):
    # The kernel is keyed by (mode, PBW partition), never by a raw mode word:
    # the structure suite through weight 20 fills it with 2,164 entries,
    # where the word-keyed kernel held 8,137 words.
    kernel = virasoro._normal_order_word
    calls = counting(monkeypatch, virasoro, "_normal_order_word")
    cli._structure_report(20, 8)
    keys = set(calls)
    assert len(keys) == kernel.cache_info().currsize <= 2164
    assert all(type(n) is int and virasoro.check_partition(parts) == parts
               for n, parts in keys)


def test_mode_on_a_unit_monomial_is_the_memoized_state(cold_caches):
    # L_n on one PBW monomial with unit coefficient is the kernel's cached
    # state itself, not a copy summed from it.
    for n in (-4, -1, 0, 2, 5):
        assert (virasoro.apply_mode(n, VirState.monomial((3, 2)))
                is virasoro._normal_order_word(n, (3, 2)))


def test_structure_check_reads_the_cached_operator(monkeypatch, cold_caches):
    # The check reads the word cache's operator itself: once the operator of
    # a partition is built, checking it sums nothing again.
    zhu.one_point_word((4, 3, 2), 8)
    sums = counting(monkeypatch, zhu, "_sum_terms")
    assert zhu.structure_check((4, 3, 2), 8).passed
    assert sums == []


def test_onepoint_reads_the_cached_operator(monkeypatch, capsys, cold_caches):
    # compute onepoint --partition reads the word cache's operator itself,
    # as the structure check does: a warm run sums nothing, where copying
    # it through the state's reduction made one sum.
    argv = ["compute", "onepoint", "--partition", "4,3,2", "--q-order", "8"]
    assert cli.main(argv) == 0
    sums = counting(monkeypatch, zhu, "_sum_terms")
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert sums == []


def test_bernoulli_numbers_come_from_one_table(monkeypatch, capsys, cold_caches):
    # One table serves every k and grows only when a larger k is asked for:
    # a verify all run inverts no z-series for it, where a table per k
    # inverted (e^z - 1)/z once for each distinct k.  Nor does the conformal
    # map, which inverted one z-series while it was a rational power: a cold
    # run inverts nothing.
    inverted = counting(monkeypatch, QSeries, "inv")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert inverted == []
    table = ring._bernoulli_coefficient.cache_info
    top = table().currsize
    ring.bernoulli(top - 1)
    ring.bernoulli(2)
    assert (table().currsize, table().misses) == (top, top)
    ring.bernoulli(top + 3)
    assert (table().currsize, table().misses) == (top + 4, top + 4)
