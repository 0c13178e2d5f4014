"""Work-count guards: how often the expensive shared routines run.

Counts, not timings: each test wraps a function in the namespace of the
module that calls it and asserts how many calls one fixed input makes.
"""

from fractions import Fraction

import pytest

from twotori import cli, genus2, sewing, zhu
from twotori.genus2 import ModulePair, z2_module_pair


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.fixture
def cold_caches():
    # A CLI run starts with empty caches; so does each counted run here.
    caches = (genus2.degeneration_sum, sewing._degenerate_sewing,
              zhu._op_for_word, zhu._state_for_word)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_module_pair_forms_each_power_once(monkeypatch):
    # P = A1 A2 and P^2..P^5 at eps order 10, and no matrix-vector chain:
    # the log-det and the period data come from the same powers.
    products = counting(monkeypatch, sewing, "_mat_mul")
    chains = counting(monkeypatch, sewing, "_resolvent_vector_sum")
    z2_module_pair(ModulePair(2, alpha_sq=Fraction(2)), 1, 1, 10)
    assert (len(products), len(chains)) == (5, 0)


def test_verify_all_builds_shared_data_once(monkeypatch, capsys, cold_caches):
    # detHi and the four theta pairs share one degeneration sum, and every
    # suite shares one degenerate sewing pass (log-det and delta together).
    sums = counting(monkeypatch, genus2, "lambda_vector")
    passes = counting(monkeypatch, sewing, "_power_sums")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "8"])
    capsys.readouterr()
    assert code == 0
    assert (len(sums), len(passes)) == (1, 1)


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
    sums = counting(monkeypatch, genus2, "lambda_vector")
    code = cli.main(["verify", "all", "--eps-order", "8", "--q-order", "8",
                     "--max-weight", "10"])
    capsys.readouterr()
    assert code == 0
    assert len(sums) == 1
