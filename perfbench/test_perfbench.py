"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.  They use
small orders, so they check the harness, not the workloads' cost.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "verify-all": ["verify", "all", "--eps-order", "6", "--q-order", "6", "--max-weight", "6"],
    "z2-module": ["compute", "z2-module", "--alpha-sq", "1/2", "--rank", "2",
                  "--eps-order", "6", "--q-order", "6"],
    "structure": ["verify", "structure", "--max-weight", "8", "--q-order", "8"],
}
COUNTS = ("calls", "unique_frac", "hit_frac", "entries")


@pytest.fixture(scope="module")
def runner():
    return run.Runner(ROOT)


def traced(runner, name):
    spans = runner.work / f"selftest-{name}.spans.json"
    sample, code = runner.spawn([str(run.HERE / "tracer.py"), str(spans), "--", *SMALL[name]],
                                "selftest")
    layers = run.layer_metrics(json.loads(spans.read_text()), sample.wall_s, sample.wall_s,
                               sample.stdout)
    return sample, code, layers


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_stdout_is_byte_identical(runner, name):
    plain, plain_code = runner.spawn(["-m", "twotori", *SMALL[name]], "selftest")
    sample, code, _ = traced(runner, name)
    assert plain_code == code == 0
    assert sample.stdout == plain.stdout


def test_counts_repeat_exactly(runner):
    first, second = traced(runner, "verify-all")[2], traced(runner, "verify-all")[2]
    counts = {k: v for k, v in first.items() if k.rsplit(".", 1)[1] in COUNTS}
    assert counts["series.mul.calls"] > 0
    assert counts == {k: second[k] for k in counts}


def test_workloads_bypass_the_layers_they_should(runner):
    z2 = traced(runner, "z2-module")[2]
    assert z2["series.quasimodular.calls"] == 0
    assert z2["virasoro.self_s"] == z2["zhu.self_s"] == 0
    structure = traced(runner, "structure")[2]
    sewing_calls = [k for k in run.PER_LAYER if k.startswith("sewing.") and k.endswith(".calls")]
    assert sewing_calls and all(structure[k] == 0 for k in sewing_calls)


def test_wrong_digest_counts_as_failure(runner, monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {"verify-all": SMALL["verify-all"]})
    plain, _ = runner.spawn(["-m", "twotori", *SMALL["verify-all"]], "selftest")
    good = {"verify-all": {"sha256": run.sha256(plain.stdout), "exit": 0}}
    bad = {"verify-all": {"sha256": run.sha256(plain.stdout + b"x"), "exit": 0}}
    for expected, failures in ((good, 0), (bad, 1)):
        samples = run.round_robin(runner, ["verify-all"], 0, 0.0, expected, min_rounds=2)
        assert [s.error is not None for s in samples["verify-all"]] == [bool(failures)] * 2


def test_failed_check_is_caught_even_with_matching_digest():
    out = b"== t ==\nPASS  a\nFAIL  b\nFAILED: 1/2 checks passed\n"
    expect = {"sha256": run.sha256(out), "exit": 0}
    assert run.check_output(out, 0, expect, verify=True) == "not every check PASS"
    assert run.check_output(out, 1, expect, verify=True).startswith("exit code 1")


def test_expected_digests_cover_every_input():
    expected = json.loads((run.HERE / "expected.json").read_text())
    keys = {run.expected_key(name, seed) for name in run.WORKLOADS
            for seed in range(len(run.Z2_ALPHA_GRID))}
    assert keys == set(expected)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == (10.5, 50.0)
    assert run.tail(values + [21.0]) == (11.0, 100 * 11 / 21)
    assert run.tail(values + [21.0, 22.0, 23.0]) == (13.0, 100 * 13 / 23)
