"""End-to-end and per-layer benchmark of the ``twotori`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``verify-all``, ``z2-module``, ``structure``, or ``all``,
which runs the three round-robin in one loop.  Every invocation is a fresh
interpreter running the CLI from ``src/``, one child at a time (a closed
loop with one client), so each pays cold ``lru_cache``s exactly as a CLI
user does.  Each child is accounted with ``os.wait4``, which gives the CPU
time and peak RSS of that child alone.

An invocation fails when its exit code or the sha256 of its stdout differs
from ``expected.json`` (recorded from the CLI at the commit that added this
benchmark), or when a verify suite prints a check that is not PASS.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
workload once under ``tracer.py`` and prints the per-layer metrics, plus
the tracing overhead against untraced runs of the same command.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
run context (inputs, samples, machine) is the JSON line before it.  Scratch
files (child stderr, span dumps) go to ``.perfbench-work/`` in the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"

# Orders are the ROADMAP's raised order, except z2-module at 10: at 12 one
# invocation takes 5-9 s, so a 40 s run holds too few samples for a steady
# median on a shared host.  Why each workload is here:
#  verify-all  the CI gate; touches every layer and repeats sewing work
#              (_degenerate_logdet, degenerate_tau) with few distinct inputs.
#  z2-module   the bivariate path; BiSeries products dominate and virasoro,
#              zhu and quasi-modular recognition are never called.
#  structure   virasoro, zhu and to_quasimodular on many small univariate
#              series; sewing is never called.
WORKLOADS = {
    "verify-all": ["verify", "all", "--eps-order", "12", "--q-order", "12",
                   "--max-weight", "12"],
    "z2-module": ["compute", "z2-module", "--alpha-sq", None, "--rank", "2",
                  "--eps-order", "10", "--q-order", "10"],
    "structure": ["verify", "structure", "--max-weight", "14", "--q-order", "14"],
}
# The seed picks alpha^2 for z2-module.  These values scale the period
# argument by powers of two, so coefficient sizes and CPU time differ by a
# few per cent only and runs with different seeds stay comparable.
Z2_ALPHA_GRID = ("1", "2", "4", "8")

MIN_ROUNDS = 3          # timed invocations per workload, at least
SETUP_PER_ROUND = 3     # set-up and reference interpreters before each round
TAIL_BEYOND = 10        # samples that must lie above the reported tail

# On a shared host the speed of the same code drifts by tens of per cent
# from one minute to the next, and the runs of one workload are minutes
# apart.  So each round also times a reference program in fresh
# interpreters: start-up, the stdlib imports twotori makes, and a truncated
# product of Fraction series, the kind of work twotori does, but none of its
# code.  Time metrics are multiplied by REFERENCE_NOMINAL_S over the run's
# median reference time: they read as seconds on a host where the
# reference takes REFERENCE_NOMINAL_S.  Raw seconds and the factor are in
# the context line.
REFERENCE_CODE = ("import cmath, dataclasses, functools, math\n"
                  "from fractions import Fraction\n"
                  "a = [Fraction(1, k + 2) for k in range(120)]\n"
                  "c = [sum(a[i] * a[k - i] for i in range(k + 1)) for k in range(120)]\n")
REFERENCE_NOMINAL_S = 0.15

END_TO_END = {"wall_s": "s", "wall_s.tail": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}

_LAYERS = ("series", "virasoro", "zhu", "sewing", "genus2", "cli")
PER_LAYER = {
    **{f"series.{op}.{k}": u for op in ("mul", "add", "inv", "explog", "quasimodular")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "series.eisenstein.calls": "count", "series.eisenstein.unique_frac": "ratio",
    "virasoro.lambda.calls": "count", "virasoro.lambda.self_s": "s",
    "virasoro.normal_order.hit_frac": "ratio",
    "zhu.one_point.calls": "count", "zhu.one_point.self_s": "s",
    "zhu.theta.self_s": "s", "zhu.specialize.self_s": "s",
    "zhu.word_cache.hit_frac": "ratio", "zhu.word_cache.entries": "count",
    "sewing.a_matrix.calls": "count", "sewing.a_matrix.unique_frac": "ratio",
    "sewing.a_matrix.self_s": "s",
    "sewing.logdet.calls": "count", "sewing.logdet.self_s": "s",
    "sewing.resolvent.calls": "count", "sewing.resolvent.self_s": "s",
    "sewing.degenerate_tau.calls": "count", "sewing.degenerate_tau.unique_frac": "ratio",
    "genus2.closed_form.self_s": "s",
    "genus2.degeneration_sum.calls": "count", "genus2.degeneration_sum.self_s": "s",
    "genus2.verify.self_s": "s",
    "cli.render_s": "s", "cli.stdout_bytes": "B", "cli.max_coeff_bits": "bit",
    **{f"{layer}.{k}": u for layer in _LAYERS for k, u in (("self_s", "s"), ("share", "ratio"))},
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, broken interpreter, ...)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    error: str | None


def z2_alpha(seed: int) -> str:
    return Z2_ALPHA_GRID[seed % len(Z2_ALPHA_GRID)]


def workload_args(name: str, seed: int) -> list[str]:
    return [z2_alpha(seed) if a is None else a for a in WORKLOADS[name]]


def expected_key(name: str, seed: int) -> str:
    """Key of the recorded output in expected.json."""
    return f"{name}:{z2_alpha(seed)}" if None in WORKLOADS[name] else name


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(stdout: bytes, exit_code: int, expect: dict, verify: bool) -> str | None:
    """The reason this invocation failed the correctness gate, or None."""
    if exit_code != expect["exit"]:
        return f"exit code {exit_code}, expected {expect['exit']}"
    if sha256(stdout) != expect["sha256"]:
        return "stdout digest mismatch"
    if verify:
        lines = stdout.decode().splitlines()
        # "FAIL  <check>" and the "FAILED: n/m" summary both start with FAIL.
        if not any(ln.startswith("PASS  ") for ln in lines) \
                or any(ln.startswith("FAIL") for ln in lines):
            return "not every check PASS"
    return None


def max_coeff_bits(stdout: bytes) -> int:
    """Largest bit length of any integer (numerator or denominator) printed."""
    return max((int(m).bit_length() for m in re.findall(rb"\d+", stdout)), default=0)


class Runner:
    """Spawns children from a checkout root and accounts for each with wait4."""

    def __init__(self, root: Path):
        if not (root / "src" / "twotori" / "__init__.py").is_file():
            raise BenchError(f"no twotori sources under {root / 'src'}")
        self.root = root
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def spawn(self, argv: list[str], stderr_name: str) -> tuple[Sample, int]:
        err_path = self.work / f"{stderr_name}.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits on the pid.
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      out, None), code

    def child_time(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code``."""
        sample, exit_code = self.spawn(["-c", code], "setup")
        if exit_code != 0:
            raise BenchError(f"{code!r} failed: "
                             + (self.work / "setup.stderr").read_text()[-2000:])
        return sample.wall_s

    def invoke(self, name: str, seed: int, expected: dict, tracer_spans: Path | None = None) -> Sample:
        args = workload_args(name, seed)
        argv = (["-m", "twotori", *args] if tracer_spans is None else
                [str(HERE / "tracer.py"), str(tracer_spans), "--", *args])
        sample, code = self.spawn(argv, name)
        sample.error = check_output(sample.stdout, code, expected[expected_key(name, seed)],
                                    verify=args[0] == "verify")
        if sample.error and code != 0:
            tail = (self.work / f"{name}.stderr").read_text(errors="replace")[-500:]
            sample.error += f": {tail.strip()}"
        return sample


def round_robin(runner: Runner, names: list[str], seed: int, seconds: float,
                expected: dict, min_rounds: int = MIN_ROUNDS,
                host: dict[str, list[float]] | None = None) -> dict[str, list[Sample]]:
    """Interleave the workloads, one child at a time, so drift hits all alike.

    Stops before a round that would end past ``seconds``, once each
    workload has ``min_rounds`` samples.  Given ``host`` lists, each round
    starts by adding set-up and reference times to them, alternately, so
    both are sampled across the whole run rather than in one burst.
    """
    samples: dict[str, list[Sample]] = {n: [] for n in names}
    start = time.perf_counter()
    rounds = 0
    while True:
        if host is not None:
            for _ in range(SETUP_PER_ROUND):
                host["setup"].append(runner.child_time("import twotori"))
                host["reference"].append(runner.child_time(REFERENCE_CODE))
        for name in names:
            samples[name].append(runner.invoke(name, seed, expected))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return samples


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it.  Below 2 * TAIL_BEYOND + 1 samples that
    statistic would lie under the median, so the median is reported."""
    ordered = sorted(values)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    k = len(ordered) - TAIL_BEYOND      # 1-based rank with TAIL_BEYOND above it
    return ordered[k - 1], 100.0 * k / len(ordered)


def failures(samples: list[Sample]) -> dict:
    return {"failed_frac": sum(s.error is not None for s in samples) / len(samples),
            "errors": sorted({s.error for s in samples if s.error})}


def end_to_end(samples: list[Sample], scale: float) -> tuple[dict, dict]:
    walls = [s.wall_s for s in samples]
    tail_value, tail_pct = tail(walls)
    metrics = {"wall_s": statistics.median(walls) * scale, "wall_s.tail": tail_value * scale,
               "cpu_s": statistics.median(s.cpu_s for s in samples) * scale,
               "peak_rss_mb": max(s.peak_rss_mb for s in samples)}
    context = {"seconds": walls, "median": statistics.median(walls),
               "cpu_seconds": [s.cpu_s for s in samples],
               "peak_rss_mb": metrics["peak_rss_mb"],
               "max_coeff_bits": max(max_coeff_bits(s.stdout) for s in samples),
               "samples": len(samples), "tail_percentile": tail_pct, **failures(samples)}
    return metrics, context


def layer_metrics(doc: dict, traced_wall: float, untraced_wall: float, stdout: bytes) -> dict:
    """Per-layer metrics from a tracer span dump (see tracer.py)."""
    names, spans = doc["names"], doc["spans"]
    render = names.index("cli.render") if "cli.render" in names else -1
    child_time = [0.0] * len(spans)
    in_render = [False] * len(spans)
    calls: dict[str, int] = dict.fromkeys(names, 0)
    self_s: dict[str, float] = dict.fromkeys(names, 0.0)
    render_s = 0.0
    # A span's id is allocated when it opens, so every parent precedes its children.
    for i, (name_id, parent, start, end) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_render[i] = in_render[parent]
        if name_id == render:
            if not in_render[i]:
                render_s += end - start
            in_render[i] = True
    for i, (name_id, _, start, end) in enumerate(spans):
        calls[names[name_id]] += 1
        self_s[names[name_id]] += end - start - child_time[i]

    def frac(num: int, den: int) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(span, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(span, 0.0)
        elif kind == "unique_frac":
            out[metric] = frac(doc["distinct"][span], calls.get(span, 0))
        elif kind == "hit_frac":
            cache = doc["caches"][span]
            out[metric] = frac(cache["hits"], cache["hits"] + cache["misses"])
    for layer in _LAYERS:
        layer_self = sum(t for n, t in self_s.items() if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.share"] = layer_self / traced_wall
    out["zhu.word_cache.entries"] = doc["caches"]["zhu.word_cache"]["entries"]
    out["cli.render_s"] = render_s
    out["cli.stdout_bytes"] = len(stdout)
    out["cli.max_coeff_bits"] = max_coeff_bits(stdout)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return {k: out[k] for k in PER_LAYER}


def git_rev(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def measure(runner: Runner, names: list[str], seed: int, seconds: float,
            trace: bool, expected: dict) -> tuple[dict, dict, list[Sample]]:
    """Metrics as {name: {value, unit}}, per-workload context, and every
    sample taken.  With several workloads each name is prefixed by one."""
    metrics: dict[str, dict] = {}
    context: dict[str, dict] = {}
    taken: list[Sample] = []

    def add(name: str, values: dict, units: dict) -> None:
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})

    if not trace:
        host: dict[str, list[float]] = {"setup": [], "reference": []}
        by_name = round_robin(runner, names, seed, seconds, expected, host=host)
        scale = REFERENCE_NOMINAL_S / statistics.median(host["reference"])
        setup = host["setup"]
        metrics["setup_s"] = {"value": statistics.median(setup) * scale,
                              "unit": END_TO_END["setup_s"]}
        context["setup"] = {"seconds": setup, "median": statistics.median(setup)}
        context["reference"] = {"seconds": host["reference"], "scale": scale}
        for name in names:
            values, context[name] = end_to_end(by_name[name], scale)
            add(name, values, END_TO_END)
            taken += by_name[name]
        return metrics, context, taken
    budget = seconds / len(names)
    for name in names:
        spans_path = runner.work / f"{name}.spans.json"
        spans_path.unlink(missing_ok=True)
        traced = runner.invoke(name, seed, expected, tracer_spans=spans_path)
        start = time.perf_counter()
        untraced = round_robin(runner, [name], seed, budget - traced.wall_s, expected,
                               min_rounds=1)[name]
        untraced_wall = statistics.median(s.wall_s for s in untraced)
        doc = json.loads(spans_path.read_text())
        add(name, layer_metrics(doc, traced.wall_s, untraced_wall, traced.stdout), PER_LAYER)
        samples = [traced, *untraced]
        context[name] = {"traced_wall_s": traced.wall_s, "spans": len(doc["spans"]),
                         "untraced_seconds": [s.wall_s for s in untraced],
                         "untraced_s": time.perf_counter() - start, **failures(samples)}
        taken += samples
    return metrics, context, taken


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    load_start = os.getloadavg()
    try:
        runner = Runner(Path.cwd())
        expected = json.loads((HERE / "expected.json").read_text())
        metrics, context, taken = measure(runner, names, args.seed, args.seconds,
                                          bool(args.trace), expected)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    failed = sum(s.error is not None for s in taken)
    for name in names:
        inputs = workload_args(name, args.seed)
        context[name]["inputs"] = inputs
        context[name]["orders"] = {flag[2:]: int(value) for flag, value in zip(inputs, inputs[1:])
                                   if flag in ("--eps-order", "--q-order", "--max-weight")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "workloads": context, "git_rev": git_rev(runner.root),
                      "python": platform.python_version(), "nproc": os.cpu_count(),
                      "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                      "attempted": len(taken), "failed_frac": failed / len(taken)}))
    for name, metric in metrics.items():
        print(f"{name:40} {metric['value']:.6g} {metric['unit']}")
    for name in names:
        label = f"{name}.failed_frac" if len(names) > 1 else "failed_frac"
        print(f"{label:40} {context[name]['failed_frac']:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": len(taken), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
