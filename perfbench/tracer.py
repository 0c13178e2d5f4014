"""Run one ``twotori`` CLI invocation with layer spans recorded from outside.

Usage: ``PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- ARGS...``

The package is instrumented without editing it: every function named in
``TARGETS`` is replaced by a timing wrapper in every ``twotori.*`` module
namespace and class dictionary that holds the same object (``genus2`` and
``cli`` import sewing and zhu functions by name, and the series classes
alias ``__radd__``/``__rmul__``).  Spans stay in memory with their parent id
and are written to SPANS.json when the command returns; stdout carries only
the CLI's own bytes and the exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODULES = ("series", "virasoro", "zhu", "sewing", "genus2", "reports", "cli")
SERIES = ("QSeries", "BiSeries", "EpsSeries")

# span name -> "module.qualname" of each function it times.  The layer is
# the part of the span name before the first dot.
TARGETS = {
    "series.mul": [f"series.{c}.{m}" for c in SERIES for m in ("__mul__", "__pow__")],
    "series.add": [f"series.{c}.{m}" for c in SERIES for m in ("__add__", "__sub__", "__neg__")]
                  + ["series.QSeries.__rsub__"],
    "series.inv": [f"series.{c}.inv" for c in SERIES],
    "series.explog": ["series.QSeries.exp", "series.QSeries.log",
                      "series.QSeries.pow_rational", "series.EpsSeries.exp"],
    "series.quasimodular": ["series.to_quasimodular"],
    "series.eisenstein": ["series.eisenstein"],
    "virasoro.lambda": ["virasoro.lambda_vector", "virasoro.lambda_vector_direct"],
    "virasoro.modes": ["virasoro.apply_mode", "virasoro.alpha_coefficients",
                       "virasoro.beta_coefficients"],
    "zhu.one_point": ["zhu.one_point", "zhu.one_point_word"],
    "zhu.theta": ["zhu.to_theta_basis", "zhu.to_z_basis"],
    "zhu.specialize": ["zhu.specialize"],
    "zhu.structure": ["zhu.structure_check"],
    "sewing.a_matrix": ["sewing.a_matrix"],
    "sewing.a2_degenerate": ["sewing.a2_degenerate"],
    "sewing.logdet": ["sewing.log_det_I_minus"],
    "sewing.resolvent": ["sewing.resolvent_11", "sewing.weighted_resolvent_11"],
    "sewing.period": ["sewing.period_matrix"],
    "sewing.degenerate_tau": ["sewing.degenerate_tau"],
    "genus2.closed_form": ["genus2.z2_heisenberg", "genus2.z2_module_pair",
                           "genus2.z2_heisenberg_degenerate", "genus2.z2_module_degenerate"],
    "genus2.degeneration_sum": ["genus2.degeneration_sum"],
    "genus2.taylor_shift": ["genus2.taylor_shift"],
    "genus2.verify": ["genus2.verify_detHi", "genus2.verify_heisenberg_degeneration",
                      "genus2.verify_theta_degeneration"],
    # Rendering: the CLI's output path plus the text/JSON forms of the objects
    # it prints.  Only the outermost render span counts towards cli.render_s.
    "cli.render": ["cli._emit", "cli._render_eps_quasimodular",
                   "reports.Report.render_table", "reports.Report.to_json", "zhu.DiffOp.__str__",
                   "zhu.DiffOp.to_json", "zhu.DiffOp.render_symbolic",
                   "series.QuasiModularPoly.__str__"]
                  + [f"series.{c}.{m}" for c in SERIES for m in ("__str__", "to_json")],
}

# Spans whose distinct argument tuples are counted (unique_frac).
KEYED = ("series.eisenstein", "sewing.a_matrix", "sewing.degenerate_tau")

# lru_caches read before and after the command: metric name -> functions.
CACHES = {
    "virasoro.normal_order": ["virasoro._normal_order_word"],
    "zhu.word_cache": ["zhu._op_for_word", "zhu._state_for_word"],
}


class Tracer:
    """In-memory span recorder: (name, parent span id, start, end)."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.keys: dict[str, set] = {name: set() for name in KEYED}

    def wrap(self, name: str, fn):
        name_id = self.names.setdefault(name, len(self.names))
        keys = self.keys.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[span_id] = (name_id, parent, start, clock())
                stack.pop()

        return traced

    def dump(self, path: str, caches: dict) -> None:
        text = json.dumps({"names": list(self.names), "spans": self.spans,
                           "distinct": {k: len(v) for k, v in self.keys.items()},
                           "caches": caches})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve(modules: dict, dotted: str):
    module, *path = dotted.split(".")
    obj = modules[module]
    for part in path:
        obj = getattr(obj, part)
    return obj


def _namespaces(modules: dict):
    """Every module dict and class dict in the package that may hold a target."""
    for mod in modules.values():
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def _rebind(namespaces, original, replacement) -> int:
    count = 0
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                count += 1
    return count


def instrument(tracer: Tracer, modules: dict) -> None:
    namespaces = list(_namespaces(modules))
    for name, dotted_list in TARGETS.items():
        for dotted in dotted_list:
            original = _resolve(modules, dotted)
            if not _rebind(namespaces, original, tracer.wrap(name, original)):
                raise RuntimeError(f"tracer target {dotted} is bound nowhere")
    # cli prints through the builtin; a module global shadows it there.
    modules["cli"].print = tracer.wrap("cli.render", print)


def cache_counts(modules: dict) -> dict:
    out = {}
    for name, dotted_list in CACHES.items():
        infos = [_resolve(modules, d).cache_info() for d in dotted_list]
        out[name] = {"hits": sum(i.hits for i in infos),
                     "misses": sum(i.misses for i in infos),
                     "entries": sum(i.currsize for i in infos)}
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    modules = {m: importlib.import_module(f"twotori.{m}") for m in MODULES}
    tracer = Tracer()
    instrument(tracer, modules)
    before = cache_counts(modules)
    run = tracer.wrap("cli.main", modules["cli"].main)
    try:
        code = run(cli_args)
    finally:
        after = cache_counts(modules)
        tracer.dump(spans_path, {
            name: {k: after[name][k] - before[name][k] for k in ("hits", "misses")}
            | {"entries": after[name]["entries"]}
            for name in after})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
