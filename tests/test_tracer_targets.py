"""Every name the benchmark's tracer instruments must exist in the package.

``perfbench/tracer.py`` looks its targets up by dotted name when
``perfbench/run.py --trace 1`` runs; a renamed function or class would make
that run fail.  This test resolves each name the same way, without
instrumenting anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    modules = {m: importlib.import_module(f"twotori.{m}") for m in tracer.MODULES}
    targets = [d for dotted in tracer.TARGETS.values() for d in dotted]
    assert targets
    for dotted in targets:
        assert callable(tracer._resolve(modules, dotted)), dotted
    for dotted in (d for names in tracer.CACHES.values() for d in names):
        assert hasattr(tracer._resolve(modules, dotted), "cache_info"), dotted
