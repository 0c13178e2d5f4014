"""Every name the benchmark's tracer instruments must exist in the package,
and the tracer must still bind each of them.

``perfbench/tracer.py`` looks its targets up by dotted name when
``perfbench/run.py --trace 1`` runs; a renamed function or class would make
that run fail.  The first test resolves each name the same way, without
instrumenting anything.  A name can resolve and still be bound nowhere the
tracer looks (a method inherited from a class of another module), so the
second test runs the tracer itself on a small command.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_every_traced_method_is_bound_in_its_own_class():
    # The tracer rebinds the object it resolves wherever a twotori module or
    # a class defined there holds it, so a method inherited from a class of
    # another module is timed elsewhere (``__str__`` is aliased across
    # rings) or nowhere: each one must be in its own class body.
    tracer = load_tracer()
    modules = {m: importlib.import_module(f"twotori.{m}") for m in tracer.MODULES}
    for dotted in (d for names in tracer.TARGETS.values() for d in names):
        module, *path = dotted.split(".")
        if len(path) == 2:
            cls = getattr(modules[module], path[0])
            assert path[1] in vars(cls) and cls.__module__ == f"twotori.{module}", dotted


def test_the_tracer_binds_every_target(tmp_path):
    spans = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "--", "verify", "all", "--eps-order", "4",
         "--q-order", "4", "--max-weight", "4"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    data = json.loads(spans.read_text(encoding="utf-8"))
    assert data["spans"] and "zhu.structure" in data["names"]
