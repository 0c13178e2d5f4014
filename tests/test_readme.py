"""The README's library quick tour runs as written.

The ```python block under "Library quick tour" uses the documented public
API; this test extracts it from README.md and executes it, so a change to
that API that breaks the tour fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library quick tour'"
    return match.group(1)


def test_quick_tour_runs():
    code = quick_tour()
    for name in ("VirState.monomial", "one_point", "to_theta_basis", "specialize",
                 "BasePartition.heisenberg"):
        assert name in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].passed
