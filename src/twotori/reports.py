"""Pass/fail report containers shared by the verification operations."""

from __future__ import annotations

from .ring import _Fields, _Record


class Check(_Record):
    """One exact comparison: pass means coefficient-for-coefficient equality."""
    _fields = ("name", "passed", "order", "expected", "computed")

    def __init__(self, name: str, passed: bool, order: str = "", expected: str = "",
                 computed: str = ""):
        super().__init__(name, passed, order, expected, computed)

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "order": self.order,
                "expected": self.expected, "computed": self.computed}


class Report(_Fields):
    """A named batch of exact checks with free-form header notes."""
    _fields = ("title", "notes", "checks")

    def __init__(self, title: str, notes: list | None = None, checks: list | None = None):
        super().__init__(title, [] if notes is None else notes, [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, order: str = "",
            expected: str = "", computed: str = "") -> None:
        self.checks.append(Check(name, bool(passed), order, expected, computed))

    def extend(self, other: "Report") -> None:
        self.notes.extend(other.notes)
        self.checks.extend(other.checks)

    def to_json(self) -> dict:
        return {"title": self.title, "pass": self.passed, "notes": list(self.notes),
                "checks": [c.to_json() for c in self.checks]}

    def render_table(self) -> str:
        lines = [f"== {self.title} =="]
        for note in self.notes:
            lines.append(f"note: {note}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.name}"
            if c.order:
                line += f"  [{c.order}]"
            lines.append(line)
            if not c.passed:
                if c.expected:
                    lines.append(f"      expected: {c.expected}")
                if c.computed:
                    lines.append(f"      computed: {c.computed}")
        lines.append(f"{'OK' if self.passed else 'FAILED'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)
