"""Structured lint findings and their renderers.

A :class:`Diagnostic` is one finding — rule id, severity, the
instruction index it anchors to, the tile/row locus, and a fix hint.
A :class:`LintReport` is everything one linter run produced over one
program, with deterministic JSON (sorted keys, no timestamps) and a
human rendering for the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class Severity(str, Enum):
    """Finding severity: errors block strict compilation, warnings
    flag wasted work or restart hazards."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one lint pass."""

    rule: str
    severity: Severity
    message: str
    #: Instruction index the finding anchors to (None = whole program).
    index: Optional[int] = None
    tile: Optional[int] = None
    row: Optional[int] = None
    hint: str = ""

    def locus(self) -> str:
        """Compact "@index t<tile> row <row>" locus string."""
        parts = []
        if self.index is not None:
            parts.append(f"@{self.index}")
        if self.tile is not None:
            parts.append(f"t{self.tile}")
        if self.row is not None:
            parts.append(f"row {self.row}")
        return " ".join(parts)

    def to_json_obj(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.index is not None:
            out["index"] = self.index
        if self.tile is not None:
            out["tile"] = self.tile
        if self.row is not None:
            out["row"] = self.row
        if self.hint:
            out["hint"] = self.hint
        return out

    def __str__(self) -> str:
        locus = self.locus()
        head = f"{self.severity}[{self.rule}]"
        if locus:
            head += f" {locus}"
        text = f"{head}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass(frozen=True)
class LintReport:
    """All findings of one linter run over one program (frozen: one
    report may be shared by every caller that linted the program)."""

    program: str
    n_instructions: int
    diagnostics: tuple[Diagnostic, ...] = ()
    passes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n_errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def n_warnings(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity is Severity.WARNING
        )

    @property
    def ok(self) -> bool:
        """No errors (warnings do not fail a lint)."""
        return self.n_errors == 0

    @property
    def clean(self) -> bool:
        """No findings at all."""
        return not self.diagnostics

    def rules_fired(self) -> tuple[str, ...]:
        return tuple(sorted({d.rule for d in self.diagnostics}))

    def by_rule(self, rule: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.rule == rule)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "schema": "repro.lint.report/v1",
            "program": self.program,
            "instructions": self.n_instructions,
            "passes": list(self.passes),
            "errors": self.n_errors,
            "warnings": self.n_warnings,
            "diagnostics": [d.to_json_obj() for d in self.diagnostics],
        }

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys, no timestamps)."""
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def render(report: LintReport, tool: str = "lint") -> str:
    """Human rendering of one report (the CLI's output)."""
    if report.clean:
        verdict = "clean"
    else:
        verdict = f"{report.n_errors} error(s), {report.n_warnings} warning(s)"
    lines = [
        f"{tool}: {report.program!r} "
        f"({report.n_instructions} instructions) — {verdict}"
    ]
    lines.extend(f"  {d}" for d in report.diagnostics)
    return "\n".join(lines)
