"""The verifier driver: run semantic passes, collect a report.

Structurally a twin of :class:`repro.lint.linter.Linter` — the passes
yield the same :class:`~repro.lint.diagnostics.Diagnostic` objects and
the result is the same deterministic :class:`~repro.lint.diagnostics.
LintReport` — but the telemetry lands under ``verify.*`` counters and a
``verify.report`` event, so manifests distinguish "structurally clean"
from "semantically proven".
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.program import Program
from repro.lint.config import LintConfig
from repro.lint.diagnostics import LintReport
from repro.lint.passes import LintPass


class Verifier:
    """A configured semantic-pass pipeline, reusable across programs.

    Unlike the linter there is no useful default pass list: every
    semantic pass needs per-program context (a spec, a source program,
    a replay period), so the pipeline is always explicit.
    """

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        passes: Sequence[LintPass] = (),
    ) -> None:
        self.config = config or LintConfig()
        self.passes = tuple(passes)

    def run(self, program: Program, name: Optional[str] = None) -> LintReport:
        diagnostics = []
        for verify_pass in self.passes:
            diagnostics.extend(verify_pass.run(program, self.config))
        diagnostics.sort(
            key=lambda d: (
                d.index if d.index is not None else -1,
                d.rule,
                d.tile if d.tile is not None else -1,
                d.row if d.row is not None else -1,
            )
        )
        report = LintReport(
            program=name or program.name,
            n_instructions=len(program),
            diagnostics=tuple(diagnostics),
            passes=tuple(p.name for p in self.passes),
        )
        self._observe(report)
        return report

    @staticmethod
    def _observe(report: LintReport) -> None:
        from repro import obs

        telemetry = obs.current()
        if not telemetry.enabled:
            return
        telemetry.counter("verify.runs").inc()
        telemetry.counter("verify.errors").inc(report.n_errors)
        telemetry.counter("verify.warnings").inc(report.n_warnings)
        telemetry.emit(
            obs.events.VERIFY_REPORT,
            time.time(),
            program=report.program,
            errors=report.n_errors,
            warnings=report.n_warnings,
            rules=",".join(report.rules_fired()),
        )


def verify_program(
    program: Program,
    config: Optional[LintConfig] = None,
    passes: Sequence[LintPass] = (),
    name: Optional[str] = None,
) -> LintReport:
    """Convenience one-shot verification of one program."""
    return Verifier(config=config, passes=passes).run(program, name=name)
