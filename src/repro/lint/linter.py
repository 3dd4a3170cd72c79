"""The linter driver: run a pass pipeline, collect a report.

One :class:`Linter` binds a :class:`~repro.lint.config.LintConfig` and
a pass list; :meth:`Linter.run` executes every pass over a program and
returns a sorted :class:`~repro.lint.diagnostics.LintReport`.  When
telemetry is enabled (:func:`repro.obs.current`), each run emits a
``lint.report`` event and bumps ``lint.*`` counters so lint verdicts
land in run manifests (:class:`repro.verify.Verifier` sets
:attr:`Linter.metrics` to report under ``verify.*`` instead).

A default-pass report is memoised on the :class:`~repro.core.program.
Program`, keyed by the (hashable) config and the report name, so the
several callers that lint one program against one bank — hardening,
the plan gate, a campaign's golden verdict — run the passes once.  The
memo goes when the program changes (see ``Program``); every call still
emits its event and bumps its counters.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.program import Program
from repro.lint.config import LintConfig
from repro.lint.diagnostics import LintReport, render
from repro.lint.passes import LintPass, default_passes


class LintError(ValueError):
    """A strict build rejected a program; carries the full report."""

    def __init__(self, report: LintReport) -> None:
        self.report = report
        super().__init__(render(report))


class Linter:
    """A configured pass pipeline, reusable across programs."""

    #: Each run bumps the ``<metrics>.runs``, ``.errors`` and
    #: ``.warnings`` counters and emits a ``<metrics>.report`` event.
    metrics = "lint"

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        passes: Optional[Sequence[LintPass]] = None,
    ) -> None:
        self.config = config or LintConfig()
        self.passes = tuple(passes) if passes is not None else default_passes()
        self._memoise = passes is None

    def run(self, program: Program, name: Optional[str] = None) -> LintReport:
        memo = (
            program.__dict__.setdefault("_lint_reports", {})
            if self._memoise
            else None
        )
        key = (self.config, name or program.name)
        try:
            report = memo.get(key) if memo is not None else None
        except TypeError:  # unhashable config (a custom EnergyBuffer)
            memo = report = None
        if report is None:
            report = self._lint(program, name)
            if memo is not None:
                memo[key] = report
        self._observe(report)
        return report

    def _lint(self, program: Program, name: Optional[str]) -> LintReport:
        diagnostics = []
        for lint_pass in self.passes:
            diagnostics.extend(lint_pass.run(program, self.config))
        diagnostics.sort(
            key=lambda d: (
                d.index if d.index is not None else -1,
                d.rule,
                d.tile if d.tile is not None else -1,
                d.row if d.row is not None else -1,
            )
        )
        return LintReport(
            program=name or program.name,
            n_instructions=len(program),
            diagnostics=tuple(diagnostics),
            passes=tuple(p.name for p in self.passes),
        )

    def _observe(self, report: LintReport) -> None:
        from repro import obs

        telemetry = obs.current()
        if not telemetry.enabled:
            return
        telemetry.counter(f"{self.metrics}.runs").inc()
        telemetry.counter(f"{self.metrics}.errors").inc(report.n_errors)
        telemetry.counter(f"{self.metrics}.warnings").inc(report.n_warnings)
        telemetry.emit(
            f"{self.metrics}.report",
            time.time(),
            program=report.program,
            errors=report.n_errors,
            warnings=report.n_warnings,
            rules=",".join(report.rules_fired()),
        )


def lint_program(
    program: Program,
    config: Optional[LintConfig] = None,
    passes: Optional[Sequence[LintPass]] = None,
    name: Optional[str] = None,
) -> LintReport:
    """Convenience one-shot lint of one program."""
    return Linter(config=config, passes=passes).run(program, name=name)
