"""The verifier driver: run semantic passes, collect a report.

:class:`Verifier` is the :class:`repro.lint.linter.Linter` with an
explicit pass list: the passes yield the same :class:`~repro.lint.
diagnostics.Diagnostic` objects and the result is the same
deterministic :class:`~repro.lint.diagnostics.LintReport`, but the
telemetry lands under ``verify.*`` counters and a ``verify.report``
event, so manifests distinguish "structurally clean" from
"semantically proven".
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.program import Program
from repro.lint.config import LintConfig
from repro.lint.diagnostics import LintReport
from repro.lint.linter import Linter
from repro.lint.passes import LintPass


class Verifier(Linter):
    """A configured semantic-pass pipeline, reusable across programs.

    Unlike the linter there is no useful default pass list: every
    semantic pass needs per-program context (a spec, a source program,
    a replay period), so the pipeline is always explicit, and an
    explicit pipeline's reports are not memoised.
    """

    metrics = "verify"

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        passes: Sequence[LintPass] = (),
    ) -> None:
        super().__init__(config, passes)


def verify_program(
    program: Program,
    config: Optional[LintConfig] = None,
    passes: Sequence[LintPass] = (),
    name: Optional[str] = None,
) -> LintReport:
    """Convenience one-shot verification of one program."""
    return Verifier(config=config, passes=passes).run(program, name=name)
