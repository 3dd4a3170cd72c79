"""Ahead-of-time compiled execution plans for CRAM programs.

``repro.compilejit`` compiles a linted :class:`~repro.core.program.
Program` into a fused NumPy plan — per-instruction kernel tables,
precomputed column-index gathers, and closed-form energy terms — and
executes whole commit windows without per-instruction Python dispatch.

The scalar :class:`~repro.core.controller.MemoryController` microstep
machine is kept verbatim as the referee: every compiled path reproduces
its :class:`~repro.energy.metrics.Breakdown` (and, where supported, its
:class:`~repro.obs.prof.EnergyProfiler` attribution) **bit for bit**,
enforced by the translation-validation and byte-identity tests.
Anything a plan cannot model exactly — sensors, fault hooks, telemetry
sinks, checkpoints, lint-rejected programs — silently falls back to the
interpreter.

Execution tiers (see docs/PERFORMANCE.md):

1. scalar microstep interpreter (referee, always correct),
2. cached kernels + the scalar lock-step batch loop,
3. compiled plans (this package).  One :class:`CompiledPlan` per
   (program, technology, bank geometry), cached on the Program, drives
   continuous ``Mouse`` runs, the fused intermittent window loop and
   lock-step ``BatchedMouse`` batches; every executor applies its ops
   through :func:`repro.compilejit.exec.apply_op` on ``(rows, cols)``
   or ``(batch, rows, cols)`` tile states.  ``compilejit.profile``
   replays harvest profiles.
"""

from __future__ import annotations

from repro.compilejit.plan import (
    CompiledPlan,
    PlanUnsupported,
    compile_program,
    plan_for,
)

#: Module-wide switch: set False to force every engine back onto the
#: scalar interpreter (also reachable via ``repro ... --no-compiled``).
ENABLED = True

#: Counters for run manifests: how often the compiled path ran vs fell
#: back to the interpreter (process-wide, monotonically increasing).
STATS = {"compiled_runs": 0, "fallback_runs": 0, "plans_compiled": 0}


def set_enabled(value: bool) -> None:
    global ENABLED
    ENABLED = bool(value)


def enabled() -> bool:
    return ENABLED


def stats_snapshot() -> dict[str, int]:
    return dict(STATS)


__all__ = [
    "CompiledPlan",
    "PlanUnsupported",
    "compile_program",
    "plan_for",
    "ENABLED",
    "STATS",
    "set_enabled",
    "enabled",
    "stats_snapshot",
]
