"""Ahead-of-time compiled execution plans for CRAM programs.

``repro.compilejit`` compiles a linted :class:`~repro.core.program.
Program` into a fused plan — one packed-row op per instruction, the
logic ops' energy groups, and closed-form energy terms — and
executes whole runs without the interpreter's microstep machine.
Every executor holds each tile row as one Python int, one bit per
(sample, column), so every op is a few bitwise ops whatever the batch
size; a continuous run is a batch of one.  The fused intermittent loop
prices its logic ops with one such pass when it starts and applies the
ops to the live tiles only where something reads them.

The scalar :class:`~repro.core.controller.MemoryController` microstep
machine is kept verbatim as the referee: every compiled path reproduces
its :class:`~repro.energy.metrics.Breakdown` **bit for bit**, enforced
by the translation-validation and byte-identity tests.  Anything a plan
does not model — sensors, lint-rejected programs, and runs observed per
microstep by a fault hook, a telemetry sink or an
:class:`~repro.obs.prof.EnergyProfiler` — falls back to the
interpreter; a host checkpointer rides the fused intermittent loop,
which calls its hooks where the scalar loop does.  A fault campaign that does not mix gate
flips with other faults keeps its trials on the plan: they run as the
samples of one batch, with each trial's faults laid over its bits of
the packed rows after each op (:mod:`repro.faults.campaign`).

Execution tiers (see docs/PERFORMANCE.md):

1. scalar microstep interpreter (referee, always correct),
2. cached kernels + the scalar lock-step batch loop,
3. compiled plans (this package).  One :class:`CompiledPlan` per
   (program, technology, bank geometry), built in one walk of the
   program, cached on the Program and read-only, drives continuous
   ``Mouse`` runs, the fused intermittent window loop and lock-step
   ``BatchedMouse`` batches (fault campaign trials included).  All
   three run its one op table (:attr:`CompiledPlan.ops`): continuous
   runs and batches in one pass
   (:func:`repro.compilejit.exec.run_batched`), the fused loop in one
   pricing pass and the catch-ups its readers ask for
   (:func:`repro.compilejit.exec.run_intermittent_fused`).

Harvest profiles (:class:`~repro.harvest.intermittent.ProfileRun`) are
not CRAM programs: an unobserved run takes their hoisted burst loop and
an observed one its frozen method-call referee,
:func:`repro.perf.baseline.profile_run_reference`.  The switch and the
:data:`STATS` counters cover plan runs only.
"""

from __future__ import annotations

from repro.compilejit.plan import (
    CompiledPlan,
    PlanUnsupported,
    compile_program,
    plan_for,
)

#: Module-wide switch: set False to force every plan executor back onto
#: the scalar interpreter (also reachable via ``repro ... --no-compiled``).
ENABLED = True

#: Counters for run manifests: how often the compiled path ran vs fell
#: back to the interpreter (process-wide, monotonically increasing; a
#: fault campaign's trial set counts as one run).
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
