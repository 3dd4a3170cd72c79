"""Replay workloads under harvest traces and score degradation.

The unit of account is the *inference*: one full pass of a workload's
instruction profile.  :func:`replay` runs back-to-back inferences under
a trace-driven source — the capacitor and the trace clock carry over
from one inference to the next, so the power process is shared state,
not reset per run — until a time budget, an inference cap, or a
fail-stop ends the replay.  :func:`compare` scores the adaptive
checkpoint policy against the fixed-cadence baseline on the *same*
trace and budget (equal harvested energy by construction) and reports
the degraded-mode tallies per policy; the acceptance property is
``adaptive.inferences >= fixed.inferences``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.devices.parameters import DeviceParameters
from repro.energy.model import InstructionCostModel
from repro.env.adaptive import AdaptivePolicy
from repro.env.trace import HarvestTrace
from repro.harvest.capacitor import ChargeWindowFailure
from repro.harvest.intermittent import HarvestingConfig, ProfileRun, _fresh_degraded


@dataclass(frozen=True)
class ReplayResult:
    """One (workload, technology, trace, policy) replay."""

    trace: str
    family: str
    workload: str
    technology: str
    policy: str
    inferences: int
    instructions: int
    elapsed_s: float
    harvested_j: float
    restarts: int
    degraded: dict
    fail_stopped: bool

    def to_json_obj(self) -> dict:
        return {
            "trace": self.trace,
            "family": self.family,
            "workload": self.workload,
            "technology": self.technology,
            "policy": self.policy,
            "inferences": self.inferences,
            "instructions": self.instructions,
            "elapsed_s": self.elapsed_s,
            "harvested_j": self.harvested_j,
            "restarts": self.restarts,
            "degraded": dict(self.degraded),
            "fail_stopped": self.fail_stopped,
        }


@lru_cache(maxsize=64)
def _memo_profile(workload, params: DeviceParameters):
    cost = InstructionCostModel(params)
    return cost, workload.profile(cost)


def _costed_profile(workload, params: DeviceParameters):
    """``(cost model, instruction profile)`` of ``workload`` on
    ``params``, built once per hashable ``(workload, params)`` pair:
    :func:`compare` replays one workload twice, and an env sweep many
    times.  Replays only read the profile, and it never leaves
    :func:`replay`."""
    try:
        hash((workload, params))
    except TypeError:
        cost = InstructionCostModel(params)
        return cost, workload.profile(cost)
    return _memo_profile(workload, params)


def _default_budget(trace: HarvestTrace) -> Optional[float]:
    # Four spans covers several day/burst cycles; a constant trace has
    # no span, so the inference cap bounds the replay instead.
    return 4.0 * trace.span if trace.span > 0.0 else None


def replay(
    workload,
    params: DeviceParameters,
    trace: HarvestTrace,
    *,
    adaptive: Optional[AdaptivePolicy] = None,
    time_budget: Optional[float] = None,
    max_inferences: int = 64,
    checkpoint_period: int = 1,
    dead_fraction: float = 1.0,
    leakage_amps: float = 0.0,
    esr_ohms: float = 0.0,
) -> ReplayResult:
    """Run back-to-back inferences of ``workload`` under ``trace``.

    An inference counts only when it completes within ``time_budget``
    (default: four trace spans; unbounded for a constant trace, where
    ``max_inferences`` bounds the replay).  A
    :class:`~repro.harvest.capacitor.ChargeWindowFailure` — the
    trace died or leakage outran it — ends the replay as a recorded
    fail-stop, not an exception: that is the graceful-degradation
    contract.
    """
    if max_inferences < 1:
        raise ValueError("max_inferences must be >= 1")
    if time_budget is not None and not time_budget > 0:
        raise ValueError("time_budget must be positive")
    if time_budget is None:
        time_budget = _default_budget(trace)
    cost, profile = _costed_profile(workload, params)
    config = HarvestingConfig.from_trace(
        params, trace, leakage_amps=leakage_amps, esr_ohms=esr_ohms
    )
    degraded = _fresh_degraded()
    inferences = 0
    instructions = 0
    restarts = 0
    time = 0.0
    fail_stopped = False
    while inferences < max_inferences and (
        time_budget is None or time < time_budget
    ):
        run = ProfileRun(
            profile,
            cost,
            config,
            dead_fraction=dead_fraction,
            checkpoint_period=checkpoint_period,
            adaptive=adaptive,
        )
        run.time = time  # continue the shared trace clock
        try:
            breakdown = run.run()
        except ChargeWindowFailure:
            for mode, count in run.degraded.items():
                degraded[mode] += count
            fail_stopped = True
            time = run.time
            break
        for mode, count in run.degraded.items():
            degraded[mode] += count
        time = run.time
        if time_budget is not None and time > time_budget:
            # Overshot the budget mid-inference: doesn't count, and the
            # elapsed clock is clamped so both policies are scored over
            # the identical energy window.
            time = time_budget
            break
        inferences += 1
        instructions += breakdown.instructions
        restarts += breakdown.restarts
    return ReplayResult(
        trace=trace.name,
        family=trace.family,
        workload=workload.name,
        technology=params.name,
        policy="adaptive" if adaptive is not None else "fixed",
        inferences=inferences,
        instructions=instructions,
        elapsed_s=time,
        harvested_j=config.source.energy(0.0, time),
        restarts=restarts,
        degraded=degraded,
        fail_stopped=fail_stopped,
    )


def compare(
    workload,
    params: DeviceParameters,
    trace: HarvestTrace,
    *,
    policy: Optional[AdaptivePolicy] = None,
    time_budget: Optional[float] = None,
    **kwargs,
) -> dict:
    """Fixed-cadence baseline vs adaptive policy on the same trace and
    time budget (equal harvested energy).  Returns both results plus
    the acceptance predicate ``adaptive_at_least_fixed``."""
    if time_budget is None:
        time_budget = _default_budget(trace)
    fixed = replay(
        workload, params, trace, adaptive=None,
        time_budget=time_budget, **kwargs,
    )
    adaptive = replay(
        workload, params, trace, adaptive=policy or AdaptivePolicy(),
        time_budget=time_budget, **kwargs,
    )
    return {
        "fixed": fixed,
        "adaptive": adaptive,
        "adaptive_at_least_fixed": adaptive.inferences >= fixed.inferences,
    }
