"""Device-to-device variation and gate-level Monte Carlo robustness.

The paper argues (Section II-D) that SHE cells make "different input
values easier to distinguish, increasing the robustness of logic
operations" and Table II's projected devices carry a much larger TMR.
This module quantifies both: each MTJ's resistances and critical
current are perturbed (log-normal resistance spread, normal critical-
current spread, the standard first-order MRAM variation model), the
designed nominal gate voltage is applied, and a Monte-Carlo trial
fails when the threshold decision differs from the ideal truth table.

Used by the robustness experiment and tests; vectorised with NumPy so
millions of trials are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.devices.cell import input_resistance, output_resistance
from repro.devices.parameters import CellKind, DeviceParameters
from repro.logic.gates import GateSpec, design_voltage


@dataclass(frozen=True)
class VariationModel:
    """Relative (1-sigma) spreads of the device parameters.

    ``resistance_sigma`` applies log-normally to each MTJ's resistance
    (both states, independently per device); ``current_sigma`` applies
    normally to each output device's critical switching current.
    """

    resistance_sigma: float = 0.05
    current_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.resistance_sigma < 0 or self.current_sigma < 0:
            raise ValueError("sigmas cannot be negative")


@dataclass(frozen=True)
class GateErrorRate:
    """Monte-Carlo result for one gate at one technology point."""

    technology: str
    gate: str
    trials: int
    failures: int

    @property
    def error_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


def _sample_input_resistance(
    params: DeviceParameters,
    states: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-device input-path resistance with log-normal MTJ spread."""
    nominal_mtj = np.where(states, params.r_ap, params.r_p)
    spread = rng.lognormal(mean=0.0, sigma=max(sigma, 1e-12), size=states.shape)
    mtj = nominal_mtj * spread
    extra = params.access_resistance
    if params.cell_kind is CellKind.SHE:
        extra += params.she_resistance
    return mtj + extra


def gate_error_rate(
    params: DeviceParameters,
    spec: GateSpec,
    variation: VariationModel,
    trials: int = 100_000,
    seed: int = 0,
) -> GateErrorRate:
    """Monte-Carlo failure rate of a gate under device variation.

    Each trial draws a uniformly random input combination, perturbed
    input resistances, a perturbed output path, and a perturbed output
    critical current, then checks the electrical switch/hold decision
    against the ideal truth table.
    """
    if trials < 1:
        raise ValueError("need at least one Monte-Carlo trial")
    rng = np.random.default_rng(seed)
    voltage = design_voltage(params, spec)
    n = spec.n_inputs

    states = rng.integers(0, 2, size=(trials, n)).astype(bool)
    r_inputs = _sample_input_resistance(
        params, states, variation.resistance_sigma, rng
    )
    r_network = 1.0 / (1.0 / r_inputs).sum(axis=1)

    # Output path: state-dependent for STT (preset state), channel-only
    # for SHE; resistance spread applies to the MTJ part only.
    if params.cell_kind is CellKind.SHE:
        r_out = np.full(trials, output_resistance(params, spec.preset))
    else:
        mtj = params.resistance(spec.preset) * rng.lognormal(
            0.0, max(variation.resistance_sigma, 1e-12), size=trials
        )
        r_out = mtj + params.access_resistance

    current = voltage / (r_network + r_out)
    critical = params.switching_current * (
        1.0 + variation.current_sigma * rng.standard_normal(trials)
    )
    switched = current >= np.maximum(critical, 1e-12)
    should_switch = states.sum(axis=1) <= spec.ones_threshold
    failures = int((switched != should_switch).sum())
    return GateErrorRate(
        technology=params.name,
        gate=spec.name,
        trials=trials,
        failures=failures,
    )


@lru_cache(maxsize=None)
def gate_failure_rate(
    params: DeviceParameters,
    gate: str,
    sigma: float = 0.05,
    trials: int = 20_000,
    seed: int = 0,
) -> float:
    """Scalar flip probability of one gate at one variation point.

    The memoised query API the hardening placement uses: the same
    seeded Monte Carlo as :func:`gate_error_rate` (equal resistance and
    critical-current sigma), collapsed to its error-rate scalar and
    cached per ``(technology, gate, sigma, trials, seed)`` so ranking a
    thousand-gate program costs one simulation per distinct gate.

    Determinism is load-bearing: the value depends only on the
    arguments (``default_rng(seed)`` drives every draw), so two
    processes — or the parent and a forked ``--jobs`` worker — place
    protection identically.
    """
    from repro.logic.library import gate_by_name

    spec = gate_by_name(gate)
    variation = VariationModel(sigma, sigma)
    return gate_error_rate(
        params, spec, variation, trials=trials, seed=seed
    ).error_rate


def critical_sigma(
    params: DeviceParameters,
    spec: GateSpec,
    target_error: float = 1e-3,
    trials: int = 50_000,
    seed: int = 1,
) -> float:
    """Largest equal resistance/current sigma keeping the gate's error
    rate under ``target_error`` (bisection over sigma)."""
    lo, hi = 0.0, 0.5
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        rate = gate_error_rate(
            params, spec, VariationModel(mid, mid), trials=trials, seed=seed
        ).error_rate
        if rate <= target_error:
            lo = mid
        else:
            hi = mid
    return lo
