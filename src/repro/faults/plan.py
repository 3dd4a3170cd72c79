"""Fault plans: *what* to inject, at *which* rates, derived from *where*.

A :class:`FaultPlan` is the complete, serialisable description of a
fault-injection campaign's stochastic environment.  Its centrepiece is
the per-gate output-flip probability table, which is **derived from the
electrical error model** (:func:`repro.devices.variation.gate_error_rate`)
rather than picked by hand: the same Monte Carlo that produces the
robustness experiment's Table-II-style numbers fixes how often each
gate's output is flipped during bit-exact functional simulation.  That
closes the loop between the offline device study and the architectural
resilience question — *given these devices, does the machine still
compute the right answer?*

Plans are plain data (dataclass + dict round-trip) so a campaign report
can embed the exact plan it ran under and two runs from the same plan
and seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any, Mapping

from repro.devices.parameters import DeviceParameters
from repro.devices.variation import gate_failure_rate
from repro.logic.library import GATE_LIBRARY

#: Injection sites named by ``fault.*`` telemetry events and report keys.
SITES = ("gate", "array", "nv", "outage", "sensor")


def derive_gate_flip_rates(
    params: DeviceParameters,
    sigma: float = 0.05,
    trials: int = 20_000,
    seed: int = 0,
    scale: float = 1.0,
    floor: float = 0.0,
) -> dict[str, float]:
    """Per-gate output-flip probabilities from the device Monte Carlo.

    For every gate in the library, runs the variation model at
    ``sigma`` (both resistance and critical-current spread) and takes
    the resulting electrical error rate as the probability that one
    column's output bit is flipped when that gate executes.  ``scale``
    stress-tests beyond the nominal point; ``floor`` guarantees a
    minimum rate (useful for technologies whose Monte Carlo rounds to
    zero at the chosen trial count).
    """
    if scale < 0 or floor < 0:
        raise ValueError("scale and floor cannot be negative")
    rates: dict[str, float] = {}
    for name in sorted(GATE_LIBRARY):
        rate = gate_failure_rate(
            params, name, sigma=sigma, trials=trials, seed=seed
        )
        rates[name] = min(1.0, max(floor, rate * scale))
    return rates


@dataclass(frozen=True)
class SensorFaultPlan:
    """Sensor-buffer corruption for :class:`repro.system.SensorDrivenPipeline`.

    With probability ``rate`` per sample, power dies mid-refill right
    after the first transfer instruction: a ``bit_flip_fraction`` of the
    buffer's bits are scrambled and the valid bit drops, forcing the
    Section IV-E rewind-and-retransfer path.
    """

    rate: float = 0.0
    bit_flip_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be a probability")
        if not 0.0 <= self.bit_flip_fraction <= 1.0:
            raise ValueError("bit_flip_fraction must be in [0, 1]")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "bit_flip_fraction": self.bit_flip_fraction,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FaultPlan:
    """Everything a :class:`repro.faults.FaultCampaign` injects.

    Attributes
    ----------
    gate_flip_rates:
        Per-gate probability that one active column's output bit flips
        when that gate executes (empty mapping = no gate faults).
    array_flip_rate:
        Probability, per committed instruction, of one transient bit
        flip at a uniformly random (tile, row, column).  Array flips
        land *outside* any gate's verify window, so they model the
        disturbs that only redundancy (TMR, ECC) can catch.
    nv_corruption_rate:
        Probability, per committed instruction, that the *invalid* copy
        of one dual non-volatile register (PC / Activate Columns /
        sensor PC) is overwritten with garbage and power is cycled —
        the Figure-7 protocol must mask it.
    outage_rate:
        Probability, per microstep, of an adversarial power cut at that
        exact microstep boundary (the scheduler in
        :mod:`repro.faults.outages` covers the exhaustive sweep).
    verify_retry:
        Enable the detect-and-recover layer: after every logic
        instruction the output column is re-read and checked against
        the threshold truth table; on mismatch the preset + gate pair
        is re-issued (energy charged as Dead), up to ``retry_budget``
        times before the trial aborts.
    verify_marked:
        The *selective* variant used by hardened programs: even with
        ``verify_retry`` off, instructions whose pc the program's
        hardening metadata lists in ``verify_pcs``
        (:attr:`repro.core.program.Program.verify_pcs`) still get the
        re-read-and-retry treatment.  This is how a
        :func:`repro.harden.harden_program` pass buys detection for
        mid-tier bits without paying the verify read on every gate.
    retry_budget:
        Bounded number of re-issues per logic instruction.
    meta:
        Derivation provenance (technology, sigma, Monte-Carlo seed...)
        embedded verbatim in campaign reports.
    """

    gate_flip_rates: Mapping[str, float] = field(default_factory=dict)
    array_flip_rate: float = 0.0
    nv_corruption_rate: float = 0.0
    outage_rate: float = 0.0
    verify_retry: bool = True
    verify_marked: bool = True
    retry_budget: int = 8
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, rate in self.gate_flip_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"gate {name!r} flip rate must be in [0, 1]")
        for label, rate in (
            ("array_flip_rate", self.array_flip_rate),
            ("nv_corruption_rate", self.nv_corruption_rate),
            ("outage_rate", self.outage_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be a probability")
        if self.retry_budget < 0:
            raise ValueError("retry_budget cannot be negative")

    @classmethod
    def from_variation(
        cls,
        params: DeviceParameters,
        sigma: float = 0.05,
        trials: int = 20_000,
        seed: int = 0,
        scale: float = 1.0,
        floor: float = 0.0,
        **kwargs: Any,
    ) -> "FaultPlan":
        """A plan whose gate-flip table comes from the variation model."""
        rates = derive_gate_flip_rates(
            params, sigma=sigma, trials=trials, seed=seed, scale=scale, floor=floor
        )
        meta = {
            "derived_from": "devices.variation.gate_error_rate",
            "technology": params.name,
            "sigma": sigma,
            "mc_trials": trials,
            "mc_seed": seed,
            "scale": scale,
            "floor": floor,
        }
        return cls(gate_flip_rates=rates, meta=meta, **kwargs)

    def rate_for(self, gate: str) -> float:
        return float(self.gate_flip_rates.get(gate, 0.0))

    @property
    def any_injection(self) -> bool:
        return (
            any(r > 0 for r in self.gate_flip_rates.values())
            or self.array_flip_rate > 0
            or self.nv_corruption_rate > 0
            or self.outage_rate > 0
        )

    def to_json_obj(self) -> dict[str, Any]:
        """A JSON-stable dict (sorted gate table, plain scalars)."""
        return {
            "gate_flip_rates": {
                k: self.gate_flip_rates[k] for k in sorted(self.gate_flip_rates)
            },
            "array_flip_rate": self.array_flip_rate,
            "nv_corruption_rate": self.nv_corruption_rate,
            "outage_rate": self.outage_rate,
            "verify_retry": self.verify_retry,
            "verify_marked": self.verify_marked,
            "retry_budget": self.retry_budget,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "FaultPlan":
        """The plan :meth:`to_json_obj` wrote; ``ValueError`` naming the
        field for anything else (a missing field takes its default)."""
        if not isinstance(obj, Mapping):
            raise ValueError("fault plan must be a JSON object")

        def typed(key: str, default: Any, kind: type, what: str) -> Any:
            value = obj.get(key, default)
            # bool is an int subtype: accepted only where asked for.
            if not isinstance(value, kind) or (
                isinstance(value, bool) and kind is not bool
            ):
                raise ValueError(
                    f"fault plan {key!r} must be {what}, not {value!r}"
                )
            return value

        rates = typed("gate_flip_rates", {}, Mapping, "a mapping")
        for name, rate in rates.items():
            if isinstance(rate, bool) or not isinstance(rate, Real):
                raise ValueError(
                    f"fault plan rate for gate {name!r} must be a number, "
                    f"not {rate!r}"
                )
        return cls(
            gate_flip_rates=dict(rates),
            array_flip_rate=float(
                typed("array_flip_rate", 0.0, Real, "a number")
            ),
            nv_corruption_rate=float(
                typed("nv_corruption_rate", 0.0, Real, "a number")
            ),
            outage_rate=float(typed("outage_rate", 0.0, Real, "a number")),
            verify_retry=typed("verify_retry", True, bool, "a boolean"),
            verify_marked=typed("verify_marked", True, bool, "a boolean"),
            retry_budget=int(typed("retry_budget", 8, Integral, "an integer")),
            meta=dict(typed("meta", {}, Mapping, "a mapping")),
        )
