"""Harvested power sources.

The paper sweeps a *constant* power source from 60 uW (a 1 cm^2
thermal harvester on body heat) to 5 mW (SONIC's RF harvester),
noting the model "captures a representative operation" even though
real harvesters fluctuate.  `ConstantPowerSource` is that model;
`SolarProfileSource` adds the fluctuating case as an extension for
robustness experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol


class PowerSource(Protocol):
    """Anything that can report instantaneous harvested power."""

    def power(self, time: float) -> float:
        """Harvested power (W) at absolute time ``time`` (s)."""
        ...

    def energy(self, start: float, duration: float) -> float:
        """Energy harvested over [start, start+duration]."""
        ...


def trace_position_of(source, time: float):
    """The source's trace position at ``time`` (None for sources
    without one) — threaded into stall and fail-stop diagnoses."""
    position = getattr(source, "position", None)
    if callable(position):
        return position(time)
    return None


def is_constant(source) -> bool:
    """Whether ``source`` harvests at one constant level, its ``watts``:
    a :class:`ConstantPowerSource`, or a :class:`repro.env.TraceSource`
    of a constant trace, whose ``energy`` is then ``watts * duration``
    whenever it starts."""
    if type(source) is ConstantPowerSource:
        return True
    from repro.env.trace import TraceSource

    return type(source) is TraceSource and source.constant_watts is not None


@dataclass(frozen=True)
class ConstantPowerSource:
    """The paper's harvester model: a constant power level."""

    watts: float

    def __post_init__(self) -> None:
        if self.watts <= 0:
            raise ValueError("power must be positive")

    def power(self, time: float) -> float:
        return self.watts

    def energy(self, start: float, duration: float) -> float:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        return self.watts * duration

    def time_to_harvest(self, energy: float, start: float = 0.0) -> float:
        """Seconds needed to harvest ``energy`` joules."""
        if energy <= 0:
            return 0.0
        return energy / self.watts


@dataclass(frozen=True)
class SolarProfileSource:
    """A fluctuating harvester: mean power modulated sinusoidally.

    power(t) = mean * (1 + depth * sin(2 pi t / period)), clipped at 0.
    Used by robustness tests to show the intermittent protocol does not
    depend on the constant-power assumption.
    """

    mean_watts: float
    depth: float = 0.5
    period: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_watts <= 0:
            raise ValueError("mean power must be positive")
        if not 0 <= self.depth <= 1:
            raise ValueError("modulation depth must be in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def power(self, time: float) -> float:
        value = self.mean_watts * (
            1.0 + self.depth * math.sin(2.0 * math.pi * time / self.period)
        )
        return max(0.0, value)

    def energy(self, start: float, duration: float) -> float:
        """Closed-form integral of the sinusoid over the interval."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        omega = 2.0 * math.pi / self.period
        base = self.mean_watts * duration
        ripple = (
            self.mean_watts
            * self.depth
            / omega
            * (math.cos(omega * start) - math.cos(omega * (start + duration)))
        )
        return max(0.0, base + ripple)

    def time_to_harvest(self, energy: float, start: float = 0.0) -> float:
        """Invert the energy integral numerically (bisection)."""
        if energy <= 0:
            return 0.0
        lo, hi = 0.0, energy / self.mean_watts * 4.0 + self.period
        while self.energy(start, hi) < energy:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.energy(start, mid) < energy:
                lo = mid
            else:
                hi = mid
        return hi
