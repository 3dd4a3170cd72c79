"""The on-chip energy buffer (capacitor).

MOUSE executes while the capacitor voltage sits inside a window —
[320 mV, 340 mV] for Modern MTJs, [100 mV, 120 mV] for Projected —
shutting down at the lower bound and restarting at the upper
(Section VIII).  The buffer decouples instantaneous power draw from
the harvester: energy accumulates slowly, then is consumed in bursts.

The band between those bounds is the **brownout band**: a machine
already running may keep executing inside it (hysteresis), but a
machine that shut down cannot restart until the voltage recovers to
``v_on``.  :attr:`EnergyBuffer.state` names the three regimes
(``dead`` / ``brownout`` / ``ready``).

Two datasheet-grounded non-idealities are modelled, both **off by
default and bit-silent at their defaults** (every arithmetic path is
gated on the knob being non-zero, so ideal-buffer runs reproduce the
pre-existing float sequences exactly):

* ``leakage_amps`` — a constant self-discharge current; over an
  interval ``dt`` the buffer loses ``voltage * leakage_amps * dt``
  joules (explicit-Euler at the interval's starting voltage).  A leaky
  buffer can *fail to reach* ``v_on`` under a weak harvester — the
  engines turn that into a bounded retry-with-backoff and an explicit
  fail-stop instead of a silent hang.
* ``esr_ohms`` — equivalent series resistance; a draw of ``E`` joules
  over ``dt`` seconds at voltage ``V`` implies a mean current
  ``I = E / (V * dt)`` and dissipates ``I^2 * esr * dt`` extra joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.parameters import DeviceParameters


class EnergyDomainError(ValueError):
    """An energy transfer left the physical domain: negative or NaN
    joules, or a buffer configuration whose restart threshold is
    unreachable (the silent-non-termination class)."""


def _check_energy(energy: float, verb: str) -> None:
    # NaN fails every comparison, so a plain `energy < 0` guard lets it
    # straight through into the voltage update — after which
    # `must_shut_down` and `ready_to_start` are both permanently False
    # and the run loop never terminates.  Reject it explicitly.
    if math.isnan(energy):
        raise EnergyDomainError(f"cannot {verb} NaN energy")
    if energy < 0:
        raise EnergyDomainError(f"cannot {verb} negative energy")


@dataclass
class EnergyBuffer:
    """A capacitor with an operating-voltage window.

    Parameters
    ----------
    capacitance:
        Farads (paper: 100 uF for Modern MTJs, 10 uF for Projected).
    v_off:
        Shutdown threshold; execution stops when voltage reaches it.
    v_on:
        Restart threshold; execution resumes when voltage recovers.
    voltage:
        Present voltage; benchmarks start below ``v_off`` so every run
        pays an initial charging period (Section VIII).
    leakage_amps:
        Constant self-discharge current (A); 0 = ideal (default).
    esr_ohms:
        Equivalent series resistance (ohm); 0 = ideal (default).
    """

    capacitance: float
    v_off: float
    v_on: float
    voltage: float = 0.0
    leakage_amps: float = 0.0
    esr_ohms: float = 0.0

    def __post_init__(self) -> None:
        for name in ("capacitance", "v_off", "v_on", "voltage",
                     "leakage_amps", "esr_ohms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise EnergyDomainError(f"{name} must be finite")
        if self.capacitance <= 0:
            raise ValueError("capacitance must be positive")
        if not 0 <= self.v_off < self.v_on:
            raise ValueError("need 0 <= v_off < v_on")
        if self.voltage < 0:
            raise ValueError("voltage cannot be negative")
        if self.leakage_amps < 0:
            raise ValueError("leakage current cannot be negative")
        if self.esr_ohms < 0:
            raise ValueError("ESR cannot be negative")

    # -- energy bookkeeping ---------------------------------------------

    @staticmethod
    def _energy_at(capacitance: float, voltage: float) -> float:
        return 0.5 * capacitance * voltage * voltage

    @property
    def energy(self) -> float:
        """Stored energy, joules."""
        return self._energy_at(self.capacitance, self.voltage)

    @property
    def window_energy(self) -> float:
        """Usable energy between the on and off thresholds."""
        return self._energy_at(self.capacitance, self.v_on) - self._energy_at(
            self.capacitance, self.v_off
        )

    @property
    def headroom(self) -> float:
        """Energy available before shutdown triggers."""
        return max(0.0, self.energy - self._energy_at(self.capacitance, self.v_off))

    @property
    def must_shut_down(self) -> bool:
        """Voltage sensor says the window's lower bound was reached."""
        return self.voltage <= self.v_off + 1e-15

    @property
    def ready_to_start(self) -> bool:
        return self.voltage >= self.v_on - 1e-15

    @property
    def is_ideal(self) -> bool:
        """No leakage, no ESR: the paper's buffer model.  The fused
        ``IntermittentRun`` loop only takes ideal buffers (a non-ideal
        buffer runs the scalar loop, which prices the losses);
        ``ProfileRun`` prices them in its one loop."""
        return self.leakage_amps == 0.0 and self.esr_ohms == 0.0

    @property
    def in_brownout_band(self) -> bool:
        """Between the shutdown and restart bounds: a running machine
        keeps running here, a stopped one cannot restart."""
        return not self.must_shut_down and not self.ready_to_start

    @property
    def state(self) -> str:
        """``dead`` (at/below ``v_off``), ``brownout`` (inside the
        hysteresis band) or ``ready`` (at/above ``v_on``)."""
        if self.must_shut_down:
            return "dead"
        if self.ready_to_start:
            return "ready"
        return "brownout"

    # -- state changes ----------------------------------------------------

    def add_energy(self, energy: float) -> None:
        _check_energy(energy, "add")
        total = self.energy + energy
        self.voltage = (2.0 * total / self.capacitance) ** 0.5

    def draw_energy(self, energy: float, duration: float = 0.0) -> None:
        """Consume energy; clamps at zero (brown-out).

        With ``esr_ohms`` set and a positive ``duration``, the draw
        additionally dissipates the series-resistance loss
        ``(E / (V * dt))^2 * esr * dt``; the default ``duration=0``
        (or an ideal buffer) skips the loss entirely, leaving the
        original arithmetic untouched.
        """
        _check_energy(energy, "draw")
        if self.esr_ohms and duration > 0.0 and self.voltage > 0.0 and energy > 0.0:
            current = energy / (self.voltage * duration)
            energy = energy + current * current * self.esr_ohms * duration
        total = max(0.0, self.energy - energy)
        self.voltage = (2.0 * total / self.capacitance) ** 0.5

    def leak(self, duration: float) -> float:
        """Self-discharge over ``duration`` seconds (explicit Euler at
        the current voltage).  Returns the joules lost; a no-op (and
        exactly zero arithmetic) for an ideal buffer."""
        if not self.leakage_amps or duration <= 0.0 or self.voltage <= 0.0:
            return 0.0
        lost = self.voltage * self.leakage_amps * duration
        stored = self.energy
        if lost > stored:
            lost = stored
        total = stored - lost
        self.voltage = (2.0 * total / self.capacitance) ** 0.5
        return lost

    def leak_power(self) -> float:
        """Instantaneous self-discharge power (W) at the present
        voltage — what a harvester must out-supply for the voltage to
        rise."""
        return self.voltage * self.leakage_amps

    def energy_to_reach(self, voltage: float) -> float:
        """Joules needed to lift the buffer to ``voltage``."""
        return max(
            0.0, self._energy_at(self.capacitance, voltage) - self.energy
        )


def buffer_for(
    params: DeviceParameters,
    *,
    leakage_amps: float = 0.0,
    esr_ohms: float = 0.0,
) -> EnergyBuffer:
    """The paper's buffer configuration for a technology point:
    100 uF / 320-340 mV for Modern MTJs, 10 uF / 100-120 mV for
    Projected (both STT and SHE); optionally with non-idealities.

    The device's switching current decides the class.  A NaN or
    non-positive switching current would silently select a window the
    device can never exercise — ``ready_to_start`` fires but every
    instruction outdraws the window, or the comparison itself is
    vacuous — so it is rejected with a typed error instead of building
    a zero-headroom capacitor.
    """
    current = params.switching_current
    if not math.isfinite(current) or current <= 0:
        raise EnergyDomainError(
            f"device {params.name!r} has unusable switching current "
            f"{current!r}; cannot size an energy buffer for it"
        )
    if current >= 10e-6:  # modern-class devices
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.320, v_on=0.340,
            leakage_amps=leakage_amps, esr_ohms=esr_ohms,
        )
    else:
        buffer = EnergyBuffer(
            capacitance=10e-6, v_off=0.100, v_on=0.120,
            leakage_amps=leakage_amps, esr_ohms=esr_ohms,
        )
    if buffer.window_energy <= 0.0:
        raise EnergyDomainError(
            "buffer window holds no usable energy; ready_to_start would "
            "never lead to forward progress"
        )
    return buffer
