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

This module is the buffer's only definition.  :meth:`EnergyBuffer.stepper`
returns its physics as closures over the buffer's constants
(:class:`BufferSteps`): the voltage after an add, an ESR-priced draw
and a leak, with their NaN and negative checks; the shutdown and
restart thresholds; and the one charge-to-restart routine — a
closed-form wait for an ideal buffer, bounded retry-with-backoff for a
lossy one, and the :class:`ChargeWindowFailure` fail-stops.  The
buffer's own methods call them, and so do the engine loops (both
``IntermittentRun`` loops and ``ProfileRun``'s), so every engine
evaluates the same float expressions.  The one exception is
``ProfileRun``'s closed-form burst loop, which inlines its ideal
transfers (its comment says why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from repro.devices.parameters import DeviceParameters
from repro.harvest.source import trace_position_of

#: Bounded retry-with-backoff for charge windows under a lossy buffer:
#: each retry waits ``backoff``x longer than the closed-form estimate;
#: after ``retries`` attempts without reaching ``v_on`` the charge
#: fail-stops (:class:`ChargeWindowFailure`) instead of hanging.
DEFAULT_CHARGE_RETRIES = 8
DEFAULT_CHARGE_BACKOFF = 1.5


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


class ChargeWindowFailure(RuntimeError):
    """A charge window could not lift the buffer to the restart
    threshold: the harvest trace is exhausted (infinite wait) or
    leakage outran the harvester for the whole retry budget.  The
    explicit fail-stop of the degraded-mode taxonomy — carries where
    (trace position) and how hard (voltage, needed energy, retries) the
    restart failed.  ``voltage`` is what the failed attempts left on
    the buffer."""

    def __init__(
        self,
        message: str,
        *,
        voltage: Optional[float] = None,
        needed: Optional[float] = None,
        retries: int = 0,
        trace_position=None,
    ) -> None:
        super().__init__(message)
        self.voltage = voltage
        self.needed = needed
        self.retries = retries
        self.trace_position = trace_position

    @classmethod
    def unsupplied(cls, needed, voltage, v_on, retries, trace_position):
        """The source can never deliver the ``needed`` joules."""
        return cls(
            f"harvest source can never supply the {needed:.3e} J "
            f"needed to restart (buffer at {voltage:.4f} V, "
            f"restart at {v_on:.4f} V)",
            voltage=voltage,
            needed=needed,
            retries=retries,
            trace_position=trace_position,
        )

    @classmethod
    def exhausted(cls, needed, voltage, v_on, retries, trace_position):
        """``retries`` attempts all fell short of the threshold."""
        return cls(
            f"charge window failed to reach the restart threshold "
            f"after {retries} attempts (buffer at "
            f"{voltage:.4f} V of {v_on:.4f} V; leakage "
            "outruns the harvester)",
            voltage=voltage,
            needed=needed,
            retries=retries,
            trace_position=trace_position,
        )


class BufferSteps(NamedTuple):
    """A buffer's physics as closures over its constants (see
    :meth:`EnergyBuffer.stepper`).  The transfers take the present
    voltage and return the new one, so a loop can keep the voltage in
    a local."""

    #: ``add(v, joules)``: after harvesting ``joules``.
    add: Callable[[float, float], float]
    #: ``draw(v, joules, duration=0.0)``: after drawing ``joules``,
    #: clamped at zero; a positive ``duration`` adds the ESR loss.
    draw: Callable[..., float]
    #: ``leak(v, duration)``: after self-discharge over ``duration``.
    leak: Callable[[float, float], float]
    #: ``charge(v, t, source, energy, time_to_harvest, on_wait, retries,
    #: backoff) -> (v, t, waited, attempts)``: the charge-to-restart
    #: routine (see :meth:`EnergyBuffer.charge`).
    charge: Callable[..., tuple]
    #: ``must_shut_down`` is ``v <= off_at``.
    off_at: float
    #: ``ready_to_start`` is ``v >= on_at``.
    on_at: float


@lru_cache(maxsize=256)
def _steps(
    capacitance: float,
    v_off: float,
    v_on: float,
    leakage_amps: float,
    esr_ohms: float,
) -> BufferSteps:
    cap = capacitance
    hc = 0.5 * cap  # stored energy is hc * v * v
    e_on = hc * v_on * v_on
    on_at = v_on - 1e-15
    lossy = bool(leakage_amps or esr_ohms)

    def add(v: float, energy: float) -> float:
        if not energy >= 0.0:
            _check_energy(energy, "add")
        return (2.0 * (hc * v * v + energy) / cap) ** 0.5

    def draw(v: float, energy: float, duration: float = 0.0) -> float:
        if not energy >= 0.0:
            _check_energy(energy, "draw")
        if esr_ohms and duration > 0.0 and v > 0.0 and energy > 0.0:
            current = energy / (v * duration)
            energy = energy + current * current * esr_ohms * duration
        total = hc * v * v - energy
        return (2.0 * total / cap) ** 0.5 if total > 0.0 else 0.0

    def leak(v: float, duration: float) -> float:
        if not leakage_amps or duration <= 0.0 or v <= 0.0:
            return v
        lost = v * leakage_amps * duration
        stored = hc * v * v
        if lost > stored:
            lost = stored
        return (2.0 * (stored - lost) / cap) ** 0.5

    def charge(v, t, source, energy, time_to_harvest, on_wait, retries, backoff):
        waited = 0.0
        attempts = 0
        # An ideal buffer takes exactly one closed-form wait; a lossy
        # one retries until the restart threshold holds.
        while (not v >= on_at) if lossy else not attempts:
            needed = e_on - hc * v * v
            if not needed > 0.0:
                needed = 0.0
            wait = time_to_harvest(needed, t)
            if not math.isfinite(wait):
                raise ChargeWindowFailure.unsupplied(
                    needed, v, v_on, attempts, trace_position_of(source, t)
                )
            if lossy and attempts >= retries:
                raise ChargeWindowFailure.exhausted(
                    needed, v, v_on, attempts, trace_position_of(source, t)
                )
            if attempts:
                wait = wait * (backoff ** attempts)
            v = leak(add(v, energy(t, wait)), wait)
            t += wait
            waited += wait
            on_wait(wait)
            attempts += 1
        return v, t, waited, attempts

    return BufferSteps(add, draw, leak, charge, v_off + 1e-15, on_at)


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
        return self.voltage <= self.stepper().off_at

    @property
    def ready_to_start(self) -> bool:
        return self.voltage >= self.stepper().on_at

    @property
    def is_ideal(self) -> bool:
        """No leakage, no ESR: the paper's buffer model.  An ideal
        buffer charges in one closed-form wait, a lossy one with
        bounded retries (:meth:`charge`).  Every engine prices the
        losses through :meth:`stepper`."""
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

    def stepper(self) -> BufferSteps:
        """This buffer's physics as closures over its constants: the
        add, draw and leak voltage updates, the thresholds and the
        charge routine (:class:`BufferSteps`).  The methods below call
        them; so does any loop that keeps the voltage in a local.  The
        closures are pure, and buffers with equal constants share
        them."""
        return _steps(
            self.capacitance, self.v_off, self.v_on,
            self.leakage_amps, self.esr_ohms,
        )

    def add_energy(self, energy: float) -> None:
        self.voltage = self.stepper().add(self.voltage, energy)

    def draw_energy(self, energy: float, duration: float = 0.0) -> None:
        """Consume energy; clamps at zero (brown-out).

        With ``esr_ohms`` set and a positive ``duration``, the draw
        additionally dissipates the series-resistance loss
        ``(E / (V * dt))^2 * esr * dt``; the default ``duration=0``
        (or an ideal buffer) skips the loss entirely, leaving the
        original arithmetic untouched.
        """
        self.voltage = self.stepper().draw(self.voltage, energy, duration)

    def leak(self, duration: float) -> float:
        """Self-discharge over ``duration`` seconds (explicit Euler at
        the current voltage).  Returns the joules lost; an ideal
        buffer's voltage is left untouched and 0.0 returned."""
        stored = self.energy
        self.voltage = self.stepper().leak(self.voltage, duration)
        return stored - self.energy

    def charge(
        self,
        source,
        time: float,
        on_wait: Callable[[float], None],
        retries: int = DEFAULT_CHARGE_RETRIES,
        backoff: float = DEFAULT_CHARGE_BACKOFF,
    ) -> tuple[float, float, int]:
        """Charge from ``source``, starting at ``time``, to ``v_on``.

        Each attempt waits the closed-form ``time_to_harvest`` of the
        missing energy, harvests over the wait, leaks, and calls
        ``on_wait(wait)`` so the caller can account the latency.  An
        ideal buffer makes exactly one attempt.  Leakage makes the
        estimate fall short, so a lossy buffer retries, stretching the
        wait by ``backoff``x per attempt.  Returns
        ``(new_time, waited, attempts)``.  Raises
        :class:`ChargeWindowFailure` when the source can never supply
        the energy or ``retries`` attempts fell short; the failed
        attempts stay on the buffer.
        """
        try:
            self.voltage, time, waited, attempts = self.stepper().charge(
                self.voltage, time, source, source.energy,
                source.time_to_harvest, on_wait, retries, backoff,
            )
        except ChargeWindowFailure as failure:
            self.voltage = failure.voltage
            raise
        return time, waited, attempts

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
