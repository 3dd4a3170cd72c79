"""The switched-capacitor voltage converter (Sections IV-C, VIII).

A switched-capacitor DC-DC converter with conversion ratios
{0.75, 1, 1.5, 1.75} derives every gate/write voltage from the buffer
voltage.  The paper evaluates on the power *supplied by* the converter
(regulator efficiency excluded from the main numbers) but notes the
converter runs at 35-80 % efficiency, so the harvester must provide
1.25-2.85x the consumed energy — we expose both views.

A portion of each cycle is reserved for retargeting the converter when
consecutive operations need different voltage levels; the conservative
fixed cycle time already covers that latency, and the (small) energy is
an optional knob on :class:`repro.energy.peripheral.PeripheralModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's switched-capacitor ratios {0.75, 1, 1.5, 1.75} plus the
#: classic 2:1 voltage doubler.  Our electrically-designed BUF gate on
#: Modern STT needs 577 mV — above 1.75 x the 320 mV shutdown bound —
#: so one extra (standard) ratio is required; documented in DESIGN.md
#: as the one converter deviation from the paper's list.
CONVERSION_RATIOS = (0.75, 1.0, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class SwitchedCapacitorConverter:
    """Ratio selection and efficiency accounting."""

    efficiency: float = 0.8
    ratios: tuple[float, ...] = CONVERSION_RATIOS

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if not self.ratios:
            raise ValueError("need at least one conversion ratio")

    def best_ratio(self, v_in: float, v_desired: float) -> float:
        """Ratio whose output is closest to (and covering) the desired
        level; the final trim is resistive."""
        if v_in <= 0 or v_desired <= 0:
            raise ValueError("voltages must be positive")
        covering = [r for r in self.ratios if r * v_in >= v_desired]
        if covering:
            return min(covering)
        return max(self.ratios)

    def can_supply(self, v_in: float, v_desired: float) -> bool:
        """Whether some ratio reaches the desired level from ``v_in``."""
        return max(self.ratios) * v_in >= v_desired

    def source_energy_required(self, consumed: float) -> float:
        """Harvester-side energy for ``consumed`` joules at the load."""
        if consumed < 0:
            raise ValueError("consumed energy cannot be negative")
        return consumed / self.efficiency

    def voltage_levels(self, v_in: float) -> tuple[float, ...]:
        """All output levels available from the present buffer voltage."""
        return tuple(r * v_in for r in self.ratios)
