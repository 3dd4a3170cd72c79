"""The energy-harvesting environment (paper Sections IV-C, VIII).

An energy harvester (modelled as a constant power source, the paper's
representative operating point) charges a capacitor; MOUSE runs while
the capacitor voltage is inside its window and shuts down — possibly
mid-instruction, always "unexpectedly" — when it sags to the lower
bound, then waits for recharge.  A switched-capacitor converter with
ratios {0.75, 1, 1.5, 1.75} supplies the per-gate voltages.

Two execution engines share the metric ledger:

* :class:`~repro.harvest.intermittent.IntermittentRun` drives the real
  functional machine (tiles + controller) cycle by cycle — used for
  correctness experiments and small programs.
* :class:`~repro.harvest.intermittent.ProfileRun` drives an aggregate
  instruction profile burst by burst — used for the paper-scale
  benchmark sweeps (Figures 9-12).
"""

from repro.harvest.budget import BudgetPlan, PowerBudgetPlanner
from repro.harvest.source import ConstantPowerSource, PowerSource, SolarProfileSource
from repro.harvest.capacitor import (
    ChargeWindowFailure,
    EnergyBuffer,
    EnergyDomainError,
    buffer_for,
)
from repro.harvest.converter import SwitchedCapacitorConverter, CONVERSION_RATIOS
from repro.harvest.intermittent import (
    DEGRADED_MODES,
    HarvestingConfig,
    IntermittentRun,
    InstructionProfile,
    NonTerminationError,
    ProfileRun,
    Segment,
)

__all__ = [
    "BudgetPlan",
    "PowerBudgetPlanner",
    "PowerSource",
    "ConstantPowerSource",
    "SolarProfileSource",
    "EnergyBuffer",
    "EnergyDomainError",
    "buffer_for",
    "SwitchedCapacitorConverter",
    "CONVERSION_RATIOS",
    "DEGRADED_MODES",
    "ChargeWindowFailure",
    "HarvestingConfig",
    "IntermittentRun",
    "NonTerminationError",
    "ProfileRun",
    "InstructionProfile",
    "Segment",
]
