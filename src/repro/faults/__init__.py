"""repro.faults: seeded fault injection + detect/retry/recover.

The resilience counterpart to :mod:`repro.obs`: where the paper *argues*
robustness to arbitrary power loss (idempotent gates, dual-PC
checkpointing, Section IV), this package *measures* it — stochastic
gate-output flips at electrically derived rates, transient array
disturbs, NV-register corruption, adversarial microstep outages, and a
verify-and-retry recovery layer, orchestrated into deterministic seeded
campaigns whose JSON reports are byte-reproducible.

See ``docs/FAULTS.md`` for the taxonomy and the campaign CLI
(``python -m repro faults``).
"""

from repro.faults.campaign import (
    WORKLOADS,
    FaultCampaign,
    Workload,
    adder_workload,
    svm_workload,
)
from repro.faults.injectors import (
    ControllerFaultHook,
    FaultCounters,
    RetryBudgetExhausted,
    TrialInjector,
)
from repro.faults.outages import (
    SweepResult,
    exhaustive_phase_sweep,
    run_with_outages,
)
from repro.faults.plan import (
    SITES,
    FaultPlan,
    SensorFaultPlan,
    derive_gate_flip_rates,
)
from repro.faults.report import (
    COMPATIBLE_SCHEMAS,
    OUTCOMES,
    SCHEMA,
    CampaignReport,
    render,
    validate_report,
)

__all__ = [
    "COMPATIBLE_SCHEMAS",
    "SITES",
    "OUTCOMES",
    "SCHEMA",
    "FaultPlan",
    "SensorFaultPlan",
    "derive_gate_flip_rates",
    "ControllerFaultHook",
    "TrialInjector",
    "FaultCounters",
    "RetryBudgetExhausted",
    "Workload",
    "WORKLOADS",
    "adder_workload",
    "svm_workload",
    "FaultCampaign",
    "CampaignReport",
    "render",
    "validate_report",
    "SweepResult",
    "run_with_outages",
    "exhaustive_phase_sweep",
]
