"""Pinned ``ProfileRun`` results over the paper benchmarks.

``tests/data/profile_run_pins.json`` holds the method-call loop's
results (``repro.perf.baseline.profile_run_reference``, the loop
``ProfileRun.run`` used before it was hoisted onto locals) for the six
paper benchmarks x three technologies x four sources (constant
100 uW and the ``rf_burst`` / ``solar`` / ``kinetic`` traces at
perfbench ``env_replay``'s parameters) x {ideal, 50 uA leak} x
{fixed, ``AdaptivePolicy()``} cadence, checkpoint period 2.  Each pin
is the ``Breakdown``, time, voltage, cursor, degraded tallies and, for
a run that raised, the exception's type, message and attributes.
Every comparison is float ``==``.

Regenerate (only when the semantics change on purpose) with::

    PYTHONPATH=src python tests/test_profile_run_pins.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.devices.parameters import ALL_TECHNOLOGIES
from repro.energy.model import InstructionCostModel
from repro.env import AdaptivePolicy, TraceSource, kinetic, rf_burst, solar_diurnal
from repro.harvest.capacitor import buffer_for
from repro.harvest.intermittent import (
    ChargeWindowFailure,
    HarvestingConfig,
    NonTerminationError,
    ProfileRun,
)
from repro.harvest.source import ConstantPowerSource
from repro.ml.benchmarks import ALL_WORKLOADS

PINS = Path(__file__).resolve().parent / "data" / "profile_run_pins.json"
SCHEMA = "repro.tests.profile_run_pins/v1"

SOURCES = ("constant", "rf_burst", "solar", "kinetic")
LEAK_AMPS = 5e-5
CHECKPOINT_PERIOD = 2


def make_source(family: str):
    if family == "constant":
        return ConstantPowerSource(100e-6)
    if family == "rf_burst":
        trace = rf_burst(seed=0, burst_watts=8e-4, idle_watts=4e-5)
    elif family == "solar":
        trace = solar_diurnal(
            seed=0, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
        )
    else:
        trace = kinetic(seed=0, mean_watts=4e-4, n_steps=64)
    return TraceSource(trace)


def case_key(workload, tech, family, leaky, adaptive) -> str:
    return "|".join(
        (
            workload.name,
            tech.name,
            family,
            "leaky" if leaky else "ideal",
            "adaptive" if adaptive else "fixed",
        )
    )


def build_run(workload, tech, family, leaky, adaptive) -> ProfileRun:
    cost = InstructionCostModel(tech)
    config = HarvestingConfig(
        source=make_source(family),
        buffer=buffer_for(tech, leakage_amps=LEAK_AMPS if leaky else 0.0),
    )
    return ProfileRun(
        workload.profile(cost),
        cost,
        config,
        checkpoint_period=CHECKPOINT_PERIOD,
        adaptive=AdaptivePolicy() if adaptive else None,
    )


def _error(exc) -> dict:
    out = {"type": type(exc).__name__, "message": str(exc)}
    attrs = (
        ("instruction_energy",)
        if isinstance(exc, NonTerminationError)
        else ("voltage", "needed", "retries")
    )
    for name in attrs:
        out[name] = getattr(exc, name)
    position = exc.trace_position
    out["trace_position"] = None if position is None else str(position)
    return out


def outcome(run: ProfileRun, execute) -> dict:
    """Run ``run`` with ``execute`` and capture everything a pin holds."""
    error = None
    try:
        execute(run)
    except (NonTerminationError, ChargeWindowFailure) as exc:
        error = _error(exc)
    return {
        "breakdown": dataclasses.asdict(run.ledger.breakdown),
        "time": run.time,
        "voltage": run.config.buffer.voltage,
        "seg_index": run.seg_index,
        "remaining": run.remaining,
        "degraded": dict(run.degraded),
        "error": error,
    }


def all_cases():
    for family in SOURCES:
        for leaky in (False, True):
            for adaptive in (False, True):
                yield family, leaky, adaptive


def generate(execute) -> dict:
    cases = {}
    for workload in ALL_WORKLOADS:
        for tech in ALL_TECHNOLOGIES:
            for family, leaky, adaptive in all_cases():
                run = build_run(workload, tech, family, leaky, adaptive)
                key = case_key(workload, tech, family, leaky, adaptive)
                cases[key] = outcome(run, execute)
    return {"schema": SCHEMA, "cases": cases}


@pytest.fixture(scope="module")
def pins() -> dict:
    data = json.loads(PINS.read_text(encoding="utf-8"))
    assert data["schema"] == SCHEMA
    return data["cases"]


def test_pins_cover_the_matrix(pins):
    assert len(pins) == len(ALL_WORKLOADS) * len(ALL_TECHNOLOGIES) * 16
    # The matrix reaches the fail-stop path, not only clean completions.
    assert any(p["error"] for p in pins.values())


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_profile_run_matches_pins(pins, workload, tech):
    for family, leaky, adaptive in all_cases():
        key = case_key(workload, tech, family, leaky, adaptive)
        run = build_run(workload, tech, family, leaky, adaptive)
        assert outcome(run, ProfileRun.run) == pins[key], key


if __name__ == "__main__":
    from repro.perf.baseline import profile_run_reference

    report = generate(profile_run_reference)
    PINS.write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(report['cases'])} pins to {PINS}")
