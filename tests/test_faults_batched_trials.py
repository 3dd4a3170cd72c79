"""Batched gate-flip campaign trials against the interpreter referee.

A campaign whose plan injects gate flips only runs its trials as rows of
one compiled batch (``FaultCampaign._run_batch``); the interpreter
(``FaultCampaign._run_trial``) stays the referee.  Every seed draws one
campaign per case in :data:`CASES` — the three workloads, the BNN
hardened at levels 0.5 and 1.0 (verify-marked pcs and TMR voters), and
a generated two-tile program with broadcast gates — with random
per-gate rates that include 0 and 1, both verify switches, a retry
budget of 0-3 and 1-8 trials.  The batched report must serialise to
the bytes of the same campaign under ``compilejit.set_enabled(False)``,
with ``_run_trial`` patched to raise so the batch provably ran.

The fallback tests pin each of ``INTERPRETER_REASONS`` to the
interpreter, and the store tests resume across tiers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro import compilejit
from repro.compilejit.plan import K_LN
from repro.core.accelerator import Mouse
from repro.core.controller import InstructionBudgetExceeded
from repro.core.program import Program
from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT
from repro.faults import FaultCampaign, FaultPlan, WORKLOADS
from repro.faults.campaign import INTERPRETER_REASONS, Workload
from repro.faults.plan import derive_gate_flip_rates
from repro.harden import HardenPolicy, harden_program
from repro.harden.frontier import _hardened_workload
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
)
from repro.lint import LintConfig
from repro.logic.library import GATE_LIBRARY
from tests.test_compilejit_differential import _mouse, _programs

#: Seeds, and campaigns drawn per seed (one per case).
N_SEEDS = 4
CASES = ("adder", "svm", "bnn", "hardened-0.5", "hardened-1.0", "broadcast")


@pytest.fixture(autouse=True)
def _compiled_enabled():
    was = compilejit.enabled()
    compilejit.set_enabled(True)
    yield
    compilejit.set_enabled(was)


def _refuse(*args, **kwargs):
    raise AssertionError("this tier must not run")


def _interpreted(campaign: FaultCampaign, **kwargs):
    compilejit.set_enabled(False)
    try:
        return campaign.run(**kwargs)
    finally:
        compilejit.set_enabled(True)


@lru_cache(maxsize=None)
def _hardened(tech, level: float) -> Workload:
    base = WORKLOADS["bnn"](tech)
    machine = base.build()
    bank = machine.bank
    config = LintConfig(
        n_data_tiles=len(bank.data_tiles), rows=bank.rows, cols=bank.cols
    )
    rates = derive_gate_flip_rates(tech, trials=2_000, scale=10.0, floor=1e-3)
    hardened = harden_program(
        machine.program, rates, config, HardenPolicy(level=level)
    )
    return _hardened_workload(base, hardened)


@lru_cache(maxsize=None)
def _broadcast(tech) -> Workload:
    """The first generated program with a broadcast gate, over random
    tile contents; its readout is every tile bit."""
    program, plan, states = next(
        entry for entry in _programs(0)
        if any(op[0] == K_LN for op in entry[1].ops)
    )

    def readout(mouse: Mouse) -> list[int]:
        bits = np.stack([t.state for t in mouse.bank.data_tiles])
        return [int(v) for v in np.packbits(bits)]

    golden = _mouse(tech, program, states[0])
    golden.run(compiled=False)
    return Workload(
        name="generated-broadcast",
        build=lambda: _mouse(tech, program, states[0]),
        readout=readout,
        reference=readout(golden),
    )


@lru_cache(maxsize=None)
def _workload(case: str, tech) -> Workload:
    if case.startswith("hardened-"):
        return _hardened(tech, float(case.split("-")[1]))
    if case == "broadcast":
        return _broadcast(tech)
    return WORKLOADS[case](tech)


def _random_plan(rng) -> FaultPlan:
    """Per-gate rates of 0 (30 %), 1 (5 %) or log-uniform in
    [1e-3, 0.3]; both verify switches and a budget of 0-3."""
    rates = {}
    for name in sorted(GATE_LIBRARY):
        pick = rng.random()
        if pick < 0.3:
            rates[name] = 0.0
        elif pick < 0.35:
            rates[name] = 1.0
        else:
            rates[name] = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.3))))
    return FaultPlan(
        gate_flip_rates=rates,
        verify_retry=bool(rng.integers(2)),
        verify_marked=bool(rng.integers(2)),
        retry_budget=int(rng.integers(4)),
    )


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_batched_trials_match_interpreter(seed, monkeypatch):
    rng = np.random.default_rng([seed, 18])
    tech = ALL_TECHNOLOGIES[seed % len(ALL_TECHNOLOGIES)]
    aborted = 0
    for case in CASES:
        workload = _workload(case, tech)
        plan = _random_plan(rng)
        campaign = FaultCampaign(
            workload,
            plan,
            trials=int(rng.integers(1, 9)),
            seed=int(rng.integers(2**31)),
        )
        ref = _interpreted(campaign, jobs=1)
        with monkeypatch.context() as m:
            m.setattr(FaultCampaign, "_run_trial", _refuse)
            fast = campaign.run(jobs=1)
        assert fast.to_json() == ref.to_json(), (seed, case)
        aborted += fast.outcomes["detected_aborted"]
    assert aborted > 0


# ----------------------------------------------------------------------
# Fallbacks: every reason keeps the trials on the interpreter
# ----------------------------------------------------------------------

FLIPS = {name: 0.05 for name in GATE_LIBRARY}


def _reason(campaign: FaultCampaign, obs=None):
    return campaign._interpreter_reason(campaign.workload.build(), obs)[0]


def _assert_interpreted(campaign, monkeypatch, reason, fallbacks=1):
    """The campaign runs (on the interpreter) with the batch refused,
    for ``reason``, and counts ``fallbacks`` fallback runs: the trial
    set, plus the golden run when that falls back too."""
    assert reason in INTERPRETER_REASONS
    before = compilejit.stats_snapshot()
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_batch", _refuse)
        campaign.run(jobs=1)
    after = compilejit.stats_snapshot()
    assert after["fallback_runs"] == before["fallback_runs"] + fallbacks


def test_flip_only_campaign_counts_one_compiled_trial_set(monkeypatch):
    campaign = FaultCampaign(
        WORKLOADS["adder"](MODERN_STT), FaultPlan(gate_flip_rates=FLIPS),
        trials=3, seed=4,
    )
    assert _reason(campaign) is None
    before = compilejit.stats_snapshot()
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_trial", _refuse)
        campaign.run(jobs=1)
    after = compilejit.stats_snapshot()
    # The golden run plus the trial set.
    assert after["compiled_runs"] == before["compiled_runs"] + 2
    assert after["fallback_runs"] == before["fallback_runs"]


def test_compiled_off_runs_the_interpreter(monkeypatch):
    campaign = FaultCampaign(
        WORKLOADS["adder"](MODERN_STT), FaultPlan(gate_flip_rates=FLIPS),
        trials=2, seed=4,
    )
    compilejit.set_enabled(False)
    assert _reason(campaign) == "compiled_off"
    _assert_interpreted(campaign, monkeypatch, "compiled_off")


def test_telemetry_runs_the_interpreter(monkeypatch):
    from repro.obs import InMemorySink, Telemetry

    sink = InMemorySink()
    campaign = FaultCampaign(
        WORKLOADS["adder"](MODERN_STT), FaultPlan(gate_flip_rates=FLIPS),
        trials=2, seed=4, telemetry=Telemetry(sink),
    )
    assert _reason(campaign, campaign._resolve_obs()) == "telemetry"
    _assert_interpreted(campaign, monkeypatch, "telemetry")
    assert any(e.kind.startswith("fault.") for e in sink.events)


@pytest.mark.parametrize(
    "extra",
    [
        {"array_flip_rate": 0.05},
        {"nv_corruption_rate": 0.05},
        {"outage_rate": 0.01},
        {"outage_trace": True},
    ],
    ids=["array", "nv", "outage", "outage-trace"],
)
def test_non_flip_faults_run_the_interpreter(extra, monkeypatch):
    kwargs = {}
    if extra.pop("outage_trace", False):
        from repro.env.trace import rf_burst

        kwargs["outage_trace"] = rf_burst(seed=1, n_bursts=2)
    campaign = FaultCampaign(
        WORKLOADS["adder"](MODERN_STT),
        FaultPlan(gate_flip_rates=FLIPS, **extra),
        trials=2, seed=4, **kwargs,
    )
    assert _reason(campaign) == "non_flip_faults"
    _assert_interpreted(campaign, monkeypatch, "non_flip_faults")


def test_program_without_a_plan_runs_the_interpreter(monkeypatch):
    """A gate with no preset lints with errors (PRE001), so it has no
    plan; the interpreter still runs it."""
    program = Program([
        ActivateColumnsInstruction(0, (0, 3), bulk=True),
        LogicInstruction("NAND", 0, (0, 2), 1),
        HaltInstruction(),
    ])

    def build() -> Mouse:
        mouse = Mouse(MODERN_STT, rows=16, cols=4)
        mouse.load(program)
        return mouse

    def readout(mouse: Mouse) -> list[int]:
        return [int(b) for b in mouse.tile(0).state[1]]

    golden = build()
    golden.run(compiled=False)
    workload = Workload("no-plan", build, readout, readout(golden))
    campaign = FaultCampaign(
        workload, FaultPlan(gate_flip_rates=FLIPS), trials=2, seed=4
    )
    assert _reason(campaign) == "no_plan"
    _assert_interpreted(campaign, monkeypatch, "no_plan", fallbacks=2)


def test_microstep_budget_still_raises(monkeypatch):
    workload = WORKLOADS["adder"](MODERN_STT)
    n = len(workload.build().program)
    plan = FaultPlan(gate_flip_rates=FLIPS, verify_retry=False)
    # One microstep short of a full run: the interpreter raises.
    short = FaultCampaign(
        workload, plan, trials=2, seed=4, max_microsteps=5 * n - 3
    )
    assert _reason(short) == "microstep_budget"
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_batch", _refuse)
        with pytest.raises(InstructionBudgetExceeded):
            short.run(jobs=1)
    # Exactly a full run's microsteps: batched, and the referee agrees.
    exact = FaultCampaign(
        workload, plan, trials=2, seed=4, max_microsteps=5 * n - 2
    )
    assert _reason(exact) is None
    assert exact.run(jobs=1).to_json() == _interpreted(exact, jobs=1).to_json()


# ----------------------------------------------------------------------
# Fan-out and resume keep the bytes
# ----------------------------------------------------------------------


def _verified_campaign(trials: int) -> FaultCampaign:
    return FaultCampaign(
        WORKLOADS["bnn"](MODERN_STT),
        FaultPlan(gate_flip_rates=FLIPS, retry_budget=2),
        trials=trials,
        seed=9,
    )


def test_jobs_do_not_change_the_bytes():
    campaign = _verified_campaign(4)
    assert campaign.run(jobs=2).to_json() == campaign.run(jobs=1).to_json()


def test_resume_across_tiers(tmp_path, monkeypatch):
    """A store half-written by the interpreter resumes on the batch,
    computing only the missing trials, and the other way round."""
    straight = _interpreted(_verified_campaign(5), jobs=1).to_json()

    batched_rows = []
    real = FaultCampaign._run_batch

    def spy(self, trials, *args):
        batched_rows.extend(trials)
        return real(self, trials, *args)

    store = str(tmp_path / "from-interpreter")
    _interpreted(_verified_campaign(2), checkpoint_dir=store)
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_batch", spy)
        m.setattr(FaultCampaign, "_run_trial", _refuse)
        resumed = _verified_campaign(5).run(checkpoint_dir=store)
    assert batched_rows == [2, 3, 4]
    assert resumed.to_json() == straight

    store = str(tmp_path / "from-batch")
    _verified_campaign(3).run(checkpoint_dir=store)
    resumed = _interpreted(_verified_campaign(5), checkpoint_dir=store)
    assert resumed.to_json() == straight
