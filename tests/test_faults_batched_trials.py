"""Batched campaign trials against the interpreter referee.

A campaign that does not mix gate flips with other faults runs its
trials as rows of one compiled batch (``FaultCampaign._run_batch``);
the interpreter (``FaultCampaign._run_trial``) stays the referee.  Every
seed draws two campaigns per case in :data:`CASES` — the three
workloads, the BNN hardened at levels 0.5 and 1.0 (verify-marked pcs
and TMR voters), and a generated two-tile program with broadcast
gates — each with 1-8 trials, both verify switches and a retry budget
of 0-3:

* gate flips only, at random per-gate rates that include 0 and 1;
* no gate flips: random outage, NV and array rates up to 0.2, alone or
  together.  Power cycles batch only on replay-stable plans, so here
  the broadcast case is the first generated broadcast program whose
  plan is one.

The batched report must serialise to the bytes of the same campaign
under ``compilejit.set_enabled(False)``, with ``_run_trial`` patched to
raise so the batch provably ran.

The fallback tests pin each of ``INTERPRETER_REASONS`` to the
interpreter, and the store tests resume across tiers.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from repro import compilejit
from repro.compilejit import exec as exec_module
from repro.compilejit.plan import CompiledPlan
from repro.core.accelerator import Mouse
from repro.core.controller import InstructionBudgetExceeded, Phase
from repro.core.program import Program
from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT
from repro.faults import FaultCampaign, FaultPlan, WORKLOADS
from repro.faults.campaign import INTERPRETER_REASONS, Workload
from repro.faults.injectors import WalkDraws
from repro.faults.plan import derive_gate_flip_rates
from repro.harden import HardenPolicy, harden_program
from repro.harden.frontier import _hardened_workload
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint import LintConfig
from repro.logic.library import GATE_LIBRARY
from tests.test_compilejit_differential import _mouse, _programs

#: Seeds, and campaigns drawn per seed and test (one per case).
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


def _generated(tech, name: str, pick) -> Workload:
    """The first program of ``_programs(0)`` whose plan ``pick`` accepts,
    over random tile contents; its readout is every tile bit."""
    program, plan, states = next(
        entry for entry in _programs(0) if pick(entry[1])
    )

    def readout(mouse: Mouse) -> list[int]:
        bits = np.stack([t.state for t in mouse.bank.data_tiles])
        return [int(v) for v in np.packbits(bits)]

    golden = _mouse(tech, program, states[0])
    golden.run(compiled=False)
    return Workload(
        name=name,
        build=lambda: _mouse(tech, program, states[0]),
        readout=readout,
        reference=readout(golden),
    )


def _is_broadcast(plan) -> bool:
    return any(len(plan.gates(pc)) > 1 for pc in plan.logic_pcs)


@lru_cache(maxsize=None)
def _broadcast(tech) -> Workload:
    """The first generated program with a broadcast gate.  Different
    ACTIVATEs latch its two tiles, so their active columns differ and
    its plan is not replay-stable."""
    return _generated(tech, "generated-broadcast", _is_broadcast)


@lru_cache(maxsize=None)
def _stable_broadcast(tech) -> Workload:
    """The first generated program with a broadcast gate whose plan is
    replay-stable, for campaigns that cycle power."""
    return _generated(
        tech,
        "generated-broadcast-stable",
        lambda plan: plan.replay_stable and _is_broadcast(plan),
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
# Campaigns without gate flips: power cuts, NV disturbs, array flips
# ----------------------------------------------------------------------


def _log_rate(rng) -> float:
    """0 half the time, else log-uniform in [1e-3, 0.2]."""
    if rng.random() < 0.5:
        return 0.0
    return float(np.exp(rng.uniform(np.log(1e-3), np.log(0.2))))


def _random_walk_plan(rng) -> FaultPlan:
    """Outage, NV and array rates from :func:`_log_rate`, at least one
    of them set; both verify switches and a budget of 0-3."""
    while True:
        outage, nv, array = (_log_rate(rng) for _ in range(3))
        if outage or nv or array:
            break
    return FaultPlan(
        outage_rate=outage,
        nv_corruption_rate=nv,
        array_flip_rate=array,
        verify_retry=bool(rng.integers(2)),
        verify_marked=bool(rng.integers(2)),
        retry_budget=int(rng.integers(4)),
    )


@lru_cache(maxsize=None)
def _non_flip_seed(seed: int) -> tuple:
    """One seed's campaign per case, batched and interpreted: per case
    the trial tier and both reports' JSON, then the drawn power cuts
    after an EXECUTE or PC_STAGE (the interpreter re-executes the
    in-flight op; the batch does not) and the ``sdc`` trials of
    campaigns with array flips."""
    rng = np.random.default_rng([seed, 19])
    tech = ALL_TECHNOLOGIES[seed % len(ALL_TECHNOLOGIES)]
    runs, replayed, sdc = [], 0, 0
    for case in CASES:
        workload = (
            _stable_broadcast(tech) if case == "broadcast"
            else _workload(case, tech)
        )
        plan = _random_walk_plan(rng)
        campaign = FaultCampaign(
            workload,
            plan,
            trials=int(rng.integers(1, 9)),
            seed=int(rng.integers(2**31)),
        )
        ref = _interpreted(campaign, jobs=1)
        drawn = []
        real = FaultCampaign._draw

        def spy(self, *args):
            draws = real(self, *args)
            drawn.extend(draws or ())
            return draws

        with mock.patch.object(FaultCampaign, "_run_trial", _refuse), \
                mock.patch.object(FaultCampaign, "_draw", spy):
            fast = campaign.run(jobs=1)
        runs.append((case, campaign.trial_tier, fast.to_json(), ref.to_json()))
        replayed += sum(
            site == "outage" and phase in (Phase.EXECUTE, Phase.PC_STAGE)
            for draw in drawn
            for _, phase, site, _ in draw.events
        )
        if plan.array_flip_rate:
            sdc += fast.outcomes["sdc"]
    return runs, replayed, sdc


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_non_flip_trials_match_interpreter(seed):
    for case, tier, fast, ref in _non_flip_seed(seed)[0]:
        assert tier == {"tier": "batched"}, (seed, case)
        assert fast == ref, (seed, case)


def test_non_flip_trials_replay_cuts_and_corrupt_data():
    """Across the seeds, the campaigns that matched the interpreter
    include power cuts after which it re-executed the in-flight op, and
    array flips that caused silent corruption."""
    replayed = sum(_non_flip_seed(seed)[1] for seed in range(N_SEEDS))
    sdc = sum(_non_flip_seed(seed)[2] for seed in range(N_SEEDS))
    assert replayed > 0
    assert sdc > 0


def _exposed_gate() -> Workload:
    """A NAND on a 4x4 tile whose output row is preset thirteen commits
    before the gate fires: array flips often land on the preset row,
    where a column the gate leaves alone keeps the flip and the verify
    re-read catches it."""
    pad = [
        MemoryInstruction(op, 0, row)
        for _ in range(6)
        for op, row in (("READ", 0), ("WRITE", 3))
    ]
    program = Program([
        ActivateColumnsInstruction(0, (0, 3), bulk=True),
        MemoryInstruction("PRESET0", 0, 1),
        *pad,
        LogicInstruction("NAND", 0, (0, 2), 1),
        HaltInstruction(),
    ])

    def build() -> Mouse:
        mouse = Mouse(MODERN_STT, rows=4, cols=4)
        for col in range(4):
            mouse.tile(0).set_bit(0, col, col >> 1)
            mouse.tile(0).set_bit(2, col, col & 1)
        mouse.load(program)
        return mouse

    def readout(mouse: Mouse) -> list[int]:
        return [int(b) for b in mouse.tile(0).state[1]]

    golden = build()
    golden.run(compiled=False)
    return Workload("exposed-nand", build, readout, readout(golden))


@pytest.mark.parametrize("budget", [0, 2])
def test_verified_gate_rereads_array_flips(budget, monkeypatch):
    """Array flips on the output row are detected by the batch's re-read
    as by the interpreter's, then re-issued or, at budget 0, aborted;
    power cuts replay the gate around it."""
    campaign = FaultCampaign(
        _exposed_gate(),
        FaultPlan(array_flip_rate=0.5, outage_rate=0.1, retry_budget=budget),
        trials=16,
        seed=5,
    )
    ref = _interpreted(campaign, jobs=1)
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_trial", _refuse)
        fast = campaign.run(jobs=1)
    assert fast.to_json() == ref.to_json()
    assert fast.totals["detected"] > 0
    if budget:
        assert fast.totals["recovered"] > 0
    else:
        assert fast.outcomes["detected_aborted"] > 0


def test_hooks_work_on_packed_rows(monkeypatch):
    """Each ``run_batched`` of a campaign packs and unpacks each tile
    once, however many hooks lay flips, re-read and re-issue verified
    gates, stop aborted trials and flip array cells: the hooks read
    and write the packed rows themselves.  The golden run packs too,
    as a batch of one: each tile once, and its transfer buffer."""
    runs = []  # per run: [packs, unpacks, rows packed, hooks or None]
    real_run = exec_module.run_batched
    real_golden = exec_module._run_continuous

    def run(machine, plan, hooks=None):
        runs.append([0, 0, len(machine.tiles), len(hooks or ())])
        return real_run(machine, plan, hooks)

    def golden(mouse, plan):
        runs.append([0, 0, len(mouse.bank.data_tiles) + 1, None])
        return real_golden(mouse, plan)

    def counting(real, slot):
        def spy(*args):
            runs[-1][slot] += 1
            return real(*args)

        return spy

    monkeypatch.setattr(exec_module, "run_batched", run)
    monkeypatch.setattr(exec_module, "_run_continuous", golden)
    monkeypatch.setattr(exec_module, "pack_rows", counting(exec_module.pack_rows, 0))
    monkeypatch.setattr(
        exec_module, "unpack_rows", counting(exec_module.unpack_rows, 1)
    )
    tech = ALL_TECHNOLOGIES[0]
    flips = {name: 0.2 for name in GATE_LIBRARY}
    campaigns = (
        FaultCampaign(
            _broadcast(tech),
            FaultPlan(gate_flip_rates=flips, verify_retry=True, retry_budget=1),
            trials=8, seed=3,
        ),
        FaultCampaign(
            _exposed_gate(),
            FaultPlan(array_flip_rate=0.5, retry_budget=0),
            trials=8, seed=5,
        ),
        FaultCampaign(
            _exposed_gate(),
            FaultPlan(array_flip_rate=0.5, retry_budget=2),
            trials=8, seed=5,
        ),
    )
    totals = dict.fromkeys(("gate", "array", "retries", "aborted"), 0)
    for campaign in campaigns:
        ref = _interpreted(campaign, jobs=1)
        with monkeypatch.context() as m:
            m.setattr(FaultCampaign, "_run_trial", _refuse)
            fast = campaign.run(jobs=1)
        assert fast.to_json() == ref.to_json()
        for site in ("gate", "array"):
            totals[site] += fast.totals["injected"].get(site, 0)
        totals["retries"] += fast.totals["retries"]
        totals["aborted"] += fast.outcomes["detected_aborted"]
    assert all(totals.values()), totals
    # Each campaign: its golden run, then its trials' batch.
    assert [hooks is None for _, _, _, hooks in runs] == [True, False] * len(
        campaigns
    )
    assert {tiles for _, _, tiles, hooks in runs if hooks} == {1, 2}
    for packs, unpacks, tiles, hooks in runs:
        assert hooks is None or hooks > 0
        assert packs == unpacks == tiles


def test_flip_sites_are_built_once_per_plan(monkeypatch):
    """A second campaign of the same program and fault rates reuses the
    first one's flip sites: it asks the plan for no flip targets, and
    its report is the bytes of a campaign on a freshly built plan."""
    plan = FaultPlan(gate_flip_rates=FLIPS, verify_retry=True, retry_budget=1)
    workload = WORKLOADS["bnn"](MODERN_STT)
    calls = []
    real = CompiledPlan.flip_targets

    def spy(self, pc):
        calls.append(pc)
        return real(self, pc)

    monkeypatch.setattr(CompiledPlan, "flip_targets", spy)
    first = FaultCampaign(workload, plan, trials=6, seed=2).run(jobs=1)
    assert calls
    calls.clear()
    again = FaultCampaign(workload, plan, trials=6, seed=2).run(jobs=1)
    assert calls == []
    fresh = FaultCampaign(WORKLOADS["bnn"](MODERN_STT), plan, trials=6, seed=2)
    assert again.to_json() == fresh.run(jobs=1).to_json() == first.to_json()
    assert calls


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=lambda tech: tech.name)
def test_flip_sites_follow_the_verify_switches_and_budget(tech):
    """Campaigns of one program that differ only in a verify switch or
    the retry budget each draw with their own sites: every report is
    the interpreter's."""
    workload = WORKLOADS["bnn"](tech)
    aborted = 0
    for retry, marked, budget in ((True, True, 2), (True, True, 0), (False, True, 0)):
        plan = FaultPlan(
            gate_flip_rates=FLIPS, verify_retry=retry, verify_marked=marked,
            retry_budget=budget,
        )
        campaign = FaultCampaign(workload, plan, trials=6, seed=2)
        fast = campaign.run(jobs=1)
        assert campaign.trial_tier == {"tier": "batched"}
        assert fast.to_json() == _interpreted(campaign, jobs=1).to_json()
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
    assert campaign.trial_tier == {"tier": "interpreter", "reason": reason}


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
    from repro.obs import InMemorySink, Telemetry, active

    sink = InMemorySink()
    campaign = FaultCampaign(
        WORKLOADS["adder"](MODERN_STT), FaultPlan(gate_flip_rates=FLIPS),
        trials=2, seed=4, telemetry=Telemetry(sink),
    )
    assert _reason(campaign, active(campaign.telemetry)) == "telemetry"
    _assert_interpreted(campaign, monkeypatch, "telemetry")
    assert any(e.kind.startswith("fault.") for e in sink.events)


@pytest.mark.parametrize(
    "extra",
    [
        {"array_flip_rate": 0.05},
        {"nv_corruption_rate": 0.05},
        {"outage_rate": 0.01},
    ],
    ids=["array", "nv", "outage"],
)
def test_non_flip_faults_run_the_interpreter(extra, monkeypatch):
    """Gate flips together with any other fault site."""
    campaign = FaultCampaign(
        WORKLOADS["adder"](MODERN_STT),
        FaultPlan(gate_flip_rates=FLIPS, **extra),
        trials=2, seed=4,
    )
    assert _reason(campaign) == "mixed_faults"
    _assert_interpreted(campaign, monkeypatch, "mixed_faults")


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


def _microsteps(events, n: int) -> int:
    """The microsteps of a drawn walk over ``n`` instructions: the
    straight run's, plus, for each cut before a COMMIT, the in-flight
    instruction's microsteps up to the cut, which it replays."""
    phases = list(Phase)[1:]  # FETCH .. COMMIT
    return 5 * n - 2 + sum(
        phases.index(phase) + 1
        for _, phase, site, _ in events
        if site == "outage" and phase is not Phase.COMMIT
    )


def test_replays_past_the_microstep_budget_run_the_interpreter(monkeypatch):
    """A budget a straight run fits in, but that a trial's replayed
    microsteps overrun: the interpreter raises, as it does unbatched."""
    workload = WORKLOADS["adder"](MODERN_STT)
    machine = workload.build()
    n = len(machine.program)
    plan = FaultPlan(outage_rate=0.02)
    walk = WalkDraws(plan, n, (1, machine.bank.rows, machine.bank.cols))

    def draw(trial: int, limit: int):
        return walk.draw(np.random.default_rng([4, trial]), limit)

    longest = max(_microsteps(draw(trial, 10**9), n) for trial in range(3))
    assert longest > 5 * n - 2
    assert all(draw(trial, longest) is not None for trial in range(3))
    assert any(draw(trial, longest - 1) is None for trial in range(3))
    short = FaultCampaign(
        workload, plan, trials=3, seed=4, max_microsteps=longest - 1
    )
    assert _reason(short) is None
    with pytest.raises(InstructionBudgetExceeded):
        _assert_interpreted(short, monkeypatch, "microstep_budget")
    assert short.trial_tier == {
        "tier": "interpreter", "reason": "microstep_budget"
    }
    exact = FaultCampaign(
        workload, plan, trials=3, seed=4, max_microsteps=longest
    )
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_trial", _refuse)
        fast = exact.run(jobs=1).to_json()
    assert exact.trial_tier == {"tier": "batched"}
    assert fast == _interpreted(exact, jobs=1).to_json()


def test_replay_unstable_plan_runs_the_interpreter(monkeypatch):
    """The generated broadcast program, whose restore would latch other
    columns than its plan bakes in: power cycles stay on the
    interpreter, while array flips alone, which never cycle power,
    still batch, re-read on both tiles' own active columns."""
    workload = _broadcast(MODERN_STT)
    for extra in ({"outage_rate": 0.1}, {"nv_corruption_rate": 0.1}):
        campaign = FaultCampaign(workload, FaultPlan(**extra), trials=3, seed=4)
        assert _reason(campaign) == "replay_unstable"
        _assert_interpreted(campaign, monkeypatch, "replay_unstable")
    campaign = FaultCampaign(
        workload, FaultPlan(array_flip_rate=0.3), trials=3, seed=4
    )
    assert _reason(campaign) is None
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_trial", _refuse)
        fast = campaign.run(jobs=1).to_json()
    assert fast == _interpreted(campaign, jobs=1).to_json()


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


def _outage_campaign(trials: int) -> FaultCampaign:
    return FaultCampaign(
        WORKLOADS["bnn"](MODERN_STT),
        FaultPlan(outage_rate=0.02, nv_corruption_rate=0.01),
        trials=trials,
        seed=9,
    )


def test_jobs_do_not_change_the_bytes():
    campaign = _verified_campaign(4)
    assert campaign.run(jobs=2).to_json() == campaign.run(jobs=1).to_json()


def test_outage_jobs_do_not_change_the_bytes():
    campaign = _outage_campaign(4)
    assert campaign.run(jobs=2).to_json() == campaign.run(jobs=1).to_json()
    assert campaign.trial_tier == {"tier": "batched"}


def _assert_resumes_across_tiers(make, tmp_path, monkeypatch) -> None:
    """A store half-written by the interpreter resumes on the batch,
    computing only the missing trials, and the other way round."""
    straight = _interpreted(make(5), jobs=1).to_json()

    batched_rows = []
    real = FaultCampaign._run_batch

    def spy(self, trials, *args):
        batched_rows.extend(trials)
        return real(self, trials, *args)

    store = str(tmp_path / "from-interpreter")
    _interpreted(make(2), checkpoint_dir=store)
    with monkeypatch.context() as m:
        m.setattr(FaultCampaign, "_run_batch", spy)
        m.setattr(FaultCampaign, "_run_trial", _refuse)
        resumed = make(5).run(checkpoint_dir=store)
    assert batched_rows == [2, 3, 4]
    assert resumed.to_json() == straight

    store = str(tmp_path / "from-batch")
    make(3).run(checkpoint_dir=store)
    resumed = _interpreted(make(5), checkpoint_dir=store)
    assert resumed.to_json() == straight


def test_resume_across_tiers(tmp_path, monkeypatch):
    _assert_resumes_across_tiers(_verified_campaign, tmp_path, monkeypatch)


def test_outage_resume_across_tiers(tmp_path, monkeypatch):
    _assert_resumes_across_tiers(_outage_campaign, tmp_path, monkeypatch)
