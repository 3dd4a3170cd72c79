"""Byte-identity properties of the compiled whole-program executor.

Every assertion here is *float equality*, never isclose: the plan
executor (`repro.compilejit`) claims bit-for-bit the same Breakdown,
profiler attribution, tile states and architectural state as the
scalar microstep interpreter it replaces — across the campaign
workloads, all three technologies, outage-interrupted intermittent
runs and hardened (TMR/verify-and-retry) rewrites.  ``ProfileRun``'s
hoisted loop is held to the same bar against its method-call referee,
``repro.perf.baseline.profile_run_reference``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro import compilejit
from repro.devices import ALL_TECHNOLOGIES
from repro.devices.parameters import MODERN_STT
from repro.energy.model import InstructionCostModel
from repro.faults.campaign import WORKLOADS
from repro.faults.injectors import ControllerFaultHook
from repro.faults.plan import FaultPlan
from repro.harvest.capacitor import EnergyBuffer, buffer_for
from repro.harvest.intermittent import (
    HarvestingConfig,
    IntermittentRun,
    NonTerminationError,
    ProfileRun,
)
from repro.harvest.source import ConstantPowerSource
from repro.ml.benchmarks import ALL_WORKLOADS
from repro.obs.prof import EnergyProfiler
from repro.obs.sinks import InMemorySink
from repro.obs.telemetry import Telemetry
from repro.verify.targets import VERIFY_TARGETS

BREAKDOWN_FIELDS = (
    "compute_energy",
    "backup_energy",
    "dead_energy",
    "restore_energy",
    "compute_latency",
    "dead_latency",
    "restore_latency",
    "charging_latency",
    "instructions",
    "restarts",
)


@pytest.fixture(autouse=True)
def _compiled_enabled():
    """Each test toggles the global switch; always restore it."""
    was = compilejit.enabled()
    yield
    compilejit.set_enabled(was)


def assert_breakdowns_equal(b1, b2, key=()):
    for field in BREAKDOWN_FIELDS:
        v1, v2 = getattr(b1, field), getattr(b2, field)
        assert v1 == v2, (key, field, v1, v2)


def profiler_state(prof):
    """The profiler's full tree, flattened for exact comparison."""
    return (
        [
            tuple(getattr(stat, f) for f in BREAKDOWN_FIELDS)
            for stat in prof._stats
        ],
        list(prof._self_energy),
        list(prof._self_latency),
        prof._leaf,
    )


def _run_pair(workload):
    """One compiled and one interpreted continuous run of a workload."""
    mice = []
    for compiled in (None, False):
        mouse = workload.build()
        mouse.run(compiled=compiled)
        mice.append(mouse)
    return mice


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_continuous_byte_identity(wname, tech):
    compilejit.set_enabled(True)
    workload = WORKLOADS[wname](tech)
    before = compilejit.stats_snapshot()["compiled_runs"]
    fast, ref = _run_pair(workload)
    # The fast run took the plan executor, not a silent fallback.
    assert compilejit.stats_snapshot()["compiled_runs"] == before + 1
    assert_breakdowns_equal(fast.ledger.breakdown, ref.ledger.breakdown)
    for t1, t2 in zip(fast.bank.data_tiles, ref.bank.data_tiles):
        assert np.array_equal(t1.state, t2.state)
        assert np.array_equal(t1._active_idx, t2._active_idx)
        assert t1._n_active == t2._n_active
    c1, c2 = fast.controller, ref.controller
    assert c1.pc._values == c2.pc._values
    assert c1.pc.parity.value == c2.pc.parity.value
    assert c1.halted == c2.halted and c1.phase == c2.phase
    assert workload.readout(fast) == workload.readout(ref)
    assert workload.readout(fast) == workload.reference


def _intermittent_pair(wname, tech, cap_scale, watts):
    results = []
    for compiled in (True, False):
        workload = WORKLOADS[wname](tech)
        mouse = workload.build()
        base = buffer_for(tech)
        buf = EnergyBuffer(
            capacitance=base.capacitance * cap_scale,
            v_off=base.v_off,
            v_on=base.v_on,
        )
        run = IntermittentRun(
            mouse, HarvestingConfig(ConstantPowerSource(watts), buf)
        )
        compilejit.set_enabled(compiled)
        try:
            breakdown = run.run()
            err = None
        except NonTerminationError as exc:
            breakdown = exc.breakdown
            err = (str(exc), exc.instruction_energy)
        results.append((workload, mouse, run, breakdown, err))
    return results


#: Buffer scales spanning no-outage, frequent-outage, and (at the
#: smallest scales for wide activations) non-termination regimes.
CAP_SCALES = (1.0, 0.003, 1e-6, 3e-7)


@pytest.mark.parametrize("cap_scale", CAP_SCALES)
@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_intermittent_outage_byte_identity(wname, cap_scale):
    key = (wname, cap_scale)
    (w1, m1, r1, b1, e1), (w2, m2, r2, b2, e2) = _intermittent_pair(
        wname, MODERN_STT, cap_scale, watts=10e-6
    )
    assert e1 == e2, key
    assert_breakdowns_equal(b1, b2, key)
    assert r1.time == r2.time and r1.executed == r2.executed, key
    assert r1.config.buffer.voltage == r2.config.buffer.voltage, key
    for t1, t2 in zip(m1.bank.data_tiles, m2.bank.data_tiles):
        assert np.array_equal(t1.state, t2.state), key
    c1, c2 = m1.controller, m2.controller
    assert c1.pc._values == c2.pc._values, key
    assert c1.pc.parity.value == c2.pc.parity.value, key
    assert c1.halted == c2.halted and c1.phase == c2.phase, key
    assert c1._executed_uncommitted == c2._executed_uncommitted, key
    assert c1._dead_replay == c2._dead_replay, key
    if e1 is None:
        assert w1.readout(m1) == w2.readout(m2), key


def test_intermittent_hits_both_regimes():
    """The CAP_SCALES sweep genuinely covers restarts and a clean run."""
    (_, _, _, clean, clean_err), _ = _intermittent_pair(
        "adder", MODERN_STT, 1.0, watts=10e-6
    )
    assert clean_err is None and clean.restarts == 0
    (_, _, _, outage, outage_err), _ = _intermittent_pair(
        "adder", MODERN_STT, 3e-7, watts=10e-6
    )
    assert outage_err is not None or outage.restarts > 0


@pytest.mark.parametrize("level", (0.5, 1.0))
def test_hardened_program_byte_identity(level):
    """TMR/verify-and-retry rewrites run identically under the plan."""
    from repro.harden import HardenPolicy
    from repro.harden.transform import harden_program
    from repro.lint.config import LintConfig
    from repro.verify.targets import DEFAULT_FLIP_RATES

    compilejit.set_enabled(True)
    workload = WORKLOADS["adder"](MODERN_STT)
    template = workload.build()
    config = LintConfig(
        n_data_tiles=len(template.bank.data_tiles),
        rows=template.bank.rows,
        cols=template.bank.cols,
    )
    hardened = harden_program(
        template.program,
        DEFAULT_FLIP_RATES,
        config,
        policy=HardenPolicy(level=level),
    )
    mice = []
    for compiled in (None, False):
        mouse = workload.build()
        mouse.load(hardened)  # keeps the written inputs, swaps the code
        mouse.run(compiled=compiled)
        mice.append(mouse)
    fast, ref = mice
    assert_breakdowns_equal(fast.ledger.breakdown, ref.ledger.breakdown)
    for t1, t2 in zip(fast.bank.data_tiles, ref.bank.data_tiles):
        assert np.array_equal(t1.state, t2.state)
    assert workload.readout(fast) == workload.readout(ref)


def _profile_pair(workload, tech, watts, use_prof, cap_scale=1.0, trace=None):
    """The same ProfileRun through ``run()`` and through the referee."""
    from repro.perf.baseline import profile_run_reference

    results = []
    for execute in (ProfileRun.run, profile_run_reference):
        cost = InstructionCostModel(tech)
        profile = workload.profile(cost)
        prof = EnergyProfiler() if use_prof else None
        if trace is not None:
            config = HarvestingConfig.from_trace(tech, trace)
        elif cap_scale == 1.0:
            config = HarvestingConfig.paper(tech, watts)
        else:
            base = buffer_for(tech)
            buf = EnergyBuffer(
                capacitance=base.capacitance * cap_scale,
                v_off=base.v_off,
                v_on=base.v_on,
            )
            config = HarvestingConfig(ConstantPowerSource(watts), buf)
        run = ProfileRun(
            profile,
            cost,
            config,
            profiler=prof,
        )
        try:
            breakdown = execute(run)
            err = None
        except NonTerminationError as exc:
            breakdown = exc.breakdown
            err = (str(exc), exc.instruction_energy, exc.trace_position)
        results.append((run, breakdown, err, prof))
    return results


@pytest.mark.parametrize("use_prof", (False, True), ids=("plain", "profiled"))
@pytest.mark.parametrize("watts", (100e-6, 1e-6))
@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("w", ALL_WORKLOADS, ids=lambda w: w.name)
def test_profile_run_byte_identity(w, tech, watts, use_prof):
    key = (w.name, tech.name, watts, use_prof)
    (r1, b1, e1, p1), (r2, b2, e2, p2) = _profile_pair(
        w, tech, watts, use_prof
    )
    assert e1 == e2, key
    assert_breakdowns_equal(b1, b2, key)
    assert r1.time == r2.time, key
    assert r1.seg_index == r2.seg_index, key
    assert r1.remaining == r2.remaining, key
    assert r1.config.buffer.voltage == r2.config.buffer.voltage, key
    if use_prof:
        assert profiler_state(p1) == profiler_state(p2), key


def test_profile_run_nontermination_identical():
    """A too-small buffer window raises the same diagnosis as the
    referee."""
    w = ALL_WORKLOADS[0]
    (r1, b1, e1, _), (r2, b2, e2, _) = _profile_pair(
        w, MODERN_STT, 1e-6, use_prof=False, cap_scale=1e-6
    )
    assert e1 is not None, "expected a NonTermination with a 1e-6 buffer"
    assert e1 == e2
    assert_breakdowns_equal(b1, b2)
    assert r1.seg_index == r2.seg_index and r1.remaining == r2.remaining

    # Under a constant trace the diagnosis carries the trace position
    # in the message and the attribute.
    from repro.env import constant
    from repro.harvest.intermittent import InstructionProfile

    class OneJoule:
        @staticmethod
        def profile(cost):
            profile = InstructionProfile(name="one-joule")
            profile.add(10, 1.0, 0.0)
            return profile

    (r1, b1, e1, _), (r2, b2, e2, _) = _profile_pair(
        OneJoule, MODERN_STT, 100e-6, use_prof=False, trace=constant(100e-6)
    )
    assert e1 is not None and e1[2] is not None
    assert e1 == e2
    assert e1[0].endswith(f"({e1[2]})")
    assert_breakdowns_equal(b1, b2)


@lru_cache(maxsize=None)
def _compiled_classifier(name):
    from repro.compile import classifier

    if name == "svm":
        return classifier.compile_svm_decision(
            n_support=1, dimensions=2, input_bits=3, sv_bits=3, coef_bits=3,
            offset_bits=3, rows=1024, n_columns=1,
        )
    if name == "multiclass_svm":
        return classifier.compile_multiclass_svm(
            n_classes=3, n_support_per_class=1, dimensions=2, input_bits=2,
            sv_bits=2, coef_bits=2, offset_bits=2, rows=1024,
        )
    return classifier.compile_bnn_output(
        fan_in=8, n_classes=3, bias_bits=4, rows=256
    )


def _run_batch(name, tech):
    """One call of a ``repro.perf.inference`` ``*_batch`` function on
    a fixed 16-sample batch."""
    from repro.perf import inference

    compiled = _compiled_classifier(name)
    rng = np.random.default_rng(1)
    if name == "svm":
        X = rng.integers(0, 8, size=(16, 2))
        return inference.svm_classify_batch(
            compiled, np.array([[1, 2]]), np.array([2]), 1, X, tech
        )
    if name == "multiclass_svm":
        X = rng.integers(0, 4, size=(16, 2))
        return inference.multiclass_svm_predict_batch(
            compiled,
            [np.array([[1, 2]]), np.array([[3, 0]]), np.array([[2, 2]])],
            [np.array([2]), np.array([1]), np.array([1])],
            [1, 0, 2],
            X,
            tech,
        )
    X = rng.integers(0, 2, size=(16, 8))
    weights01 = rng.integers(0, 2, size=(8, 3))
    return inference.bnn_output_predict_batch(
        compiled, weights01, np.array([3, 1, 2]), X, tech
    )


BATCH_CLASSIFIERS = ("svm", "multiclass_svm", "bnn_output")


def test_batched_fused_byte_identity():
    """The compiled plan executed on a batch's packed rows matches the
    scalar batched loop for every ``*_batch`` function on every
    technology."""
    for name in BATCH_CLASSIFIERS:
        for tech in ALL_TECHNOLOGIES:
            key = (name, tech.name)
            compilejit.set_enabled(True)
            before = compilejit.stats_snapshot()["compiled_runs"]
            fused = _run_batch(name, tech)
            assert compilejit.stats_snapshot()["compiled_runs"] == before + 1, key
            compilejit.set_enabled(False)
            scalar = _run_batch(name, tech)
            assert np.array_equal(fused.predictions, scalar.predictions), key
            assert fused.breakdowns == scalar.breakdowns, key
            for b1, b2 in zip(fused.breakdowns, scalar.breakdowns):
                assert_breakdowns_equal(b1, b2, key)


def test_mouse_and_batched_mouse_share_one_plan():
    """One Program loaded into a Mouse and a BatchedMouse of the same
    technology and geometry compiles exactly one plan."""
    from repro.core.accelerator import Mouse
    from repro.core.program import Program
    from repro.perf.batched import BatchedMouse

    compilejit.set_enabled(True)
    compiled = _compiled_classifier("bnn_output")
    program = Program(list(compiled.program.instructions))
    before = compilejit.stats_snapshot()
    mouse = Mouse(MODERN_STT, rows=compiled.rows, cols=1)
    mouse.load(program)
    mouse.run()
    machine = BatchedMouse(MODERN_STT, batch=4, rows=compiled.rows, cols=1)
    machine.load(program)
    machine.run()
    after = compilejit.stats_snapshot()
    assert after["plans_compiled"] == before["plans_compiled"] + 1
    assert after["compiled_runs"] == before["compiled_runs"] + 2
    assert len(vars(program)["_cjit_plans"]) == 1


def test_disasm_cache_is_exercised():
    """Tracing a run decodes through the memoized disassembler.

    Regression guard for the dead-cache path PR 4's report surfaced
    (``disasm.hits: 0``): a telemetry-attached run must both populate
    the cache and replay it (the fetch loop revisits words).
    """
    from repro.isa.assembler import disassemble_word
    from repro.obs.sinks import InMemorySink
    from repro.obs.telemetry import Telemetry

    # An earlier traced run in this process may have decoded these words.
    disassemble_word.cache_clear()
    before = disassemble_word.cache_info()
    workload = WORKLOADS["adder"](MODERN_STT)
    mouse = workload.build()
    mouse.attach_telemetry(Telemetry(InMemorySink()))
    # The plan executor never decodes words; force the traced interpreter.
    mouse.run(compiled=False)
    after = disassemble_word.cache_info()
    assert after.misses > before.misses  # fresh words entered the cache
    assert after.hits > before.hits  # and replayed fetches hit it


def test_compiled_paths_actually_ran():
    """Guard against the whole suite silently testing fallbacks."""
    compilejit.set_enabled(True)
    before = compilejit.stats_snapshot()["compiled_runs"]
    WORKLOADS["adder"](MODERN_STT).build().run()
    after = compilejit.stats_snapshot()["compiled_runs"]
    assert after - before == 1


def _observed_run(wname, engine, observer, compiled):
    """One run of a workload with one per-microstep ``observer``
    attached: ``(breakdown, profiler or None)``.  The fault hook
    injects nothing; the intermittent run's buffer cuts power."""
    compilejit.set_enabled(compiled)
    mouse = WORKLOADS[wname](MODERN_STT).build()
    prof = hub = None
    if observer == "profiler":
        prof = EnergyProfiler()
        mouse.attach_profiler(prof)
    elif observer == "telemetry":
        hub = Telemetry(InMemorySink())
        mouse.attach_telemetry(hub)
    else:
        mouse.controller.attach_faults(
            ControllerFaultHook(FaultPlan(), np.random.default_rng(0))
        )
    if engine == "continuous":
        return mouse.run().breakdown, prof
    buffer = EnergyBuffer(capacitance=1e-9, v_off=0.30, v_on=0.34)
    run = IntermittentRun(
        mouse, HarvestingConfig(ConstantPowerSource(5e-6), buffer),
        telemetry=hub,
    )
    return run.run(), prof


@pytest.mark.parametrize("observer", ("profiler", "telemetry", "fault_hook"))
@pytest.mark.parametrize("engine", ("continuous", "intermittent"))
@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_observed_runs_take_the_interpreter(wname, engine, observer):
    """A run that a profiler, a telemetry hub or a fault hook observes
    takes no plan executor: it counts one fallback run and no compiled
    run, and its breakdown (and profiler tree) is the plans-off run's.
    A profiler's root is the run's breakdown."""
    before = compilejit.stats_snapshot()
    fast, fast_prof = _observed_run(wname, engine, observer, compiled=True)
    after = compilejit.stats_snapshot()
    assert after["fallback_runs"] == before["fallback_runs"] + 1
    assert after["compiled_runs"] == before["compiled_runs"]
    ref, ref_prof = _observed_run(wname, engine, observer, compiled=False)
    assert_breakdowns_equal(fast, ref, (wname, engine, observer))
    if engine == "intermittent":
        assert fast.restarts > 0
    if observer == "profiler":
        assert profiler_state(fast_prof) == profiler_state(ref_prof)
        assert fast_prof.root == fast


@pytest.mark.parametrize("name", sorted(VERIFY_TARGETS))
def test_plan_program_proves_equivalent_to_source(name):
    """Translation validation: the program rebuilt from each verify
    target's plan is symbolically proven equivalent to its source by
    the ``EquivalencePass``, over every input assignment."""
    from repro.compilejit.plan import compile_program
    from repro.verify.passes import EquivalencePass
    from repro.verify.targets import build_verify_target
    from repro.verify.verifier import verify_program

    job = build_verify_target(name)
    cfg = job.config
    plan = compile_program(
        job.program,
        InstructionCostModel(MODERN_STT),
        cfg.n_data_tiles,
        cfg.rows,
        cfg.cols,
    )
    report = verify_program(
        plan.to_program(),
        cfg,
        [
            EquivalencePass(
                job.program,
                constants=job.constants(),
                focus_column=job.spec.focus_column,
            )
        ],
        name=f"{name}.plan",
    )
    assert report.n_errors == 0, report.rules_fired()


def test_plan_to_program_reproduces_row_moves():
    """``CompiledPlan.to_program`` rebuilds every READ / WRITE / PRESET
    with its own tile and row, single-tile and broadcast alike."""
    from repro.compilejit.plan import compile_program
    from repro.core.program import Program
    from repro.isa.instruction import (
        ActivateColumnsInstruction,
        HaltInstruction,
        LogicInstruction,
        MemoryInstruction,
    )

    program = Program(
        [
            ActivateColumnsInstruction(511, (0, 3), bulk=True),
            MemoryInstruction("READ", 0, 2),
            MemoryInstruction("WRITE", 1, 6),
            MemoryInstruction("WRITE", 511, 4),
            MemoryInstruction("PRESET0", 0, 1),
            LogicInstruction("NOT", 0, (2,), 1),
            HaltInstruction(),
        ]
    )
    plan = compile_program(program, InstructionCostModel(MODERN_STT), 2, 16, 8)
    assert plan.to_program().instructions == program.instructions


@pytest.mark.parametrize("case", ("gate", "preset", "broadcast-gate"))
def test_plan_rejects_use_before_activate(case):
    """A direct ``CompiledPlan`` (no lint gate) refuses a gate or preset
    on a tile no ACTIVATE has latched instead of baking in zero active
    columns."""
    from repro.array.bank import BROADCAST_TILE
    from repro.compilejit.plan import CompiledPlan, PlanUnsupported
    from repro.core.program import Program
    from repro.isa.instruction import (
        ActivateColumnsInstruction,
        HaltInstruction,
        LogicInstruction,
        MemoryInstruction,
    )

    used = {
        "gate": [LogicInstruction("NOT", 0, (2,), 1)],
        "preset": [MemoryInstruction("PRESET0", 0, 1)],
        # Tile 0 is latched, tile 1 is not.
        "broadcast-gate": [
            ActivateColumnsInstruction(0, (0, 3), bulk=True),
            LogicInstruction("NOT", BROADCAST_TILE, (2,), 1),
        ],
    }[case]
    program = Program(
        used
        + [ActivateColumnsInstruction(1, (0, 3), bulk=True), HaltInstruction()]
    )
    with pytest.raises(PlanUnsupported, match="before any ACTIVATE"):
        CompiledPlan(program, InstructionCostModel(MODERN_STT), 2, 16, 8)
