"""Differential tests of every compiled-plan op kind on generated programs.

The fixed Table IV workloads exercise only the op kinds their compilers
happen to emit.  Here a seeded generator composes random lint-clean
programs over two data tiles plus the broadcast address: set, bulk,
one-column and all-columns activations, READ/WRITE row moves, and
1-3-input gates with their presets.  Every candidate the plan compiler
accepts runs on all three technologies through each compiled executor
and is compared with its referee:

* ``Mouse.run()`` against ``Mouse.run(compiled=False)``;
* ``BatchedMouse`` against the per-sample serial interpreter;
* the fused intermittent loop against the scalar ``IntermittentRun``,
  at capacitances small enough to force outages, under a constant, a
  sinusoidal and two burst-trace harvesters, one of them with a dead
  tail (only replay-stable plans take the fused path); a subset also
  runs on leaky and ESR buffers and under host checkpointers, whose
  NVImages must match byte for byte.

Breakdowns are compared with float ``==`` and tile states with array
equality, never a tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro import compilejit
from repro.array.bank import BROADCAST_TILE
from repro.compilejit import plan as plan_module
from repro.compilejit.plan import PlanUnsupported, compile_program
from repro.core.accelerator import Mouse
from repro.core.program import Program
from repro.devices import ALL_TECHNOLOGIES
from repro.durability import Checkpointer, CheckpointPolicy, NVImageStore
from repro.durability.image import encode_image
from repro.energy.model import InstructionCostModel
from repro.env import AdaptiveCheckpointer, AdaptivePolicy
from repro.env.trace import TraceSource, rf_burst
from repro.harvest.capacitor import ChargeWindowFailure, EnergyBuffer, buffer_for
from repro.harvest.intermittent import (
    HarvestingConfig,
    IntermittentRun,
    NonTerminationError,
)
from repro.harvest.source import ConstantPowerSource, SolarProfileSource
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.isa.opcodes import Opcode
from repro.logic.library import GATE_LIBRARY
from repro.perf.batched import BatchedMouse

ROWS, COLS, N_TILES = 16, 8, 2
#: Seeds, and compilable programs drawn per seed.  The generator is
#: lint-clean by construction (400 of 400 candidates compiled at seed
#: 123, 256 of them replay-stable); the compile filter stays as a guard.
N_SEEDS = 8
PROGRAMS_PER_SEED = 16
SEEDS = range(N_SEEDS)
BATCH = 4
#: Usable buffer windows, in the program's mean instruction energy:
#: small enough that runs restart, and a gate that outdraws the smaller
#: window exercises the non-termination diagnosis too.
WINDOW_INSTRUCTIONS = (2.5, 6.0)
#: Harvested power as a share of the program's mean instruction power.
HARVEST_SHARE = 0.2
#: Harvesters of the fused-vs-scalar runs (see :func:`_source`).
SOURCES = ("constant", "solar", "rf_burst", "dead_tail")
#: (buffer losses, host checkpointer) pairs run beyond the ideal,
#: unwatched runs (see :func:`_losses` and :func:`_checkpointer`), on
#: the first ``AXIS_PROGRAMS`` replay-stable programs of each seed at
#: the larger window, under every source.  The first of those programs
#: also runs once under the adaptive checkpointer on a leaky buffer.
AXES = (("ideal", "plain"), ("leaky", None), ("esr", None), ("lossy", "plain"))
AXIS_PROGRAMS = 2
#: Leakage at ``v_on`` as a share of the mean harvested power.
LEAK_SHARE = 0.3
#: ESR loss of a mean instruction drawn over one cycle at ``v_on``, as
#: a share of its energy.
ESR_SHARE = 0.2
#: The plain checkpointer's period, in committed instructions.
CHECKPOINT_PERIOD = 3

#: The library gates that have an ISA opcode, by input count.
GATES_BY_ARITY = {
    arity: sorted(op.name for op in Opcode if op.is_logic and op.gate_arity == arity)
    for arity in (1, 2, 3)
}
#: Every op kind the plan builder defines.
ALL_KINDS = {
    value for name, value in vars(plan_module).items() if name.startswith("K_")
}

TECH_IDS = [tech.name for tech in ALL_TECHNOLOGIES]


@pytest.fixture(autouse=True)
def _compiled_enabled():
    was = compilejit.enabled()
    compilejit.set_enabled(True)
    yield
    compilejit.set_enabled(was)


# ----------------------------------------------------------------------
# Program generator
# ----------------------------------------------------------------------


def _covered(tile: int) -> tuple[int, ...]:
    return tuple(range(N_TILES)) if tile == BROADCAST_TILE else (tile,)


def _activate(rng, tile: int) -> ActivateColumnsInstruction:
    """A set, bulk-range, one-column or all-columns activation."""
    shape = int(rng.integers(4))
    if shape == 0:
        cols = rng.choice(COLS, size=int(rng.integers(2, 6)), replace=False)
        return ActivateColumnsInstruction(tile, tuple(int(c) for c in cols))
    if shape == 1:
        first = int(rng.integers(COLS - 1))
        last = int(rng.integers(first + 1, COLS))
        return ActivateColumnsInstruction(tile, (first, last), bulk=True)
    if shape == 2:
        return ActivateColumnsInstruction(tile, (int(rng.integers(COLS)),))
    return ActivateColumnsInstruction(tile, (0, COLS - 1), bulk=True)


def _gate(rng, tile: int) -> list:
    """A preset of the gate's required polarity, then the gate."""
    arity = int(rng.integers(1, 4))
    name = GATES_BY_ARITY[arity][int(rng.integers(len(GATES_BY_ARITY[arity])))]
    parity = int(rng.integers(2))
    inputs = rng.choice(np.arange(parity, ROWS, 2), size=arity, replace=False)
    output = int(rng.choice(np.arange(1 - parity, ROWS, 2)))
    preset = "PRESET1" if GATE_LIBRARY[name].preset else "PRESET0"
    return [
        MemoryInstruction(preset, tile, output),
        LogicInstruction(name, tile, tuple(int(r) for r in inputs), output),
    ]


def _candidate(rng) -> Program:
    """One random program.  In *stable* programs every masked
    instruction targets only the tiles the latest ACTIVATE latched, so
    an outage's single-register re-issue restores the same masks and
    the plan is replay-stable; the others keep earlier latches live."""
    stable = bool(rng.integers(2))
    first = int(rng.choice([0, 1, BROADCAST_TILE]))
    instructions = [_activate(rng, first)]
    live = set(_covered(first))
    if not stable and first != BROADCAST_TILE:
        instructions.append(_activate(rng, 1 - first))
        live = {0, 1}
    for _ in range(int(rng.integers(4, 12))):
        kind = int(rng.integers(5))
        if kind == 0:
            tile = int(rng.choice([0, 1, BROADCAST_TILE]))
            instructions.append(_activate(rng, tile))
            live = set(_covered(tile)) if stable else live | set(_covered(tile))
        elif kind == 1:
            source = int(rng.integers(N_TILES))
            destination = int(rng.choice([0, 1, BROADCAST_TILE]))
            instructions += [
                MemoryInstruction("READ", source, int(rng.integers(ROWS))),
                MemoryInstruction("WRITE", destination, int(rng.integers(ROWS))),
            ]
        else:
            targets = sorted(live)
            if len(live) == N_TILES:
                targets.append(BROADCAST_TILE)
            instructions += _gate(rng, targets[int(rng.integers(len(targets)))])
    instructions.append(HaltInstruction())
    return Program(instructions)


@lru_cache(maxsize=None)
def _programs(seed: int) -> tuple:
    """``PROGRAMS_PER_SEED`` compilable programs and their tile contents."""
    rng = np.random.default_rng(seed)
    cost = InstructionCostModel(ALL_TECHNOLOGIES[0])
    accepted = []
    while len(accepted) < PROGRAMS_PER_SEED:
        program = _candidate(rng)
        try:
            plan = compile_program(program, cost, N_TILES, ROWS, COLS)
        except PlanUnsupported:
            continue
        states = rng.integers(0, 2, size=(BATCH, N_TILES, ROWS, COLS)).astype(bool)
        accepted.append((program, plan, states))
    return tuple(accepted)


def _mouse(tech, program: Program, states: np.ndarray) -> Mouse:
    mouse = Mouse(tech, n_data_tiles=N_TILES, rows=ROWS, cols=COLS)
    for tile, state in zip(mouse.bank.data_tiles, states):
        tile.state[...] = state
    mouse.load(program)
    return mouse


def _assert_tiles_equal(mice, key) -> None:
    fast, ref = mice
    for t1, t2 in zip(fast.bank.data_tiles, ref.bank.data_tiles):
        assert np.array_equal(t1.state, t2.state), key
        assert np.array_equal(t1._active_idx, t2._active_idx), key


# ----------------------------------------------------------------------
# Executors against their referees
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_continuous_plan_matches_interpreter(seed, tech):
    for index, (program, _, states) in enumerate(_programs(seed)):
        key = (seed, tech.name, index)
        before = compilejit.stats_snapshot()["compiled_runs"]
        fast = _mouse(tech, program, states[0])
        fast.run()
        assert compilejit.stats_snapshot()["compiled_runs"] == before + 1, key
        ref = _mouse(tech, program, states[0])
        ref.run(compiled=False)
        assert fast.ledger.breakdown == ref.ledger.breakdown, key
        _assert_tiles_equal((fast, ref), key)
        assert np.array_equal(fast.controller.buffer, ref.controller.buffer), key
        assert fast.controller.pc._values == ref.controller.pc._values, key
        assert (
            fast.controller.activate_register.read()
            == ref.controller.activate_register.read()
        ), key


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_plan_matches_serial_interpreter(seed, tech):
    for index, (program, _, states) in enumerate(_programs(seed)):
        key = (seed, tech.name, index)
        machine = BatchedMouse(
            tech, batch=BATCH, n_data_tiles=N_TILES, rows=ROWS, cols=COLS
        )
        for t, tile in enumerate(machine.tiles):
            tile.state[...] = states[:, t]
        machine.load(program)
        before = compilejit.stats_snapshot()["compiled_runs"]
        ledger = machine.run()
        assert compilejit.stats_snapshot()["compiled_runs"] == before + 1, key
        for sample in range(BATCH):
            ref = _mouse(tech, program, states[sample])
            ref.run(compiled=False)
            assert ledger.breakdown(sample) == ref.ledger.breakdown, (key, sample)
            for tile, ref_tile in zip(machine.tiles, ref.bank.data_tiles):
                assert np.array_equal(tile.state[sample], ref_tile.state), (key, sample)


def _source(kind: str, watts: float, charge_time: float, seed: int):
    """A harvester of mean power near ``watts``.  ``charge_time`` is the
    time ``watts`` takes to charge the empty buffer to ``v_on``; the
    sinusoid and the bursts are timed in it.  The ``dead_tail`` bursts
    harvest one and a half such charges in all and then nothing, so a
    long run ends in a :class:`ChargeWindowFailure`."""
    if kind == "constant":
        return ConstantPowerSource(watts)
    if kind == "solar":
        return SolarProfileSource(watts, depth=0.9, period=charge_time / 3.0)
    dead = kind == "dead_tail"
    return TraceSource(
        rf_burst(
            seed,
            burst_watts=4.0 * watts,
            idle_watts=0.0 if dead else 0.5 * watts,
            burst_duration=charge_time / 8.0,
            burst_period=charge_time / 4.0,
            n_bursts=3 if dead else 64,
        )
    )


def _losses(kind: str, watts: float, per_instruction: float, tech, v_on) -> dict:
    """The ``EnergyBuffer`` loss knobs of a ``kind`` buffer: ``ideal``,
    ``leaky`` (at ``v_on`` it leaks ``LEAK_SHARE`` of the mean harvest),
    ``esr`` (a mean instruction drawn over one cycle at ``v_on`` loses
    ``ESR_SHARE`` of its energy) or ``lossy`` (both)."""
    losses = {}
    if kind in ("leaky", "lossy"):
        losses["leakage_amps"] = LEAK_SHARE * watts / v_on
    if kind in ("esr", "lossy"):
        losses["esr_ohms"] = ESR_SHARE * v_on * v_on * tech.cycle_time / per_instruction
    return losses


class _ImageLog(NVImageStore):
    """An in-memory NVImage store that keeps the bytes of every image
    committed to it, in order."""

    def __init__(self) -> None:
        self.images: list[bytes] = []
        self.fallbacks = 0

    def commit(self, payload: dict) -> int:
        self.images.append(encode_image(payload, len(self.images) + 1))
        return len(self.images)


def _checkpointer(kind):
    """No checkpointer (None), a ``plain`` one imaging every
    ``CHECKPOINT_PERIOD`` commits and at every outage, or an
    ``adaptive`` one, which reads the buffer's headroom at every commit
    to stretch a period of 1 up to 8 or defer a due image."""
    if kind is None:
        return None
    if kind == "plain":
        return Checkpointer(_ImageLog(), CheckpointPolicy(period=CHECKPOINT_PERIOD))
    return AdaptiveCheckpointer(
        Checkpointer(_ImageLog(), CheckpointPolicy(period=1)),
        AdaptivePolicy(max_period=8),
    )


def _intermittent(
    tech, program, states, per_instruction, n_window, kind, seed,
    losses="ideal", checkpointer=None, compiled=True,
):
    """One IntermittentRun on a buffer whose usable window holds
    ``n_window`` mean instructions, on the technology's paper voltage
    window, harvesting about a fixed share of the mean instruction
    power from a ``kind`` source (see :func:`_source`), with the
    ``losses`` of :func:`_losses` and the ``checkpointer`` of
    :func:`_checkpointer`.  A run that stops raising returns the
    error's type, message and attributes."""
    base = buffer_for(tech)
    window = n_window * per_instruction
    capacitance = 2.0 * window / (base.v_on**2 - base.v_off**2)
    watts = HARVEST_SHARE * per_instruction / tech.cycle_time
    buffer = EnergyBuffer(
        capacitance=capacitance, v_off=base.v_off, v_on=base.v_on,
        **_losses(losses, watts, per_instruction, tech, base.v_on),
    )
    source = _source(kind, watts, buffer.energy_to_reach(base.v_on) / watts, seed)
    mouse = _mouse(tech, program, states)
    ckpt = _checkpointer(checkpointer)
    run = IntermittentRun(mouse, HarvestingConfig(source, buffer), checkpointer=ckpt)
    compilejit.set_enabled(compiled)
    try:
        run.run()
        err = None
    except (NonTerminationError, ChargeWindowFailure) as exc:
        err = (type(exc), str(exc), vars(exc))
    finally:
        compilejit.set_enabled(True)
    return mouse, run, mouse.ledger.breakdown, err, ckpt


def _fused_matches_scalar(key, *args, **axes):
    """Run ``_intermittent(*args, **axes)`` fused and on the scalar
    loop and compare everything either leaves behind; returns the fused
    run."""
    before = compilejit.stats_snapshot()
    fast = _intermittent(*args, **axes)
    after = compilejit.stats_snapshot()
    # The fused loop ran: it counts a compiled run on HALT, and a run
    # that raises leaves both counters untouched.
    assert after["fallback_runs"] == before["fallback_runs"], key
    assert after["compiled_runs"] == before["compiled_runs"] + (
        fast[3] is None
    ), key
    ref = _intermittent(*args, compiled=False, **axes)
    (m1, r1, b1, e1, k1), (m2, r2, b2, e2, k2) = fast, ref
    assert e1 == e2, key
    assert b1 == b2, key
    assert r1.time == r2.time and r1.executed == r2.executed, key
    assert r1.config.buffer.voltage == r2.config.buffer.voltage, key
    assert r1.degraded == r2.degraded, key
    _assert_tiles_equal((m1, m2), key)
    c1, c2 = m1.controller, m2.controller
    assert c1.pc._values == c2.pc._values, key
    assert c1.halted == c2.halted and c1.phase == c2.phase, key
    assert c1._dead_replay == c2._dead_replay, key
    if k1 is not None:
        assert k1.store.images == k2.store.images, key
        assert k1.commits == k2.commits, key
    return fast


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_intermittent_matches_scalar_run(seed, tech):
    restarts = dict.fromkeys(SOURCES, 0)
    completed = dict.fromkeys(SOURCES, 0)
    failed = 0
    axis_restarts = dict.fromkeys(AXES, 0)
    images = dict.fromkeys(AXES, 0)
    degraded = 0
    stable = [entry for entry in _programs(seed) if entry[1].replay_stable]
    for index, (program, _, states) in enumerate(stable):
        continuous = _mouse(tech, program, states[0])
        continuous.run(compiled=False)
        b = continuous.ledger.breakdown
        per_instruction = (b.compute_energy + b.backup_energy) / b.instructions
        for n_window in WINDOW_INSTRUCTIONS:
            for kind in SOURCES:
                key = (seed, tech.name, index, n_window, kind)
                args = (tech, program, states[0], per_instruction, n_window)
                _, _, b1, e1, _ = _fused_matches_scalar(key, *args, kind, seed)
                restarts[kind] += b1.restarts
                completed[kind] += e1 is None
                failed += e1 is not None and e1[0] is ChargeWindowFailure
                if index >= AXIS_PROGRAMS or n_window != WINDOW_INSTRUCTIONS[-1]:
                    continue
                for axis in AXES:
                    _, _, b1, _, k1 = _fused_matches_scalar(
                        key + axis, *args, kind, seed,
                        losses=axis[0], checkpointer=axis[1],
                    )
                    axis_restarts[axis] += b1.restarts
                    images[axis] += k1 is not None and len(k1.store.images)
                if index == 0 and kind == "constant":
                    _, run, _, _, _ = _fused_matches_scalar(
                        key + ("leaky", "adaptive"), *args, kind, seed,
                        losses="leaky", checkpointer="adaptive",
                    )
                    degraded = sum(run.degraded.values())
    assert all(restarts.values()) and all(completed.values()), (restarts, completed)
    assert failed > 0
    assert all(axis_restarts.values()), axis_restarts
    assert images[AXES[0]] and images[AXES[-1]], images
    assert degraded > 0


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------


def _kinds(plan) -> set:
    return {op[0] for op in plan.ops}


def test_every_plan_op_kind_is_exercised():
    """Every op kind reaches the continuous and batched executors
    (every accepted program) and the fused intermittent executor (the
    replay-stable ones)."""
    every, stable = set(), set()
    n_stable = 0
    for seed in SEEDS:
        programs = _programs(seed)
        assert len(programs) == PROGRAMS_PER_SEED
        for _, plan, _ in programs:
            every |= _kinds(plan)
            if plan.replay_stable:
                n_stable += 1
                stable |= _kinds(plan)
    assert every == ALL_KINDS, sorted(ALL_KINDS - every)
    assert stable == ALL_KINDS, sorted(ALL_KINDS - stable)
    assert n_stable >= N_SEEDS, n_stable
