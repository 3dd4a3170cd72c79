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
  at capacitances small enough to force outages (only replay-stable
  plans take the fused path).

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
from repro.energy.model import InstructionCostModel
from repro.harvest.capacitor import EnergyBuffer, buffer_for
from repro.harvest.intermittent import (
    HarvestingConfig,
    IntermittentRun,
    NonTerminationError,
)
from repro.harvest.source import ConstantPowerSource
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


def _intermittent(tech, program, states, per_instruction, n_window, compiled):
    """One IntermittentRun on an ideal buffer whose usable window holds
    ``n_window`` mean instructions, on the technology's paper voltage
    window, harvesting a fixed share of the mean instruction power."""
    base = buffer_for(tech)
    window = n_window * per_instruction
    capacitance = 2.0 * window / (base.v_on**2 - base.v_off**2)
    buffer = EnergyBuffer(capacitance=capacitance, v_off=base.v_off, v_on=base.v_on)
    source = ConstantPowerSource(HARVEST_SHARE * per_instruction / tech.cycle_time)
    mouse = _mouse(tech, program, states)
    run = IntermittentRun(mouse, HarvestingConfig(source, buffer))
    compilejit.set_enabled(compiled)
    try:
        breakdown = run.run()
        err = None
    except NonTerminationError as exc:
        breakdown = exc.breakdown
        err = (str(exc), exc.instruction_energy)
    finally:
        compilejit.set_enabled(True)
    return mouse, run, breakdown, err


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_intermittent_matches_scalar_run(seed, tech):
    restarts = completed = 0
    for index, (program, plan, states) in enumerate(_programs(seed)):
        if not plan.replay_stable:
            continue
        continuous = _mouse(tech, program, states[0])
        continuous.run(compiled=False)
        b = continuous.ledger.breakdown
        per_instruction = (b.compute_energy + b.backup_energy) / b.instructions
        for n_window in WINDOW_INSTRUCTIONS:
            key = (seed, tech.name, index, n_window)
            before = compilejit.stats_snapshot()
            fast = _intermittent(
                tech, program, states[0], per_instruction, n_window, True
            )
            after = compilejit.stats_snapshot()
            # The fused loop ran: it counts a compiled run on HALT, and a
            # non-terminating run leaves both counters untouched.
            assert after["fallback_runs"] == before["fallback_runs"], key
            assert after["compiled_runs"] == before["compiled_runs"] + (
                fast[3] is None
            ), key
            ref = _intermittent(
                tech, program, states[0], per_instruction, n_window, False
            )
            (m1, r1, b1, e1), (m2, r2, b2, e2) = fast, ref
            assert e1 == e2, key
            assert b1 == b2, key
            assert r1.time == r2.time and r1.executed == r2.executed, key
            assert r1.config.buffer.voltage == r2.config.buffer.voltage, key
            _assert_tiles_equal((m1, m2), key)
            c1, c2 = m1.controller, m2.controller
            assert c1.pc._values == c2.pc._values, key
            assert c1.halted == c2.halted and c1.phase == c2.phase, key
            assert c1._dead_replay == c2._dead_replay, key
            restarts += b1.restarts
            completed += e1 is None
    assert restarts > 0 and completed > 0, (restarts, completed)


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
