"""Differential tests of every compiled-plan op kind on generated programs.

The fixed Table IV workloads exercise only the op kinds their compilers
happen to emit.  Here a seeded generator composes random lint-clean
programs over two data tiles plus the broadcast address: set, bulk,
one-column and all-columns activations, READ/WRITE row moves, and
1-3-input gates with their presets.  Every candidate the plan compiler
accepts runs on all three technologies through each compiled executor
and is compared with its referee:

* ``Mouse.run()`` against ``Mouse.run(compiled=False)``, on the whole
  machine a checkpoint would capture, half of the runs starting from
  a non-empty transfer buffer;
* ``BatchedMouse`` of 4 samples and of 1 against the per-sample serial
  interpreter, and of 2 and 65 samples on a bank of more than 128
  columns, where the logic energies sum past NumPy's pairwise blocks;
* the fused intermittent loop against the scalar ``IntermittentRun``,
  at capacitances small enough to force outages, under a constant, a
  sinusoidal and two burst-trace harvesters, one of them with a dead
  tail (only replay-stable plans take the fused path); a subset also
  runs on leaky and ESR buffers and under host checkpointers, whose
  NVImages must match byte for byte.

A second generator draws programs for a wider bank whose active sets
are ranges of 7 or 8 columns or sets of 5 with a gap (an ACTIVATE
names at most 5 columns), so gates and presets sit on both sides of
the per-cell limit (``plan.CELL_COLUMNS``).  Spies on the
executor's gate and preset helpers show which form ran where: per cell
in the fused intermittent executor, NumPy there on sets of 8 or more
columns and in broadcast gates, and neither in a continuous run or a
batch, whose ops all run on packed rows.

Breakdowns are compared with float ``==`` and tile states with array
equality, never a tolerance.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from repro import compilejit
from repro.array.bank import BROADCAST_TILE
from repro.compilejit import exec as exec_module
from repro.compilejit import plan as plan_module
from repro.compilejit.plan import (
    CELL_COLUMNS,
    K_L1P,
    K_L1S,
    K_LN,
    K_PRESET,
    K_READ,
    K_WRITE,
    PlanUnsupported,
    compile_program,
)
from repro.core.accelerator import Mouse
from repro.core.program import Program
from repro.devices import ALL_TECHNOLOGIES
from repro.durability import Checkpointer, CheckpointPolicy, NVImageStore
from repro.durability.image import encode_image
from repro.durability.state import capture_machine
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
from repro.isa.encoding import MAX_ACTIVATE_COLUMNS
from repro.isa.opcodes import Opcode
from repro.logic.library import GATE_LIBRARY
from repro.perf.batched import BatchedMouse

ROWS, COLS, N_TILES = 16, 8, 2
#: The bank of the boundary programs: wide enough to place ranges of
#: CELL_COLUMNS and CELL_COLUMNS + 1 columns at several offsets.
WIDE_COLS = 12
#: Boundary programs drawn per seed.
WIDE_PROGRAMS_PER_SEED = 8
#: The bank of the packed-batch programs: wider than 128 columns, so an
#: all-columns gate sums its energies past NumPy's 128-value pairwise
#: block, and its packed rows hold more than 64 bits at any batch.
WIDEST_COLS = 130
#: Packed-batch programs drawn, and the batch sizes they run at.
WIDEST_PROGRAMS = 6
PACKED_BATCHES = (2, 65)
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


def _boundary_activate(rng, tile: int) -> ActivateColumnsInstruction:
    """An activation on the wide bank: a bulk range of CELL_COLUMNS or
    CELL_COLUMNS + 1 columns, or a set of MAX_ACTIVATE_COLUMNS columns
    with a gap.  An ACTIVATE names at most MAX_ACTIVATE_COLUMNS
    addresses, fewer than CELL_COLUMNS, so every non-contiguous set has
    a per-cell form and only ranges reach the limit."""
    shape = int(rng.integers(3))
    if shape < 2:
        n = CELL_COLUMNS + shape
        first = int(rng.integers(WIDE_COLS - n + 1))
        return ActivateColumnsInstruction(tile, (first, first + n - 1), bulk=True)
    n = MAX_ACTIVATE_COLUMNS
    first = int(rng.integers(WIDE_COLS - n))
    gap = first + int(rng.integers(1, n))
    cols = tuple(c for c in range(first, first + n + 1) if c != gap)
    return ActivateColumnsInstruction(tile, cols)


def _widest_activate(rng, tile: int) -> ActivateColumnsInstruction:
    """A bulk activation on the widest bank: all its columns, or a
    range of 8, 128 or 129 columns (the shortest sum NumPy unrolls in
    blocks of 8, the longest it sums in one block, and the shortest it
    splits in two)."""
    n = int(rng.choice([WIDEST_COLS, WIDEST_COLS, 8, 128, 129]))
    first = int(rng.integers(WIDEST_COLS - n + 1))
    return ActivateColumnsInstruction(tile, (first, first + n - 1), bulk=True)


def _candidate(rng, activate=_activate) -> Program:
    """One random program.  In *stable* programs every masked
    instruction targets only the tiles the latest ACTIVATE latched, so
    an outage's single-register re-issue restores the same masks and
    the plan is replay-stable; the others keep earlier latches live."""
    stable = bool(rng.integers(2))
    first = int(rng.choice([0, 1, BROADCAST_TILE]))
    instructions = [activate(rng, first)]
    live = set(_covered(first))
    if not stable and first != BROADCAST_TILE:
        instructions.append(activate(rng, 1 - first))
        live = {0, 1}
    for _ in range(int(rng.integers(4, 12))):
        kind = int(rng.integers(5))
        if kind == 0:
            tile = int(rng.choice([0, 1, BROADCAST_TILE]))
            instructions.append(activate(rng, tile))
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
    return _draw(seed, PROGRAMS_PER_SEED, COLS, _activate)


@lru_cache(maxsize=None)
def _wide_programs(seed: int) -> tuple:
    """``WIDE_PROGRAMS_PER_SEED`` compilable boundary programs for the
    ``WIDE_COLS`` bank and their tile contents."""
    return _draw(seed, WIDE_PROGRAMS_PER_SEED, WIDE_COLS, _boundary_activate)


@lru_cache(maxsize=None)
def _widest_programs() -> tuple:
    """``WIDEST_PROGRAMS`` compilable programs for the ``WIDEST_COLS``
    bank and the tile contents of ``max(PACKED_BATCHES)`` samples."""
    return _draw(
        0, WIDEST_PROGRAMS, WIDEST_COLS, _widest_activate, max(PACKED_BATCHES)
    )


def _draw(seed: int, count: int, cols: int, activate, samples=BATCH) -> tuple:
    rng = np.random.default_rng(seed)
    cost = InstructionCostModel(ALL_TECHNOLOGIES[0])
    accepted = []
    while len(accepted) < count:
        program = _candidate(rng, activate)
        try:
            plan = compile_program(program, cost, N_TILES, ROWS, cols)
        except PlanUnsupported:
            continue
        states = rng.integers(0, 2, size=(samples, N_TILES, ROWS, cols)).astype(bool)
        accepted.append((program, plan, states))
    return tuple(accepted)


def _mouse(tech, program: Program, states: np.ndarray, buffer=None) -> Mouse:
    mouse = Mouse(
        tech, n_data_tiles=N_TILES, rows=ROWS, cols=states.shape[-1]
    )
    for tile, state in zip(mouse.bank.data_tiles, states):
        tile.state[...] = state
    if buffer is not None:
        mouse.controller.buffer[...] = buffer
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


def _continuous_matches(key0, tech, entries) -> None:
    """``Mouse.run()`` of each program leaves the machine
    ``run(compiled=False)`` leaves: the whole :func:`capture_machine`
    payload (tile states and latches, both copies, the parity and the
    staged flag of every register, the transfer buffer, the
    controller's flags and the ledger) and the halted word.  Every
    other run starts with a transfer buffer of seeded random bits, so a
    WRITE before any READ stores them."""
    for index, (program, _, states) in enumerate(entries):
        key = key0 + (index,)
        buffer = None
        if index % 2:
            rng = np.random.default_rng(index)
            buffer = rng.integers(0, 2, size=states.shape[-1]).astype(bool)
        before = compilejit.stats_snapshot()["compiled_runs"]
        fast = _mouse(tech, program, states[0], buffer)
        fast.run()
        assert compilejit.stats_snapshot()["compiled_runs"] == before + 1, key
        ref = _mouse(tech, program, states[0], buffer)
        ref.run(compiled=False)
        assert capture_machine(fast) == capture_machine(ref), key
        _assert_tiles_equal((fast, ref), key)
        assert fast.controller._word == ref.controller._word, key
        assert fast.controller._instr == ref.controller._instr, key


def _batched_matches(key0, tech, entries, batch: int) -> None:
    """A ``BatchedMouse`` of the first ``batch`` tile contents of each
    program equals the serial interpreter on every sample."""
    for index, (program, _, states) in enumerate(entries):
        key = key0 + (index, batch)
        cols = states.shape[-1]
        machine = BatchedMouse(
            tech, batch=batch, n_data_tiles=N_TILES, rows=ROWS, cols=cols
        )
        for t, tile in enumerate(machine.tiles):
            tile.state[...] = states[:batch, t]
        machine.load(program)
        before = compilejit.stats_snapshot()["compiled_runs"]
        ledger = machine.run()
        assert compilejit.stats_snapshot()["compiled_runs"] == before + 1, key
        for sample in range(batch):
            ref = _mouse(tech, program, states[sample])
            ref.run(compiled=False)
            assert ledger.breakdown(sample) == ref.ledger.breakdown, (key, sample)
            for tile, ref_tile in zip(machine.tiles, ref.bank.data_tiles):
                assert np.array_equal(tile.state[sample], ref_tile.state), (key, sample)


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_continuous_plan_matches_interpreter(seed, tech):
    _continuous_matches((seed, tech.name), tech, _programs(seed))


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_plan_matches_serial_interpreter(seed, tech):
    _batched_matches((seed, tech.name), tech, _programs(seed), BATCH)


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_of_one_matches_serial_interpreter(seed, tech):
    """A batch of one sample runs on packed rows too."""
    _batched_matches((seed, tech.name), tech, _programs(seed), 1)


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_boundary_programs_match_interpreter(seed, tech):
    """Active sets of CELL_COLUMNS and CELL_COLUMNS + 1 columns,
    contiguous or not, continuous and in batches of 1 and 4."""
    key0 = (seed, tech.name, "wide")
    entries = _wide_programs(seed)
    _continuous_matches(key0, tech, entries)
    for batch in (1, BATCH):
        _batched_matches(key0, tech, entries, batch)


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
def test_packed_batches_past_128_columns_match_interpreter(tech):
    """Batches of 2 and 65 samples on a 130-column bank, with
    all-columns ACTIVATEs, broadcast gates, READ and WRITE: each
    sample's energies are gathered from the log and summed over 8, 128,
    129 and 130 columns as ``Tile.logic_op`` sums them."""
    entries = _widest_programs()
    kinds = {op[0] for _, plan, _ in entries for op in plan.ops}
    assert {K_LN, K_READ, K_WRITE} <= kinds, kinds
    widths = {_width(gate) for _, plan, _ in entries for gate in _all_gates(plan)}
    assert {8, 128, 129, WIDEST_COLS} <= widths, widths
    for batch in PACKED_BATCHES:
        _batched_matches((tech.name, "widest"), tech, entries, batch)


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
def test_a_range_and_a_set_with_the_same_ends_gather_their_own_columns(tech):
    """Columns 3..4 and the set {3, 5} under one gate kernel: two
    energy groups, each summing its own columns."""
    program = Program([
        ActivateColumnsInstruction(0, (3, 4), bulk=True),
        MemoryInstruction("PRESET0", 0, 1),
        LogicInstruction("NAND", 0, (0, 2), 1),
        ActivateColumnsInstruction(0, (3, 5)),
        MemoryInstruction("PRESET0", 0, 3),
        LogicInstruction("NAND", 0, (0, 2), 3),
        HaltInstruction(),
    ])
    cost = InstructionCostModel(tech)
    plan = compile_program(program, cost, N_TILES, ROWS, COLS)
    assert [op[0] for op in plan.ops if op[0] >= K_L1S] == [K_L1S, K_L1P]
    assert len(plan.packed().groups) == 2
    rng = np.random.default_rng(7)
    states = rng.integers(0, 2, size=(BATCH, N_TILES, ROWS, COLS)).astype(bool)
    _batched_matches((tech.name, "range-and-set"), tech, [(program, plan, states)], BATCH)


def test_packed_batches_in_one_charge_steps_match_interpreter(monkeypatch):
    """The logic-energy pass and the compute-energy fold, stepped one
    gate and one charge at a time, give the bits of one step each."""
    monkeypatch.setattr(exec_module, "_STEP_BYTES", 1)
    tech = ALL_TECHNOLOGIES[0]
    _batched_matches((tech.name, "steps"), tech, _programs(0), BATCH)
    _batched_matches((tech.name, "steps"), tech, _widest_programs(), 2)


@pytest.mark.parametrize("step_bytes", (exec_module._STEP_BYTES, 64))
@pytest.mark.parametrize("batch", (1, 2, 3, 64))
def test_compute_fold_adds_one_charge_at_a_time(batch, step_bytes, monkeypatch):
    """Each sample's compute-energy fold equals the serial ledger's
    ``+=`` chain.  ``np.add.reduce`` over the first axis of a block of 2
    or more samples adds it row by row; over one sample it would sum
    pairwise, which these values, spread over 25 orders of magnitude,
    tell apart, so a batch of one folds on its own.  A NumPy that
    changes either order fails here."""
    monkeypatch.setattr(exec_module, "_STEP_BYTES", step_bytes)
    rng = np.random.default_rng(batch)
    n = 3000
    chain = rng.random(n) * 10.0 ** rng.integers(-20, 5, n)
    logic_at = np.sort(rng.choice(n, size=n // 3, replace=False))
    energies = rng.random((logic_at.size, batch))
    energies *= 10.0 ** rng.integers(-20, 5, energies.shape)
    starts = rng.random(batch)
    got = exec_module._fold_compute(starts, chain, logic_at, energies)
    pairwise = 0
    for sample in range(batch):
        charges = chain.copy()
        charges[logic_at] = energies[:, sample]
        total = float(starts[sample])
        for value in charges.tolist():
            total += value
        assert got[sample] == total, sample
        pairwise += float(np.concatenate(([starts[sample]], charges)).sum()) != total
    assert pairwise > 0


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
    # Both PC copies, the parity bit and the staged flag.
    assert dataclasses.asdict(c1.pc) == dataclasses.asdict(c2.pc), key
    assert c1.halted == c2.halted and c1.phase == c2.phase, key
    assert c1.powered == c2.powered, key
    assert c1._word == c2._word and c1._instr == c2._instr, key
    assert c1._dead_replay == c2._dead_replay, key
    assert c1._executed_uncommitted == c2._executed_uncommitted, key
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
        per_instruction = _per_instruction(tech, program, states[0])
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


def _per_instruction(tech, program, states) -> float:
    """Mean instruction energy of one interpreted run."""
    continuous = _mouse(tech, program, states)
    continuous.run(compiled=False)
    b = continuous.ledger.breakdown
    return (b.compute_energy + b.backup_energy) / b.instructions


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_boundary_fused_intermittent_matches_scalar_run(seed, tech):
    """The boundary programs' fused runs under every window and source."""
    restarts = 0
    for index, (program, plan, states) in enumerate(_wide_programs(seed)):
        if not plan.replay_stable:
            continue
        per_instruction = _per_instruction(tech, program, states[0])
        for n_window in WINDOW_INSTRUCTIONS:
            for kind in SOURCES:
                key = (seed, tech.name, "wide", index, n_window, kind)
                args = (tech, program, states[0], per_instruction, n_window)
                restarts += _fused_matches_scalar(key, *args, kind, seed)[2].restarts
    assert restarts > 0


# ----------------------------------------------------------------------
# Per-cell and NumPy forms
# ----------------------------------------------------------------------


def test_numpy_sums_fewer_than_eight_float64_left_to_right():
    """A per-cell gate energy equals the NumPy form's (and
    ``Tile.logic_op``'s) only while NumPy sums up to CELL_COLUMNS
    float64 values left to right from 0.0; from 8 values on it sums
    pairwise.  A NumPy that changes either order fails here, naming
    the cause."""
    rng = np.random.default_rng(0)
    for n in range(1, CELL_COLUMNS + 1):
        for _ in range(2000):
            vals = rng.random(n) * 10.0 ** rng.integers(-20, 5, n)
            total = 0.0
            for v in vals.tolist():
                total += v
            assert float(vals.sum(axis=-1)) == total, (n, vals.tolist())
    wide = np.array([1.0] + [1e-16] * CELL_COLUMNS)
    total = 0.0
    for v in wide.tolist():
        total += v
    assert total == 1.0
    assert float(wide.sum(axis=-1)) != total


def _width(gate) -> int:
    sel = gate[6]
    return sel.stop - sel.start if gate[0] == K_L1S else len(sel)


def _all_gates(plan) -> list:
    """Every gate ``plan`` applies, in order: single-tile ops and the
    gates of each broadcast op."""
    gates = []
    for op in plan.ops:
        if op[0] in (K_L1S, K_L1P):
            gates.append(op)
        elif op[0] == K_LN:
            gates.extend(op[3])
    return gates


def _gates(plan):
    """``(per-cell, NumPy)`` gates one single-sample pass of ``plan``
    applies, in order: single-tile gates with a per-cell form, and the
    others with every gate of a broadcast op."""
    gates = _all_gates(plan)
    return (
        [op for op in gates if op[8] is not None],
        [op for op in gates if op[8] is None],
    )


def _preset_sets(plan) -> list:
    """The column tuples of the preset sets with a per-cell form."""
    return [
        cols
        for op in plan.ops
        if op[0] == K_PRESET
        for _, _, _, cols, _ in op[2]
        if cols is not None
    ]


class _FormSpy:
    """Records every gate and preset set the executors apply, by form:
    the ops given to ``_cell_gate`` and to the NumPy ``_slice_gate`` /
    ``_index_gate``, the columns given to ``_cell_preset``, and the
    number of ops each call of the packed loop ``_run_packed`` got."""

    def __init__(self, monkeypatch) -> None:
        self.cell: list = []
        self.numpy: list = []
        self.presets: list = []
        self.packed: list = []
        for name, log in (
            ("_cell_gate", self.cell),
            ("_slice_gate", self.numpy),
            ("_index_gate", self.numpy),
        ):
            real = getattr(exec_module, name)

            def spy(op, *args, _real=real, _log=log):
                _log.append(op)
                return _real(op, *args)

            monkeypatch.setattr(exec_module, name, spy)
        real_preset = exec_module._cell_preset

        def preset(mv, base, cols, value):
            self.presets.append(cols)
            return real_preset(mv, base, cols, value)

        monkeypatch.setattr(exec_module, "_cell_preset", preset)
        real_packed = exec_module._run_packed

        def packed(ops, *args):
            self.packed.append(len(ops))
            return real_packed(ops, *args)

        monkeypatch.setattr(exec_module, "_run_packed", packed)

    def clear(self) -> None:
        self.cell.clear()
        self.numpy.clear()
        self.presets.clear()
        self.packed.clear()


def _ids(ops) -> list:
    """Each gate as ``(kind, slot, tile, output row)``: equal across the
    plans one program compiles to, one per cost model."""
    return [(op[0], op[1], op[3], op[5]) for op in ops]


@pytest.mark.parametrize("seed", SEEDS)
def test_forms_per_executor(seed, monkeypatch):
    """Per cell in the fused intermittent executor, and NumPy there on
    single-tile sets of more than CELL_COLUMNS columns and in broadcast
    gates; in continuous runs and in batches of 1 and 4, no
    ``apply_op`` form at all: one pass of the packed loop over every
    op."""
    tech = ALL_TECHNOLOGIES[0]
    spy = _FormSpy(monkeypatch)
    wide_numpy = 0
    for entries in (_programs(seed), _wide_programs(seed)):
        for program, plan, states in entries:
            cell, numpy_ = _gates(plan)
            presets = _preset_sets(plan)
            assert all(_width(op) <= CELL_COLUMNS for op in cell)
            assert all(
                op[1] is None or _width(op) > CELL_COLUMNS for op in numpy_
            )
            assert all(len(cols) <= CELL_COLUMNS for cols in presets)
            wide_numpy += sum(op[1] is not None for op in numpy_)

            spy.clear()
            _mouse(tech, program, states[0]).run()
            assert spy.cell == [] and spy.numpy == [] and spy.presets == []
            assert spy.packed == [len(plan.ops)]

            for batch in (1, BATCH):
                spy.clear()
                machine = BatchedMouse(
                    tech, batch=batch, n_data_tiles=N_TILES, rows=ROWS,
                    cols=states.shape[-1],
                )
                for t, tile in enumerate(machine.tiles):
                    tile.state[...] = states[:batch, t]
                machine.load(program)
                machine.run()
                assert spy.cell == [] and spy.numpy == [] and spy.presets == []
                assert spy.packed == [len(plan.ops)]

            if not plan.replay_stable:
                continue
            per_instruction = _per_instruction(tech, program, states[0])
            spy.clear()
            _, run, b, err, _ = _intermittent(
                tech, program, states[0], per_instruction,
                WINDOW_INSTRUCTIONS[-1], "constant", seed,
            )
            # Replays after an outage apply an op again, in its form.
            assert set(_ids(spy.cell)) == set(_ids(cell)), err
            assert set(_ids(spy.numpy)) == set(_ids(numpy_)), err
            assert set(spy.presets) == set(presets), err
    assert wide_numpy > 0


def test_flat_views_are_released_when_a_run_returns_or_raises(monkeypatch):
    """The fused loop's flat views never outlive its run, whether it
    returns or raises, and a continuous run, on packed rows, makes none;
    a state that is not C-contiguous gets none."""
    tech = ALL_TECHNOLOGIES[0]
    made = []
    real_views = exec_module.flat_views

    def views(states):
        flat = real_views(states)
        made.append(flat)
        return flat

    monkeypatch.setattr(exec_module, "flat_views", views)
    program, plan, states = next(
        entry for entry in _programs(0)
        if entry[1].replay_stable and _gates(entry[1])[0]
    )

    def released() -> bool:
        for flat in made:
            for mv in flat:
                with pytest.raises(ValueError):
                    mv.tobytes()
        return bool(made)

    per_instruction = _per_instruction(tech, program, states[0])

    def run():
        _intermittent(
            tech, program, states[0], per_instruction,
            WINDOW_INSTRUCTIONS[-1], "constant", 0,
        )

    made.clear()
    _mouse(tech, program, states[0]).run()
    assert made == []
    run()
    assert released()

    def broken(op, mv):
        raise RuntimeError("gate failed")

    monkeypatch.setattr(exec_module, "_cell_gate", broken)
    made.clear()
    with pytest.raises(RuntimeError, match="gate failed"):
        run()
    assert released()
    assert real_views([np.zeros((ROWS, 2 * COLS), dtype=bool)[:, ::2]]) is None


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------

#: Every (op kind, form) pair a plan can hold; a preset counts once per
#: tile set.  A single-tile K_L1P always has a per-cell form: its set is
#: non-contiguous, and an ACTIVATE names at most MAX_ACTIVATE_COLUMNS
#: columns.
ALL_FORMS = {(kind, "numpy") for kind in ALL_KINDS - {K_L1P}} | {
    (K_L1S, "cell"),
    (K_L1P, "cell"),
    (K_PRESET, "cell"),
}


def _forms(plan) -> set:
    forms = set()
    for op in plan.ops:
        if op[0] in (K_L1S, K_L1P):
            forms.add((op[0], "numpy" if op[8] is None else "cell"))
        elif op[0] == K_PRESET:
            forms |= {
                (K_PRESET, "numpy" if cols is None else "cell")
                for _, _, _, cols, _ in op[2]
            }
        else:
            forms.add((op[0], "numpy"))
    return forms


def test_every_plan_op_kind_is_exercised():
    """Every op kind, in each form it has, reaches the continuous and
    batched executors (every accepted program) and the fused
    intermittent executor (the replay-stable ones)."""
    assert MAX_ACTIVATE_COLUMNS < CELL_COLUMNS
    every, stable = set(), set()
    n_stable = 0
    for seed in SEEDS:
        programs = _programs(seed)
        assert len(programs) == PROGRAMS_PER_SEED
        for _, plan, _ in programs + _wide_programs(seed):
            every |= _forms(plan)
            if plan.replay_stable:
                n_stable += 1
                stable |= _forms(plan)
    assert every == ALL_FORMS, sorted(ALL_FORMS ^ every)
    assert stable == ALL_FORMS, sorted(ALL_FORMS ^ stable)
    assert {kind for kind, _ in every} == ALL_KINDS
    assert n_stable >= N_SEEDS, n_stable


def test_every_packed_op_code_is_exercised():
    """Every packed-row op code, and both targets and thresholds of the
    unrolled gates, reach the batched executor."""
    codes = {
        value for name, value in vars(plan_module).items() if name.startswith("P_")
    }
    seen, unrolled = set(), set()
    for seed in SEEDS:
        for _, plan, _ in _programs(seed) + _wide_programs(seed):
            for op in plan.packed().ops:
                seen.add(op[0])
                if op[0] == plan_module.P_G1:
                    unrolled.add((1, op[-1]))
                elif op[0] == plan_module.P_G2:
                    unrolled.add((2, op[-2], op[-1]))
    assert seen == codes, sorted(codes - seen)
    assert unrolled == {(1, False), (1, True)} | {
        (2, both, target) for both in (False, True) for target in (False, True)
    }
