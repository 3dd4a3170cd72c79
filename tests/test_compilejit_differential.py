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
names at most 5 columns), so gate energies are summed on both sides
of NumPy's 8-value pairwise block.  A spy on the packed-row loop shows
that every executor runs the plan's ops in passes, never per op: one
pass in a continuous run, a batch and a fused run without a
checkpointer, and a checkpointed fused run applies each op to the live
tiles at most once more, when a hook settles them.  Hooks that settle
and snapshot the arrays at every commit and outage see the scalar
loop's arrays, on fresh runs and on runs resumed from an image.  The
plan table itself is checked too: each logic op's decoded gates against
the source instruction and the interpreter's latches at its pc, the
backup and latency totals against the serial chains, and every array
of one plan unchanged and non-writeable after every executor ran it.

Breakdowns are compared with float ``==`` and tile states with array
equality, never a tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

from repro import compilejit
from repro.array.bank import BROADCAST_TILE
from repro.compilejit import exec as exec_module
from repro.compilejit import plan as plan_module
from repro.compilejit.plan import (
    P_GATES,
    P_READ,
    P_WRITE,
    CompiledPlan,
    PlanUnsupported,
    compile_program,
)
from repro.core.accelerator import Mouse
from repro.core.program import Program
from repro.devices import ALL_TECHNOLOGIES
from repro.durability import Checkpointer, CheckpointPolicy, NVImageStore
from repro.durability.checkpoint import capture_intermittent, resume_intermittent
from repro.durability.image import decode_image, encode_image
from repro.durability.state import capture_machine, restore_machine
from repro.energy.metrics import Category
from repro.energy.model import InstructionCostModel
from repro.env import AdaptiveCheckpointer, AdaptivePolicy
from repro.env.trace import TraceSource, rf_burst
from repro.faults import FaultCampaign, FaultPlan, WORKLOADS
from repro.faults.campaign import Workload
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
from repro.obs.prof import EnergyProfiler
from repro.perf.batched import BatchedMouse
from repro.perf.kernels import electrical_kernel

ROWS, COLS, N_TILES = 16, 8, 2
#: The longest sum NumPy adds left to right: it sums fewer than 8
#: float64 values from 0.0 in order and 8 or more pairwise.
SHORT_SUM = 7
#: The bank of the boundary programs: wide enough to place ranges of
#: SHORT_SUM and SHORT_SUM + 1 columns at several offsets.
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
#: Every packed-row op code the plan builder defines.
ALL_CODES = {
    value for name, value in vars(plan_module).items() if name.startswith("P_")
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
    """An activation on the wide bank: a bulk range of SHORT_SUM or
    SHORT_SUM + 1 columns, or a set of MAX_ACTIVATE_COLUMNS columns
    with a gap.  An ACTIVATE names at most MAX_ACTIVATE_COLUMNS
    addresses, fewer than SHORT_SUM, so only ranges reach the pairwise
    block."""
    shape = int(rng.integers(3))
    if shape < 2:
        n = SHORT_SUM + shape
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
        assert np.array_equal(t1.active_columns, t2.active_columns), key
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
    """Active sets of SHORT_SUM and SHORT_SUM + 1 columns, contiguous
    or not, continuous and in batches of 1 and 4."""
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
    assert {P_READ, P_WRITE} <= kinds, kinds
    assert any(
        op[0] == P_GATES and len(op[1]) > 1
        for _, plan, _ in entries for op in plan.ops
    )
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
    masks = [gate[3] for pc in plan.logic_pcs for gate in plan.gates(pc)]
    assert masks == [0b11000, 0b101000]
    sels = [group[1] for group in plan.groups]
    assert sels[0] == slice(3, 5) and sels[1].tolist() == [3, 5]
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
    ``CHECKPOINT_PERIOD`` commits and at every outage, an ``adaptive``
    one, which reads the buffer's headroom at every commit to stretch a
    period of 1 up to 8 or defer a due image, or ``snapshots``
    (:class:`_Snapshots`)."""
    if kind is None:
        return None
    if kind == "snapshots":
        return _Snapshots()
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
    _assert_runs_equal(key, fast, _intermittent(*args, compiled=False, **axes))
    return fast


def _assert_runs_equal(key, fast, ref) -> None:
    """Two :func:`_intermittent` results leave the same run, ledger,
    buffer, machine and hook records behind."""
    (m1, r1, b1, e1, k1), (m2, r2, b2, e2, k2) = fast, ref
    assert e1 == e2, key
    assert b1 == b2, key
    assert r1.time == r2.time and r1.executed == r2.executed, key
    assert r1.config.buffer.voltage == r2.config.buffer.voltage, key
    assert r1.degraded == r2.degraded, key
    _assert_tiles_equal((m1, m2), key)
    c1, c2 = m1.controller, m2.controller
    assert np.array_equal(c1.buffer, c2.buffer), key
    # Both copies, the parity bit and the staged flag of the PC and of
    # the ACTIVATE register.
    assert dataclasses.asdict(c1.pc) == dataclasses.asdict(c2.pc), key
    assert dataclasses.asdict(c1.activate_register) == dataclasses.asdict(
        c2.activate_register
    ), key
    assert c1.halted == c2.halted and c1.phase == c2.phase, key
    assert c1.powered == c2.powered, key
    assert c1._word == c2._word and c1._instr == c2._instr, key
    assert c1._dead_replay == c2._dead_replay, key
    assert c1._executed_uncommitted == c2._executed_uncommitted, key
    if isinstance(k1, _Snapshots):
        assert k1.snapshots == k2.snapshots, key
        assert k1.images == k2.images, key
    elif k1 is not None:
        assert k1.store.images == k2.store.images, key
        assert k1.commits == k2.commits, key


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
# Passes, settling hooks and resumed runs
# ----------------------------------------------------------------------


def _width(gate) -> int:
    """How many active columns a :meth:`CompiledPlan.gates` entry has."""
    return bin(gate[3]).count("1")


def _all_gates(plan) -> list:
    """Every gate ``plan`` applies, in order: single-tile ops and the
    gates of each broadcast op."""
    return [gate for pc in plan.logic_pcs for gate in plan.gates(pc)]


class _PassSpy:
    """Records how many ops each call of the packed-row loop
    ``_run_packed`` got."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[int] = []
        real = exec_module._run_packed

        def spy(ops, *args):
            self.calls.append(len(ops))
            return real(ops, *args)

        monkeypatch.setattr(exec_module, "_run_packed", spy)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_executor_runs_its_ops_in_passes(seed, monkeypatch):
    """A continuous run, a batch of 1 or 4 and a fused intermittent run
    without a checkpointer each call the packed-row loop once, on every
    op, and never per op, however often power fails.  A checkpointed
    fused run (or one that raises) adds only the catch-ups the run asks
    for, which apply each op but HALT to the live tiles at most once."""
    tech = ALL_TECHNOLOGIES[0]
    spy = _PassSpy(monkeypatch)
    restarts = catch_ups = 0
    for program, plan, states in _programs(seed) + _wide_programs(seed):
        n = len(plan.ops)
        spy.calls.clear()
        _mouse(tech, program, states[0]).run()
        assert spy.calls == [n]
        for batch in (1, BATCH):
            machine = BatchedMouse(
                tech, batch=batch, n_data_tiles=N_TILES, rows=ROWS,
                cols=states.shape[-1],
            )
            for t, tile in enumerate(machine.tiles):
                tile.state[...] = states[:batch, t]
            machine.load(program)
            spy.calls.clear()
            machine.run()
            assert spy.calls == [n]
        if not plan.replay_stable:
            continue
        per_instruction = _per_instruction(tech, program, states[0])
        for checkpointer in (None, "plain"):
            spy.calls.clear()
            _, _, b, err, _ = _intermittent(
                tech, program, states[0], per_instruction,
                WINDOW_INSTRUCTIONS[-1], "constant", seed,
                checkpointer=checkpointer,
            )
            assert spy.calls[0] == n, err
            assert sum(spy.calls[1:]) <= n - 1, spy.calls
            if checkpointer is None and err is None:
                assert spy.calls == [n]
                restarts += b.restarts
            catch_ups += len(spy.calls) - 1
    assert restarts > 0 and catch_ups > 0


class _Snapshots:
    """A hook that settles the run, then snapshots its tiles' states and
    latches, its transfer buffer and the controller's lost-work flag at
    every commit and outage, and keeps the image a checkpointer would
    write there."""

    def __init__(self) -> None:
        self.snapshots: list[tuple] = []
        self.images: list[dict] = []

    def _snap(self, run, phase: str) -> None:
        run.settle()
        mouse = run.mouse
        tiles = mouse.bank.data_tiles
        self.snapshots.append((
            phase,
            run.executed,
            tuple(tile.state.tobytes() for tile in tiles),
            tuple(tile.active_columns.tobytes() for tile in tiles),
            mouse.controller.buffer.tobytes(),
            mouse.controller._lost_work,
        ))
        payload = capture_intermittent(run, phase)
        self.images.append(decode_image(encode_image(payload, 1))[0])

    def on_commit(self, run) -> None:
        self._snap(run, "powered")

    def on_outage(self, run) -> None:
        self._snap(run, "outage")


class _OneImage(NVImageStore):
    """A store that holds one image payload."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.fallbacks = 0

    def load(self) -> tuple[dict, int]:
        return self.payload, 1


def _resumed(payload: dict, compiled: bool):
    """The run ``payload`` resumes, run to its end under
    :class:`_Snapshots`, fused or on the scalar loop; the same tuple as
    :func:`_intermittent`."""
    hook = _Snapshots()
    run = resume_intermittent(_OneImage(payload), checkpointer=hook)
    compilejit.set_enabled(compiled)
    try:
        run.run()
        err = None
    except (NonTerminationError, ChargeWindowFailure) as exc:
        err = (type(exc), str(exc), vars(exc))
    finally:
        compilejit.set_enabled(True)
    return run.mouse, run, run.mouse.ledger.breakdown, err, hook


@pytest.mark.parametrize("seed", SEEDS)
def test_settling_hooks_see_the_scalar_loops_arrays(seed):
    """A hook that settles the run and snapshots its arrays at every
    commit and outage sees, on the fused loop, what it sees on the
    scalar loop: on fresh runs, and on runs resumed from the image of a
    commit in mid-program and of an outage that cut an executed but
    uncommitted instruction (so the resumed run starts with a dead
    replay)."""
    tech = ALL_TECHNOLOGIES[seed % len(ALL_TECHNOLOGIES)]
    resumed = {"powered": 0, "outage": 0}
    entries = [
        entry for entry in _programs(seed) + _wide_programs(seed)
        if entry[1].replay_stable
    ]
    for index, (program, _, states) in enumerate(entries):
        per_instruction = _per_instruction(tech, program, states[0])
        key = (seed, tech.name, index)
        for kind in ("constant", "rf_burst"):
            hook = _fused_matches_scalar(
                key + (kind,), tech, program, states[0], per_instruction,
                WINDOW_INSTRUCTIONS[-1], kind, seed, checkpointer="snapshots",
            )[4]
            assert hook.snapshots
            powered = [
                i for i, (snap, image) in enumerate(zip(hook.snapshots, hook.images))
                if snap[0] == "powered" and not image["machine"]["controller"]["halted"]
            ]
            dead = [
                i for i, snap in enumerate(hook.snapshots)
                if snap[0] == "outage" and snap[5]
            ]
            picks = powered[len(powered) // 2:][:1] + dead[:1]
            for i in picks:
                payload = hook.images[i]
                before = compilejit.stats_snapshot()["fallback_runs"]
                fast = _resumed(payload, True)
                assert compilejit.stats_snapshot()["fallback_runs"] == before
                _assert_runs_equal(
                    key + (kind, i), fast, _resumed(payload, False)
                )
                resumed[payload["phase"]] += 1
    assert all(resumed.values()), resumed


# ----------------------------------------------------------------------
# The plan table: gates, chain totals and read-only arrays
# ----------------------------------------------------------------------


def _row_mask(active: np.ndarray) -> int:
    """The one-row mask of a tile's ``active_columns``."""
    return sum(1 << int(c) for c in np.flatnonzero(active))


@pytest.mark.parametrize("tech", ALL_TECHNOLOGIES, ids=TECH_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_gates_decode_the_source_program(seed, tech):
    """``CompiledPlan.gates(pc)`` of every logic pc names what the
    source instruction and the interpreter's tiles at that pc name: the
    target tiles, broadcast resolved; the input rows and the output
    row; the active set's one-row mask; and ``electrical_kernel``'s
    switching counts and target.  ``flip_targets`` names the same
    columns, and ``to_program`` rebuilds the source."""
    cost = InstructionCostModel(tech)
    n_gates = 0
    for program, _, states in _programs(seed) + _wide_programs(seed):
        plan = compile_program(program, cost, N_TILES, ROWS, states.shape[-1])
        mouse = _mouse(tech, program, states[0])
        tiles = mouse.bank.data_tiles
        logic_pcs = []
        for pc, instr in enumerate(program.instructions):
            if isinstance(instr, LogicInstruction):
                kern = electrical_kernel(cost.params, instr.spec)
                counts = tuple(n for n, on in enumerate(kern.will_switch) if on)
                want = tuple(
                    (
                        t, tuple(instr.input_rows), instr.output_row,
                        _row_mask(tiles[t].active_columns), counts, kern.target,
                    )
                    for t in _covered(instr.tile)
                )
                key = (seed, tech.name, pc)
                assert plan.gates(pc) == want, key
                assert [
                    (t, orow, columns.tolist())
                    for t, orow, columns in plan.flip_targets(pc)
                ] == [
                    (t, orow, np.flatnonzero(tiles[t].active_columns).tolist())
                    for t, _, orow, _, _, _ in want
                ], key
                logic_pcs.append(pc)
                n_gates += len(want)
            mouse.controller.step_instruction()
        assert plan.logic_pcs.tolist() == logic_pcs
        assert plan.to_program().instructions == program.instructions
    assert n_gates > 0


def _serial(start: float, values) -> float:
    total = start
    for value in values:
        total += value
    return total


def _ledger_charges(mouse: Mouse) -> dict:
    """Run ``mouse`` on the interpreter and return its ledger's
    ``charge`` calls, ``{category: ([energy, ...], [latency, ...])}``,
    in the order it made them."""
    charges: dict = {}
    real = mouse.ledger.charge

    def charge(category, energy, latency=0.0):
        energies, latencies = charges.setdefault(category, ([], []))
        energies.append(energy)
        latencies.append(latency)
        real(category, energy, latency)

    mouse.ledger.charge = charge
    mouse.run(compiled=False)
    return charges


@pytest.mark.parametrize("seed", SEEDS)
def test_backup_and_latency_totals_add_one_charge_at_a_time(seed):
    """A run's compute and backup energy and its latency are the serial
    ledger's ``+=`` chains over the charges a plans-off run makes: from
    0.0, where the backup and latency chains are the plan's
    ``backup_total`` and ``latency_total``, and from a non-zero start,
    continuous and per sample of a batch of 4, bit for bit with the
    interpreter.  Adding the start to the total from 0.0 would round
    differently."""
    tech = ALL_TECHNOLOGIES[seed % len(ALL_TECHNOLOGIES)]
    rng = np.random.default_rng(seed)
    shortcut = 0
    for program, _, states in _programs(seed):
        charges = _ledger_charges(_mouse(tech, program, states[0]))
        assert set(charges) == {Category.COMPUTE, Category.BACKUP}
        compute, cycles = charges[Category.COMPUTE]
        backup = charges[Category.BACKUP][0]
        assert not any(charges[Category.BACKUP][1])
        fresh = _mouse(tech, program, states[0])
        plan = exec_module.mouse_plan(fresh)
        assert plan.backup_total == _serial(0.0, backup)
        assert plan.latency_total == _serial(0.0, cycles)
        nonzero = rng.random(3) * 10.0 ** rng.integers(-14, -8, 3)
        for c0, b0, l0 in ((0.0, 0.0, 0.0), tuple(nonzero.tolist())):
            fast = fresh if b0 == 0.0 else _mouse(tech, program, states[0])
            ref = _mouse(tech, program, states[0])
            for mouse in (fast, ref):
                mouse.ledger.breakdown.compute_energy = c0
                mouse.ledger.breakdown.backup_energy = b0
                mouse.ledger.breakdown.compute_latency = l0
            fast.run()
            ref.run(compiled=False)
            b = fast.ledger.breakdown
            assert b == ref.ledger.breakdown
            assert b.compute_energy == _serial(c0, compute)
            assert b.backup_energy == _serial(b0, backup)
            assert b.compute_latency == _serial(l0, cycles)
            shortcut += b0 + plan.backup_total != b.backup_energy
            shortcut += l0 + plan.latency_total != b.compute_latency
        machine = BatchedMouse(
            tech, batch=BATCH, n_data_tiles=N_TILES, rows=ROWS, cols=COLS
        )
        for t, tile in enumerate(machine.tiles):
            tile.state[...] = states[:, t]
        machine.load(program)
        starts = np.array([0.0, nonzero[0], 0.0, nonzero[1]])
        machine.ledger.backup_energy[:] = starts
        machine.ledger.compute_latency[:] = starts[::-1]
        machine.run()
        for sample, (b0, l0) in enumerate(zip(starts, starts[::-1])):
            assert machine.ledger.backup_energy[sample] == _serial(b0, backup)
            assert machine.ledger.compute_latency[sample] == _serial(l0, cycles)
    assert shortcut > 0


def test_a_negative_zero_start_is_not_a_fresh_ledger():
    """A program of one HALT charges no backup energy, so a ledger that
    starts at -0.0 keeps -0.0 on the interpreter; the plan's total from
    0.0 is +0.0 and must not stand in for it."""
    for compiled in (True, False):
        mouse = Mouse(ALL_TECHNOLOGIES[0], n_data_tiles=N_TILES, rows=ROWS, cols=COLS)
        mouse.load(Program([HaltInstruction()]))
        mouse.ledger.breakdown.backup_energy = -0.0
        before = compilejit.stats_snapshot()["compiled_runs"]
        mouse.run(compiled=compiled)
        after = compilejit.stats_snapshot()["compiled_runs"]
        assert after - before == compiled
        assert math.copysign(1.0, mouse.ledger.breakdown.backup_energy) == -1.0


def _arrays(value, path: str = "plan"):
    """``(path, array)`` of every NumPy array a plan holds, through its
    attributes and the tuples, lists and dicts in them."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k, item in value.items():
            yield from _arrays(item, f"{path}[{k!r}]")
    elif isinstance(value, CompiledPlan):
        for name, item in vars(value).items():
            yield from _arrays(item, f"{path}.{name}")


def test_plans_are_read_only():
    """One plan serves every machine of its technology and shape, so no
    run writes it.  A continuous run, batches of 1 and 4, a fused run
    fresh and resumed from one of its images, and a campaign batch that
    re-issues verified gates all run one plan (a profiled run falls
    back to the interpreter); afterwards every array it holds has its
    bytes from before and cannot be written."""
    tech = ALL_TECHNOLOGIES[0]
    workload = WORKLOADS["adder"](tech)

    def build() -> Mouse:
        # Restored from a fresh build: every machine below, the resumed
        # one included, loads the one Program equal words restore to.
        return restore_machine(capture_machine(workload.build()))

    first = build()
    program = first.program
    plan = exec_module.mouse_plan(first)
    before = {path: (arr.dtype, arr.shape, arr.tobytes()) for path, arr in _arrays(plan)}
    assert {"plan.execute", "plan.log_at", "plan.aterms"} <= set(before)
    stats = compilejit.stats_snapshot()

    build().run()
    profiled = build()
    profiled.attach_profiler(EnergyProfiler())
    profiled.run()
    assert compilejit.stats_snapshot()["fallback_runs"] == stats["fallback_runs"] + 1
    bank = first.bank
    for batch in (1, BATCH):
        machine = BatchedMouse(tech, batch=batch, rows=bank.rows, cols=bank.cols)
        for tile, state in zip(machine.tiles, bank.data_tiles):
            tile.state[...] = state.state
        machine.load(program)
        machine.run()
    ckpt = Checkpointer(_ImageLog(), CheckpointPolicy(period=CHECKPOINT_PERIOD))
    run = IntermittentRun(build(), HarvestingConfig(
        ConstantPowerSource(5e-6),
        EnergyBuffer(capacitance=1e-9, v_off=0.30, v_on=0.34),
    ), checkpointer=ckpt)
    run.run()
    assert run.mouse.ledger.breakdown.restarts > 0
    images = ckpt.store.images
    resumed = resume_intermittent(_OneImage(decode_image(images[len(images) // 2])[0]))
    assert exec_module.mouse_plan(resumed.mouse) is plan
    resumed.run()
    flips = {
        instr.spec.name: 0.2 for instr in program.instructions
        if isinstance(instr, LogicInstruction)
    }
    report = FaultCampaign(
        Workload(workload.name, build, workload.readout, workload.reference),
        FaultPlan(gate_flip_rates=flips, verify_retry=True, retry_budget=2),
        trials=4, seed=5,
    ).run(jobs=1)
    assert report.totals["retries"] > 0
    after = compilejit.stats_snapshot()
    assert after["fallback_runs"] == stats["fallback_runs"] + 1
    assert after["plans_compiled"] == stats["plans_compiled"]

    arrays = dict(_arrays(plan))
    assert set(before) <= set(arrays)
    for path, arr in arrays.items():
        assert not arr.flags.writeable, path
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    for path, (dtype, shape, data) in before.items():
        arr = arrays[path]
        assert (arr.dtype, arr.shape, arr.tobytes()) == (dtype, shape, data), path


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------


def test_every_plan_op_kind_is_exercised():
    """Every packed-row op code, and a gate broadcast across several
    tiles, reach the continuous and batched executors (every accepted
    program) and the fused intermittent executor (the replay-stable
    ones), all three of which run the plan's one op table."""
    expected = ALL_CODES | {"broadcast"}
    every, stable = set(), set()
    n_stable = 0
    for seed in SEEDS:
        programs = _programs(seed)
        assert len(programs) == PROGRAMS_PER_SEED
        for _, plan, _ in programs + _wide_programs(seed):
            kinds = {op[0] for op in plan.ops}
            if any(len(plan.gates(pc)) > 1 for pc in plan.logic_pcs):
                kinds.add("broadcast")
            every |= kinds
            if plan.replay_stable:
                n_stable += 1
                stable |= kinds
    assert every == expected, sorted(expected ^ every, key=str)
    assert stable == expected, sorted(expected ^ stable, key=str)
    assert n_stable >= N_SEEDS, n_stable


def test_every_packed_op_code_is_exercised():
    """Every packed-row op code, and both targets and thresholds of the
    unrolled gates, reach the batched executor."""
    seen, unrolled = set(), set()
    for seed in SEEDS:
        for _, plan, _ in _programs(seed) + _wide_programs(seed):
            for op in plan.ops:
                seen.add(op[0])
                if op[0] == plan_module.P_G1:
                    unrolled.add((1, op[-1]))
                elif op[0] == plan_module.P_G2:
                    unrolled.add((2, op[-2], op[-1]))
    assert seen == ALL_CODES, sorted(ALL_CODES - seen)
    assert unrolled == {(1, False), (1, True)} | {
        (2, both, target) for both in (False, True) for target in (False, True)
    }
