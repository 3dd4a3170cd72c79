"""AOT compilation of a linted Program into a fused execution plan.

A :class:`CompiledPlan` freezes everything about a straight-line CRAM
program that does not depend on array *data*, in one walk of its
instructions: each pc's packed-row op, EXECUTE energy, written rows and
gate-log offset, and each logic op's energy group and address term.
Static energies are evaluated through the same cost-model code paths
the interpreter uses.  A run's compute and backup charges follow from
each pc's EXECUTE energy and three prices, in the fixed order the
scalar controller charges every instruction
(:meth:`CompiledPlan.compute_chain`, :meth:`CompiledPlan.backup_chain`);
the executors in :mod:`repro.compilejit.exec` fold them with
``np.add.accumulate``, which is bit-identical to the interpreter's
sequential ``+=`` chain, so `Breakdown`s match to the last ulp.

Every executor runs the plan's one op table: a continuous run or a
lock-step batch applies it in one pass, and the fused intermittent loop
prices its logic ops with one such pass and applies them to the live
tiles only where something reads them.  One plan serves every machine
of its technology and bank shape, so it is read-only once built: its
arrays cannot be written, and each run keeps its logic energies to
itself.

Plan construction is **gated by the linter**: a program that lints
with errors raises :class:`PlanUnsupported` and the engines silently
stay on the scalar interpreter.  Sensor reads (run-time data arrival)
are likewise unsupported by construction, and runs that something
observes per microstep (telemetry, a profiler, a fault hook) stay on
the interpreter.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.array.bank import BROADCAST_TILE, SENSOR_TILE
from repro.core.program import Program
from repro.energy.model import InstructionCostModel
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.perf.kernels import electrical_kernel

# Packed-row op codes.  An executor holds each tile row as one Python
# int whose bit ``b * cols + c`` is sample ``b``'s column ``c``.
# ``mask`` indexes ``CompiledPlan.row_masks``, the one-row masks of the
# plan's active sets, which the executor spreads over the batch.  A
# gate switches an active cell when its count of 1 inputs is one of
# ``counts``; a single-tile gate of one or two inputs that switches
# when fewer than ``t`` of them are 1 (every such library gate) is
# unrolled.
#   (P_SET, tile, row, mask)      preset one tile's active cells to 1
#   (P_CLR, tile, row, mask)      ... to 0
#   (P_G1, tile, in0, orow, mask, target)                 t = 1
#   (P_G2, tile, in0, in1, orow, mask, both, target)      t = 2 if both else 1
#   (P_GATES, ((tile, ins, orow, mask, counts, target), ...))
#   (P_PRESET, ((tile, row, mask), ...), value)
#   (P_READ, tile, row)
#   (P_WRITE, tiles, row)
#   (P_ACT, ((tile, bulk, columns), ...))
#   (P_HALT,)
P_SET = 0
P_CLR = 1
P_G1 = 2
P_G2 = 3
P_GATES = 4
P_PRESET = 5
P_READ = 6
P_WRITE = 7
P_ACT = 8
P_HALT = 9


@lru_cache(maxsize=None)
def gate_kernel(params, spec) -> tuple:
    """``(energy, target, counts)`` of one technology/gate pair: the
    electrical kernel's per-count energy table, the state a switching
    cell takes, and the counts of 1 inputs that switch a cell, built
    once per pair and shared by every plan."""
    kern = electrical_kernel(params, spec)
    return (
        kern.energy,
        kern.target,
        tuple(n for n, switch in enumerate(kern.will_switch) if switch),
    )


class PlanUnsupported(Exception):
    """The program cannot be compiled; run it on the interpreter."""


def _acc(start: float, vals: np.ndarray) -> float:
    """Bit-exact equivalent of ``c = start; for v in vals: c += v``."""
    if vals.size == 0:
        return start
    arr = np.empty(vals.size + 1, dtype=np.float64)
    arr[0] = start
    arr[1:] = vals
    return float(np.add.accumulate(arr)[-1])


def _frozen(values, dtype=None) -> np.ndarray:
    """``values`` as an array that cannot be written."""
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _columns(mask: int) -> list[int]:
    """The columns a one-row mask sets, in ascending order."""
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def _act_spec(instr: ActivateColumnsInstruction):
    """Canonical activation state left by one ACTIVATE instruction."""
    if instr.bulk:
        first, last = instr.columns
        return ("range", int(first), int(last))
    return ("set", tuple(sorted(set(int(c) for c in instr.columns))))


def _spec_mask(spec) -> int:
    """The one-row mask of an active set."""
    if spec[0] == "range":
        return ((1 << (spec[2] - spec[1] + 1)) - 1) << spec[1]
    return sum(1 << c for c in spec[1])


def _energy_sel(mask: int, cols: int):
    """``(width, sel)`` of an active set's one-row mask: how many
    columns it sets, and what picks them out of a row for the logic
    energies — None for all ``cols``, a slice when they are contiguous,
    else their index array."""
    columns = _columns(mask)
    width = len(columns)
    if width == cols:
        return width, None
    if columns[-1] - columns[0] + 1 == width:
        return width, slice(columns[0], columns[-1] + 1)
    return width, _frozen(columns, np.intp)


class CompiledPlan:
    """A fused, data-independent execution plan for one program.

    The plan is tied to a (cost model, bank geometry) pair; bind-free by
    design — executors resolve the live tile ``state`` arrays at run
    start, so one plan serves any number of Mouse and BatchedMouse
    instances with the same technology and shape.  It is read-only
    once built.

    Per pc: ``ops`` holds the packed-row op, ``words`` the encoded
    word, ``execute`` the EXECUTE energy (0.0 for HALT and for the
    logic ops, whose energies depend on the data), ``writes`` the
    ``(tile, row)`` pairs the op writes, and ``log_at`` its offset in
    the gate log: every gate appends its input rows, as read, to the
    executor's log, op after op, gate after gate, input after input.
    ``row_masks`` are the one-row masks the ops index, and
    ``activates`` each ACTIVATE's ``(pc, word)``.  ``groups`` gather
    the entries back for the logic energies, one group per kernel and
    active set: ``(energy, sel, width, n_inputs, positions, members)``,
    where ``energy`` is the kernel's per-count energy table, ``sel``
    picks the active columns of a row (None for all), ``width`` counts
    them, ``positions`` are the log entries of the members' inputs,
    member after member, and ``members`` number the members' logic ops
    in pc order.  The gates of broadcast ops form groups of their own
    with no ``members``: ``ln`` combines them per op as ``(logic op,
    ((group, member), ...))``.  ``aterms`` and ``logic_pcs`` are each
    logic op's address term and pc, in pc order.

    Every pc charges one fixed sequence: its fetch and its EXECUTE
    energy (compute), then on an ACTIVATE the register's backup, and
    the PC checkpoint (backup); HALT, the last pc, charges only its
    fetch.  So ``execute`` and the prices ``fetch_e``, ``backup_e`` and
    ``act_backup_e`` define both energy chains
    (:meth:`compute_chain`, :meth:`backup_chain`).  Latency is one
    cycle per pc.  ``backup_total`` and ``latency_total`` are the
    backup and latency chains folded from 0.0, where every fresh ledger
    starts.
    """

    def __init__(
        self,
        program: Program,
        cost: InstructionCostModel,
        n_data_tiles: int,
        rows: int,
        cols: int,
    ) -> None:
        self.program = program
        self.cost = cost
        self.n_data_tiles = n_data_tiles
        self.rows = rows
        self.cols = cols

        prices = cost.prices
        self.cycle = cost.cycle_time
        self.fetch_e = prices.fetch
        self.backup_e = prices.backup
        self.act_backup_e = prices.activate_backup
        # Inlined `PeripheralModel.with_array_energy` constants; `oms`
        # is precomputed exactly as the interpreter computes it
        # (`1.0 - share`), so the division sees identical bits.
        self.share = cost.peripheral.energy_share
        self.oms = 1.0 - self.share

        self.n_instructions = len(program)
        self.replay_stable = True

        self._build()

    # ------------------------------------------------------------------
    # Construction: one walk of the instructions
    # ------------------------------------------------------------------

    def _build(self) -> None:
        program, cost, cols = self.program, self.cost, self.cols
        prices = cost.prices
        if not program.halts:
            raise PlanUnsupported("program does not end in HALT")
        n = self.n_instructions
        words = program.words()
        address_e = cost.peripheral.address_energy
        write_e = _write_energy(cost.params)

        # Rolling activation state.  `full` applies every ACTIVATE in
        # order (continuous-power truth); `last_only` models the state
        # after an outage at this point, where power_on re-issues only
        # the most recent ACTIVATE and every other tile's latches are
        # gone.  The plan bakes `full`; if any *use* would differ under
        # `last_only`, intermittent fused execution is unsafe and
        # `replay_stable` goes False (continuous runs stay fine).
        full: list = [None] * self.n_data_tiles
        last_only: list = [None] * self.n_data_tiles
        mask_ids: dict[int, int] = {}  # one-row mask -> its row_masks index
        spec_masks: dict[tuple, tuple] = {}  # active set -> active()
        groups: dict[tuple, tuple] = {}
        shared: dict[tuple, tuple] = {}  # one tuple per distinct op / write set
        ops: list[tuple] = []
        writes: list[tuple] = []
        execute: list[float] = []
        log_at: list[int] = []
        aterms: list[float] = []
        logic_pcs: list[int] = []
        ln: list[tuple] = []
        activates: list[tuple[int, int]] = []
        logged = 0

        def resolve_tiles(tile: int) -> tuple[int, ...]:
            if tile == BROADCAST_TILE:
                return tuple(range(self.n_data_tiles))
            return (tile,)

        # A logic op or preset on a tile no ACTIVATE has latched would
        # bake "zero active columns" into the plan, which holds only if
        # the machine starts with clean latches.  The lint gate (ACT001)
        # rejects such programs before they get here.  Every ACTIVATE
        # latches at least one column, so a checked use always has a
        # gate to run.
        def check_use(tiles: tuple[int, ...], pc: int) -> None:
            for t in tiles:
                if full[t] is None:
                    raise PlanUnsupported(
                        f"pc {pc} uses tile {t} before any ACTIVATE"
                    )
                if full[t] != last_only[t]:
                    self.replay_stable = False

        def active(t: int) -> tuple[int, int, int]:
            """``(one-row mask, row_masks index, width)`` of tile
            ``t``'s active set."""
            spec = full[t]
            entry = spec_masks.get(spec)
            if entry is None:
                mask = _spec_mask(spec)
                entry = spec_masks[spec] = (
                    mask, mask_ids.setdefault(mask, len(mask_ids)),
                    bin(mask).count("1"),
                )
            return entry

        def member(kern, ins, mask: int, logic) -> tuple[int, int]:
            """Add a gate's logged inputs to its energy group (one per
            kernel and active set, and apart for the gates of broadcast
            ops, whose ``logic`` is None); returns ``(group,
            member)``."""
            nonlocal logged
            key = (id(kern), logic is None, mask)
            entry = groups.get(key)
            if entry is None:
                width, sel = _energy_sel(mask, cols)
                entry = groups[key] = (
                    len(groups), kern[0], sel, width, len(ins), [], []
                )
            entry[5].extend(range(logged, logged + len(ins)))
            entry[6].append(logic)
            logged += len(ins)
            return entry[0], len(entry[6]) - 1

        for pc, instr in enumerate(program.instructions):
            log_at.append(logged)
            e = 0.0
            written: tuple = ()

            if isinstance(instr, HaltInstruction):
                if pc != n - 1:
                    raise PlanUnsupported("HALT before the final pc")
                op: tuple = (P_HALT,)

            elif isinstance(instr, ActivateColumnsInstruction):
                tiles = resolve_tiles(instr.tile)
                spec = _act_spec(instr)
                for t in tiles:
                    full[t] = spec
                last_only = [None] * self.n_data_tiles
                for t in tiles:
                    last_only[t] = spec
                e = prices.activate[instr.column_count]
                columns = tuple(int(c) for c in instr.columns)
                op = (P_ACT, tuple((t, instr.bulk, columns) for t in tiles))
                activates.append((pc, words[pc]))

            elif isinstance(instr, MemoryInstruction):
                kind = instr.op.upper()
                row = instr.row
                if kind == "READ":
                    if instr.tile == SENSOR_TILE:
                        raise PlanUnsupported("sensor reads are run-time data")
                    e = prices.row_read[cols]
                    op = (P_READ, instr.tile, row)
                else:
                    tiles = resolve_tiles(instr.tile)
                    written = tuple((t, row) for t in tiles)
                    if kind == "WRITE":
                        e = prices.row_write[cols] * len(tiles)
                        op = (P_WRITE, tiles, row)
                    else:  # PRESET0 / PRESET1
                        check_use(tiles, pc)
                        n_columns = sum(active(t)[2] for t in tiles)
                        e = prices.preset[max(n_columns, 1)]
                        sets = tuple((t, row, active(t)[1]) for t in tiles)
                        value = kind == "PRESET1"
                        if len(sets) == 1:
                            op = (P_SET if value else P_CLR,) + sets[0]
                        else:
                            op = (P_PRESET, sets, value)

            elif isinstance(instr, LogicInstruction):
                tiles = resolve_tiles(instr.tile)
                check_use(tiles, pc)
                spec = instr.spec
                ins = tuple(instr.input_rows)
                orow = instr.output_row
                kern = gate_kernel(cost.params, spec)
                counts, target = kern[2], bool(kern[1])
                logic = len(logic_pcs)
                aterms.append((spec.n_inputs + 1) * address_e * write_e)
                logic_pcs.append(pc)
                written = tuple((t, orow) for t in tiles)
                if len(tiles) == 1:
                    mask, m, _ = active(tiles[0])
                    member(kern, ins, mask, logic)
                    op = _gate_op(tiles[0], ins, orow, m, counts, target)
                else:
                    ln.append((logic, tuple(
                        member(kern, ins, active(t)[0], None) for t in tiles
                    )))
                    op = (P_GATES, tuple(
                        (t, ins, orow, active(t)[1], counts, target) for t in tiles
                    ))

            else:
                raise PlanUnsupported(
                    f"unknown instruction type {type(instr).__name__}"
                )

            ops.append(shared.setdefault(op, op))
            writes.append(shared.setdefault(written, written))
            execute.append(e)

        self.ops = tuple(ops)
        self.words = tuple(words)
        self.execute = _frozen(execute, np.float64)
        self.writes = tuple(writes)
        self.log_at = _frozen(log_at, np.intp)
        self.activates = tuple(activates)
        self.row_masks = tuple(mask_ids)
        self.groups = tuple(
            (energy, sel, width, k, _frozen(positions, np.intp),
             None if members[0] is None else _frozen(members, np.intp))
            for _, energy, sel, width, k, positions, members in groups.values()
        )
        self.ln = tuple(ln)
        self.aterms = _frozen(aterms, np.float64)
        self.logic_pcs = _frozen(logic_pcs, np.intp)
        self.backup_total = _acc(0.0, self.backup_chain())
        self.latency_total = _acc(0.0, np.full(n, self.cycle))

    # ------------------------------------------------------------------
    # Energy chains
    # ------------------------------------------------------------------

    def compute_chain(self, execute: np.ndarray) -> np.ndarray:
        """A run's compute-energy charges in ledger order, given each
        pc's EXECUTE energy: each pc's fetch, then its EXECUTE energy;
        HALT, the last pc, charges only its fetch.  The logic op at
        ``pc`` is the charge at ``2 * pc + 1``."""
        chain = np.empty(2 * self.n_instructions - 1, dtype=np.float64)
        chain[0::2] = self.fetch_e
        chain[1::2] = execute[:-1]
        return chain

    def backup_chain(self) -> np.ndarray:
        """A run's backup-energy charges in ledger order: each
        ACTIVATE's register backup followed by its checkpoint, and one
        checkpoint for every other pc except HALT."""
        chain = np.full(
            self.n_instructions - 1 + len(self.activates), self.backup_e
        )
        # An ACTIVATE's backup follows one checkpoint per earlier pc and
        # one register backup per earlier ACTIVATE.
        chain[[pc + i for i, (pc, _) in enumerate(self.activates)]] = (
            self.act_backup_e
        )
        return chain

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def gates(self, pc: int) -> tuple:
        """``(tile, input rows, output row, one-row mask, counts,
        target)`` of each gate the logic op at ``pc`` fires, in order: a
        gate switches an active cell to ``target`` when its count of 1
        inputs is one of ``counts``."""
        op = self.ops[pc]
        masks = self.row_masks
        if op[0] == P_G1:
            _, tile, i0, orow, m, target = op
            return ((tile, (i0,), orow, masks[m], (0,), target),)
        if op[0] == P_G2:
            _, tile, i0, i1, orow, m, both, target = op
            counts = (0, 1) if both else (0,)
            return ((tile, (i0, i1), orow, masks[m], counts, target),)
        if op[0] != P_GATES:
            raise ValueError(f"pc {pc} is not a logic op")
        return tuple(
            (tile, ins, orow, masks[m], counts, target)
            for tile, ins, orow, m, counts, target in op[1]
        )

    def flip_targets(self, pc: int) -> tuple[tuple[int, int, np.ndarray], ...]:
        """``(tile, output row, active columns)`` of each gate the logic
        op at ``pc`` fires, in target-tile order: the cells a gate-output
        flip can hit, in the order the fault hook draws them."""
        return tuple(
            (tile, orow, np.asarray(_columns(mask), dtype=np.intp))
            for tile, _, orow, mask, _, _ in self.gates(pc)
        )

    def to_program(self) -> Program:
        """Reconstruct a Program from the plan's op table.

        Each op's tile and rows come from the op; the gate name, and
        the tile of a broadcast op, from the source instruction.  Used
        as translation validation: the ``repro.verify`` `EquivalencePass`
        proves the reconstruction symbolically equivalent to the source
        program, so the plan demonstrably captured the instruction
        stream it claims to execute.
        """
        instrs = []
        for pc, (op, src) in enumerate(zip(self.ops, self.program.instructions)):
            k = op[0]
            if k == P_HALT:
                instr = HaltInstruction()
            elif k == P_ACT:
                tile, bulk, columns = op[1][0]
                instr = ActivateColumnsInstruction(tile, columns, bulk=bulk)
            elif k == P_READ:
                instr = MemoryInstruction("READ", op[1], op[2])
            elif k == P_WRITE:
                instr = MemoryInstruction("WRITE", op[1][0], op[2])
            elif k == P_PRESET:
                tile, row, _ = op[1][0]
                instr = MemoryInstruction("PRESET1" if op[2] else "PRESET0", tile, row)
            elif k in (P_SET, P_CLR):
                value = "PRESET1" if k == P_SET else "PRESET0"
                instr = MemoryInstruction(value, op[1], op[2])
            else:  # logic
                tile, ins, orow = self.gates(pc)[0][:3]
                instr = LogicInstruction(src.gate, tile, ins, orow)
            if getattr(src, "tile", None) == BROADCAST_TILE:
                instr = replace(instr, tile=BROADCAST_TILE)
            instrs.append(instr)
        return Program(instrs, name=f"{self.program.name}.plan")


def _gate_op(tile: int, ins: tuple, orow: int, m: int, counts, target) -> tuple:
    """The packed-row op of a single-tile gate: unrolled when it has one
    or two inputs and switches when fewer than ``t`` of them are 1."""
    t = len(counts)
    if counts != tuple(range(t)) or not 0 < t <= len(ins) <= 2:
        return (P_GATES, ((tile, ins, orow, m, counts, target),))
    if len(ins) == 1:
        return (P_G1, tile, ins[0], orow, m, target)
    return (P_G2, tile, *ins, orow, m, t == 2, target)


def _write_energy(params) -> float:
    from repro.logic.gates import write_energy

    return write_energy(params)


def compile_program(
    program: Program,
    cost: InstructionCostModel,
    n_data_tiles: int,
    rows: int,
    cols: int,
) -> CompiledPlan:
    """Compile ``program`` for a bank geometry, gated by the linter.

    Raises :class:`PlanUnsupported` if the program lints with errors or
    contains constructs a plan cannot model (sensor reads, HALT before
    the end).
    """
    from repro.lint import LintConfig, lint_program

    report = lint_program(
        program,
        config=LintConfig(n_data_tiles=n_data_tiles, rows=rows, cols=cols),
    )
    if report.n_errors:
        raise PlanUnsupported(f"program lints with {report.n_errors} error(s)")
    return CompiledPlan(program, cost, n_data_tiles, rows, cols)


_UNSUPPORTED = "unsupported"


def plan_for(
    program: Optional[Program],
    cost: InstructionCostModel,
    n_data_tiles: int,
    rows: int,
    cols: int,
) -> Optional[CompiledPlan]:
    """The cached plan of ``program`` for one bank geometry (or None).

    Plans are cached on the Program object keyed by (cost model, bank
    geometry), so one Program loaded into any number of Mouse and
    BatchedMouse machines of that technology and shape compiles once.
    An uncompilable program is cached as unsupported so the interpreter
    fallback costs one dict hit.
    """
    if program is None:
        return None
    key = (cost, n_data_tiles, rows, cols)
    cache = program.__dict__.setdefault("_cjit_plans", {})
    try:
        entry = cache.get(key)
    except TypeError:  # unhashable cost model; skip caching
        return None
    if entry is None:
        from repro import compilejit

        try:
            entry = compile_program(program, cost, n_data_tiles, rows, cols)
            compilejit.STATS["plans_compiled"] += 1
        except PlanUnsupported:
            entry = _UNSUPPORTED
        cache[key] = entry
    return None if entry is _UNSUPPORTED else entry
