"""AOT compilation of a linted Program into a fused execution plan.

A :class:`CompiledPlan` freezes everything about a straight-line CRAM
program that does not depend on array *data*: per-instruction kernel
tables, each active set's column selector, static energy terms
evaluated through the same cost-model code paths the interpreter uses,
and a flat **charge table** mirroring the exact per-microstep ledger
charges the scalar controller would make.  The executors in
:mod:`repro.compilejit.exec` reduce the charge table with
``np.add.accumulate`` — which is bit-identical to the interpreter's
sequential ``+=`` chain, so `Breakdown`s match to the last ulp.

Every executor runs the plan's packed-row ops
(:meth:`CompiledPlan.packed`), built on the plan's first run: a
continuous run or a lock-step batch applies them in one pass, and the
fused intermittent loop prices its logic ops with one such pass and
applies them to the live tiles only where something reads them.

Plan construction is **gated by the linter**: a program that lints
with errors raises :class:`PlanUnsupported` and the engines silently
stay on the scalar interpreter.  Sensor reads (run-time data arrival)
and fault hooks are likewise unsupported by construction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from repro.array.bank import BROADCAST_TILE, SENSOR_TILE
from repro.core.program import Program
from repro.energy.model import InstructionCostModel
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
    decode,
    encode,
)
from repro.perf.kernels import electrical_kernel

# Plan op codes (first element of every op tuple).  Logic kinds carry
# a run-time energy slot and come last (``k >= K_L1``).
K_HALT = 0
K_ACT = 1
K_PRESET = 2
K_READ = 3
K_WRITE = 4
K_L1 = 5  # logic on one tile
K_LN = 6  # logic broadcast across several tiles, one gate per tile

# Op layouts:
#   (K_HALT, 0.0)
#   (K_ACT, energy, word, ((tile, bulk, columns), ...))
#   (K_PRESET, energy, ((tile, row, sel), ...), value)
#   (K_READ, energy, tile, row)
#   (K_WRITE, energy, tiles, row)
#   (K_L1 / K_LN, slot, aterm, ((tile, rows, orow, sel, kern), ...))
# ``sel`` selects a tile's active columns (see :func:`_spec_sel`),
# ``rows`` is a gate's tuple of input rows and ``kern`` is
# :func:`gate_kernel`'s record.

# Packed-row op codes: the table of continuous runs and lock-step
# batches (:meth:`CompiledPlan.packed`).  A batch holds each tile row as one
# Python int whose bit ``b * cols + c`` is sample ``b``'s column ``c``.
# ``mask`` indexes ``PackedPlan.row_masks``, the one-row masks of the
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

# Charge-table categories (matching EnergyLedger routing).
_CAT_CE = 0  # Category.COMPUTE energy (fetch + execute)
_CAT_BE = 1  # Category.BACKUP energy (pc checkpoint, activate register)


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


class PackedPlan(NamedTuple):
    """The packed-row tables of a plan (:meth:`CompiledPlan.packed`).

    Every gate appends its input rows, as read, to the executor's log:
    op after op, gate after gate, input after input; ``log_at`` holds
    each pc's offset in that log.  ``groups`` gather the entries back
    for the logic energies, one group per kernel and active set:
    ``(energy, sel, width, n_inputs, positions, members)``, where
    ``energy`` is the kernel's per-count energy table, ``sel`` picks the
    active columns of a row (None for all), ``width`` counts them,
    ``positions`` are the log entries of the members' inputs, member
    after member, and ``members`` number the members' logic ops in pc
    order.  The gates of broadcast ops form groups of their own with no
    ``members``: ``ln`` combines them per op as ``(logic op, ((group,
    member), ...))``.  ``aterms``, ``logic_at`` and ``logic_pcs`` are
    each logic op's address term, its position in the plan's
    compute-energy chain (``chg_vals[ce_idx]``) and its pc, in pc
    order.  ``execute`` is each pc's EXECUTE energy, 0.0 for HALT and
    for the logic ops, whose energies depend on the data, and
    ``writes`` the ``(tile, row)`` pairs each pc's op writes."""

    ops: list
    row_masks: tuple
    groups: tuple
    ln: tuple
    aterms: np.ndarray
    logic_at: np.ndarray
    logic_pcs: np.ndarray
    execute: np.ndarray
    log_at: np.ndarray
    writes: tuple


def _row_mask(sel) -> int:
    """The one-row mask of an active-column selector."""
    if isinstance(sel, slice):
        return ((1 << (sel.stop - sel.start)) - 1) << sel.start
    mask = 0
    for c in sel.tolist():
        mask |= 1 << c
    return mask


def packed_gates(op) -> tuple:
    """``(tile, input rows, output row, one-row mask, counts, target)``
    of each gate the logic op ``op`` fires, in order: a gate switches
    an active cell to ``target`` when its count of 1 inputs is one of
    ``counts``."""
    return tuple(
        (tile, rows, orow, _row_mask(sel), kern[2], bool(kern[1]))
        for tile, rows, orow, sel, kern in op[3]
    )


def _act_spec(instr: ActivateColumnsInstruction):
    """Canonical activation state left by one ACTIVATE instruction."""
    if instr.bulk:
        first, last = instr.columns
        return ("range", int(first), int(last))
    return ("set", tuple(sorted(set(int(c) for c in instr.columns))))


def _spec_count(spec) -> int:
    if spec[0] == "range":
        return spec[2] - spec[1] + 1
    return len(spec[1])


def _spec_sel(spec):
    """Column selector for an active set: ``slice(c0, c1 + 1)`` when it
    is contiguous, else the sorted index array ``Tile`` keeps; both
    select the same cells, the slice as a view."""
    if spec[0] == "range":
        return slice(spec[1], spec[2] + 1)
    cols = spec[1]
    if cols and cols[-1] - cols[0] + 1 == len(cols):
        return slice(cols[0], cols[-1] + 1)
    return np.asarray(cols, dtype=np.intp)


class CompiledPlan:
    """A fused, data-independent execution plan for one program.

    The plan is tied to a (cost model, bank geometry) pair; bind-free by
    design — executors resolve the live tile ``state`` arrays at run
    start, so one plan serves any number of Mouse and BatchedMouse
    instances with the same technology and shape.
    """

    def __init__(
        self,
        program: Program,
        cost: InstructionCostModel,
        n_data_tiles: int,
        rows: int,
        cols: int,
        lint_warnings: int = 0,
    ) -> None:
        self.program = program
        self.cost = cost
        self.n_data_tiles = n_data_tiles
        self.rows = rows
        self.cols = cols
        self.lint_warnings = lint_warnings

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

        self.ops: list[tuple] = []
        self.n_instructions = len(program)
        self.n_commits = max(self.n_instructions - 1, 0)
        self.n_activates = 0
        self.n_logic_dynamic = 0
        self.replay_stable = True

        self._build()
        self._prof_tables: Optional[dict] = None
        self._packed: Optional[PackedPlan] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        program, cost = self.program, self.cost
        prices = cost.prices
        if not program.halts:
            raise PlanUnsupported("program does not end in HALT")
        n = self.n_instructions
        cols = self.cols

        # Charge table: one row per ledger energy charge the scalar
        # controller would make, in exact interpreter order per pc:
        # fetch(CE) -> exec(CE) -> [activate backup(BE)] -> backup(BE).
        # HALT contributes only its fetch.  Latency is regular (exactly
        # one cycle per pc, at EXECUTE/COMMIT) and handled separately.
        chg_vals: list[float] = []
        chg_pc: list[int] = []
        chg_cat: list[int] = []

        def charge(cat: int, value: float, pc: int) -> int:
            idx = len(chg_vals)
            chg_vals.append(value)
            chg_pc.append(pc)
            chg_cat.append(cat)
            return idx

        # Rolling activation state.  `full` applies every ACTIVATE in
        # order (continuous-power truth); `last_only` models the state
        # after an outage at this point, where power_on re-issues only
        # the most recent ACTIVATE and every other tile's latches are
        # gone.  The plan bakes `full`; if any *use* would differ under
        # `last_only`, intermittent fused execution is unsafe and
        # `replay_stable` goes False (continuous runs stay fine).
        full: list = [None] * self.n_data_tiles
        last_only: list = [None] * self.n_data_tiles
        # One selector per distinct active set, shared by every op that
        # uses it.
        sel_cache: dict = {}

        def selector(spec):
            sel = sel_cache.get(spec)
            if sel is None:
                sel = sel_cache[spec] = _spec_sel(spec)
            return sel

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

        self.activates: list[tuple[int, int]] = []
        for pc, instr in enumerate(program.instructions):
            charge(_CAT_CE, self.fetch_e, pc)

            if isinstance(instr, HaltInstruction):
                if pc != n - 1:
                    raise PlanUnsupported("HALT before the final pc")
                self.ops.append((K_HALT, 0.0))
                continue

            if isinstance(instr, ActivateColumnsInstruction):
                tiles = resolve_tiles(instr.tile)
                spec = _act_spec(instr)
                for t in tiles:
                    full[t] = spec
                last_only = [None] * self.n_data_tiles
                for t in tiles:
                    last_only[t] = spec
                word = encode(instr)
                e = prices.activate[instr.column_count]
                acts = tuple(
                    (t, instr.bulk, tuple(int(c) for c in instr.columns))
                    for t in tiles
                )
                self.ops.append((K_ACT, e, word, acts))
                self.activates.append((pc, word))
                self.n_activates += 1
                charge(_CAT_CE, e, pc)
                charge(_CAT_BE, self.act_backup_e, pc)
                charge(_CAT_BE, self.backup_e, pc)
                continue

            if isinstance(instr, MemoryInstruction):
                op = instr.op.upper()
                if op == "READ":
                    if instr.tile == SENSOR_TILE:
                        raise PlanUnsupported("sensor reads are run-time data")
                    e = prices.row_read[cols]
                    self.ops.append((K_READ, e, instr.tile, instr.row))
                elif op == "WRITE":
                    tiles = resolve_tiles(instr.tile)
                    e = prices.row_write[cols] * len(tiles)
                    self.ops.append((K_WRITE, e, tiles, instr.row))
                else:  # PRESET0 / PRESET1
                    tiles = resolve_tiles(instr.tile)
                    check_use(tiles, pc)
                    n_columns = sum(_spec_count(full[t]) for t in tiles)
                    e = prices.preset[max(n_columns, 1)]
                    sets = tuple((t, instr.row, selector(full[t])) for t in tiles)
                    self.ops.append((K_PRESET, e, sets, op == "PRESET1"))
                charge(_CAT_CE, e, pc)
                charge(_CAT_BE, self.backup_e, pc)
                continue

            if isinstance(instr, LogicInstruction):
                tiles = resolve_tiles(instr.tile)
                check_use(tiles, pc)
                spec = instr.spec
                rows_t = tuple(instr.input_rows)
                orow = instr.output_row
                kern = gate_kernel(cost.params, spec)
                aterm = (
                    (spec.n_inputs + 1)
                    * cost.peripheral.address_energy
                    * _write_energy(cost.params)
                )
                gates = tuple(
                    (t, rows_t, orow, selector(full[t]), kern) for t in tiles
                )
                self.n_logic_dynamic += 1
                slot = charge(_CAT_CE, 0.0, pc)
                kind = K_L1 if len(gates) == 1 else K_LN
                self.ops.append((kind, slot, aterm, gates))
                charge(_CAT_BE, self.backup_e, pc)
                continue

            raise PlanUnsupported(
                f"unknown instruction type {type(instr).__name__}"
            )

        self.chg_vals = np.asarray(chg_vals, dtype=np.float64)
        self.chg_pc = np.asarray(chg_pc, dtype=np.intp)
        self.chg_cat = np.asarray(chg_cat, dtype=np.int8)
        self.ce_idx = np.flatnonzero(self.chg_cat == _CAT_CE)
        self.be_idx = np.flatnonzero(self.chg_cat == _CAT_BE)
        self.words = program.words()
        self.halt_word = self.words[-1]

    # ------------------------------------------------------------------
    # Profiler attribution tables (built on first profiled run)
    # ------------------------------------------------------------------

    def prof_tables(self) -> dict:
        """Per-scope gather indices into the charge table.

        For each scope id: the CE / BE charge indices whose pc lies in
        that scope's subtree, the pc count (latency + instruction
        counts), and the charge indices / pc count of the pcs whose
        *leaf* scope it is (self-energy / self-latency).
        """
        if self._prof_tables is not None:
            return self._prof_tables
        table = self.program.scope_table
        scope_ids = self.program.scope_ids
        n_sids = len(table)
        member = np.zeros((n_sids, self.n_instructions), dtype=bool)
        for pc, sid in enumerate(scope_ids):
            s = sid
            while s >= 0:
                member[s, pc] = True
                s = table.parents[s]
        leaf_of_pc = np.asarray(scope_ids, dtype=np.intp)
        ce_pc = self.chg_pc[self.ce_idx]
        be_pc = self.chg_pc[self.be_idx]
        per_sid = {}
        for sid in range(n_sids):
            mask = member[sid]
            leaf_mask = leaf_of_pc == sid
            per_sid[sid] = (
                self.ce_idx[mask[ce_pc]],
                self.be_idx[mask[be_pc]],
                int(mask.sum()),
                self.chg_pc_sorted_idx(leaf_mask),
                int(leaf_mask.sum()),
            )
        self._prof_tables = per_sid
        return per_sid

    def chg_pc_sorted_idx(self, pc_mask: np.ndarray) -> np.ndarray:
        """Charge indices (in table order) whose pc satisfies the mask."""
        return np.flatnonzero(pc_mask[self.chg_pc])

    # ------------------------------------------------------------------
    # Packed-row tables (built on the first continuous or batched run)
    # ------------------------------------------------------------------

    def packed(self) -> PackedPlan:
        """The plan's ops on packed rows and its logic-energy groups
        (:class:`PackedPlan`); nothing in them depends on the batch
        size."""
        if self._packed is None:
            self._packed = self._build_packed()
        return self._packed

    def _build_packed(self) -> PackedPlan:
        cols = self.cols
        # Position of each charge slot in the compute-energy chain.
        chain_at = np.zeros(self.chg_vals.size, dtype=np.intp)
        chain_at[self.ce_idx] = np.arange(self.ce_idx.size)
        mask_ids: dict[int, int] = {}
        active_sets: dict[int, tuple] = {}
        groups: dict[tuple, tuple] = {}
        shared: dict[tuple, tuple] = {}
        aterms: list[float] = []
        logic_at: list[int] = []
        logic_pcs: list[int] = []
        execute = np.zeros(self.n_instructions, dtype=np.float64)
        log_at: list[int] = []
        writes: list[tuple] = []
        ln = []
        ops: list[tuple] = []
        logged = 0

        def active(sel) -> tuple:
            """``(row mask, mask id, width, energy selector)`` of an
            active-column selector; the plan shares one selector object
            per active set, so each is worked out once."""
            entry = active_sets.get(id(sel))
            if entry is None:
                mask = _row_mask(sel)
                if isinstance(sel, slice):
                    width = sel.stop - sel.start
                else:
                    width = len(sel)
                entry = active_sets[id(sel)] = (
                    mask,
                    mask_ids.setdefault(mask, len(mask_ids)),
                    width,
                    None if width == cols else sel,
                )
            return entry

        def member(gate, logic) -> tuple[int, int]:
            """Add a gate's logged inputs to its energy group (one per
            kernel and active set, which its row mask names whatever
            the selector's form, and apart for the gates of broadcast
            ops, whose ``logic`` is None); returns ``(group,
            member)``."""
            nonlocal logged
            _, ins, _, sel, kern = gate
            mask, _, width, esel = active(sel)
            key = (id(kern), logic is None, mask)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = (
                    len(groups), kern[0], esel, width, len(ins), [], []
                )
            entry[5].extend(range(logged, logged + len(ins)))
            entry[6].append(logic)
            logged += len(ins)
            return entry[0], len(entry[6]) - 1

        def add(op: tuple) -> None:
            """Append a packed op, sharing one tuple per distinct op."""
            ops.append(shared.setdefault(op, op))

        for pc, op in enumerate(self.ops):
            k = op[0]
            log_at.append(logged)
            written: tuple = ()  # the (tile, row) pairs the op writes
            if k < K_L1:
                execute[pc] = op[1]
            if k == K_PRESET:
                sets = tuple((t, row, active(sel)[1]) for t, row, sel in op[2])
                written = tuple((t, row) for t, row, _ in sets)
                if len(sets) == 1:
                    add((P_SET if op[3] else P_CLR,) + sets[0])
                else:
                    add((P_PRESET, sets, op[3]))
            elif k >= K_L1:
                logic = len(logic_at)
                aterms.append(op[2])
                logic_at.append(int(chain_at[op[1]]))
                logic_pcs.append(pc)
                written = tuple((gate[0], gate[2]) for gate in op[3])
                if k == K_LN:
                    parts = tuple(member(gate, None) for gate in op[3])
                    ln.append((logic, parts))
                    add((P_GATES, tuple(
                        (tile, ins, orow, mask_ids[mask], counts, target)
                        for tile, ins, orow, mask, counts, target in packed_gates(op)
                    )))
                else:
                    (gate,) = op[3]
                    member(gate, logic)
                    tile, ins, orow, sel, kern = gate
                    m = active(sel)[1]
                    counts, target = kern[2], bool(kern[1])
                    t = len(counts)
                    if counts != tuple(range(t)) or not 0 < t <= len(ins) <= 2:
                        add((P_GATES, ((tile, ins, orow, m, counts, target),)))
                    elif len(ins) == 1:
                        add((P_G1, tile, ins[0], orow, m, target))
                    else:
                        add((P_G2, tile, *ins, orow, m, t == 2, target))
            elif k == K_READ:
                add((P_READ, op[2], op[3]))
            elif k == K_WRITE:
                written = tuple((t, op[3]) for t in op[2])
                add((P_WRITE, op[2], op[3]))
            elif k == K_ACT:
                add((P_ACT, op[3]))
            else:
                add((P_HALT,))
            writes.append(shared.setdefault(written, written))
        return PackedPlan(
            ops=ops,
            row_masks=tuple(mask_ids),
            groups=tuple(
                (energy, sel, width, k, np.asarray(positions, dtype=np.intp),
                 None if members[0] is None else np.asarray(members, dtype=np.intp))
                for _, energy, sel, width, k, positions, members in groups.values()
            ),
            ln=tuple(ln),
            aterms=np.asarray(aterms, dtype=np.float64),
            logic_at=np.asarray(logic_at, dtype=np.intp),
            logic_pcs=np.asarray(logic_pcs, dtype=np.intp),
            execute=execute,
            log_at=np.asarray(log_at, dtype=np.intp),
            writes=tuple(writes),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def flip_targets(self, pc: int) -> tuple[tuple[int, int, np.ndarray], ...]:
        """``(tile, output row, active columns)`` of each gate the logic
        op at ``pc`` fires, in target-tile order: the cells a gate-output
        flip can hit, in the order the fault hook draws them."""
        out = []
        for tile, _, orow, sel, _ in self.ops[pc][3]:
            if isinstance(sel, slice):
                sel = np.arange(sel.start, sel.stop)
            out.append((tile, orow, sel))
        return tuple(out)

    def stats(self) -> dict:
        return {
            "instructions": self.n_instructions,
            "charges": int(self.chg_vals.size),
            "logic_dynamic": self.n_logic_dynamic,
            "activates": self.n_activates,
            "replay_stable": bool(self.replay_stable),
            "lint_warnings": self.lint_warnings,
        }

    def to_program(self) -> Program:
        """Reconstruct a Program from the plan's internal records.

        Used as translation validation: the PR 8 `EquivalencePass`
        proves the reconstruction symbolically equivalent to the source
        program, so the plan demonstrably captured the instruction
        stream it claims to execute.
        """
        instrs = []
        for pc, op in enumerate(self.ops):
            k = op[0]
            src = self.program.instructions[pc]
            if k == K_HALT:
                instrs.append(HaltInstruction())
            elif k == K_ACT:
                instrs.append(decode(op[2]))
            elif k == K_READ:
                instrs.append(MemoryInstruction("READ", op[2], op[3]))
            elif k == K_WRITE:
                assert isinstance(src, MemoryInstruction)
                instrs.append(MemoryInstruction("WRITE", src.tile, op[3]))
            elif k == K_PRESET:
                assert isinstance(src, MemoryInstruction)
                instrs.append(
                    MemoryInstruction(
                        "PRESET1" if op[3] else "PRESET0",
                        src.tile,
                        op[2][0][1] if op[2] else src.row,
                    )
                )
            else:  # logic kinds
                assert isinstance(src, LogicInstruction)
                instrs.append(
                    LogicInstruction(
                        src.gate, src.tile,
                        tuple(src.input_rows), src.output_row,
                    )
                )
        return Program(instrs, name=f"{self.program.name}.plan")


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
    lint_warnings = len(report.diagnostics) - report.n_errors
    return CompiledPlan(
        program, cost, n_data_tiles, rows, cols, lint_warnings=lint_warnings
    )


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
