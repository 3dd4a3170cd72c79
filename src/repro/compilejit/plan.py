"""AOT compilation of a linted Program into a fused execution plan.

A :class:`CompiledPlan` freezes everything about a straight-line CRAM
program that does not depend on array *data*: per-instruction kernel
tables, precomputed active-column gathers (``np.ix_`` meshes), static
energy terms evaluated through the same cost-model code paths the
interpreter uses, and a flat **charge table** mirroring the exact
per-microstep ledger charges the scalar controller would make.  The
executors in :mod:`repro.compilejit.exec` then replay a whole commit
window op by op and reduce the charge table with
``np.add.accumulate`` — which is bit-identical to the interpreter's
sequential ``+=`` chain, so `Breakdown`s match to the last ulp.

Continuous runs and lock-step batches run the plan's packed-row ops
(:meth:`CompiledPlan.packed`), built on the plan's first such run.
The fused intermittent loop applies its ops one at a time to one
machine: every op has a NumPy form, and a single-tile gate or a preset
set whose active set holds at most :data:`CELL_COLUMNS` columns also
has a *per-cell* form: the sorted active columns as one tuple shared
by every op on that set, the flat byte offsets of its rows, and the
gate kernel's ladders as Python tuples shared per kernel, so the loop
applies it one cell at a time with Python ints (see
:func:`repro.compilejit.exec.apply_op`).

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

# Fast-op codes (first element of every op tuple).  Logic kinds that
# carry a run-time energy slot come last (``k >= K_L1S``).
K_HALT = 0
K_ACT = 1
K_PRESET = 2
K_READ = 3
K_WRITE = 4
K_L1S = 5  # logic, single tile, contiguous active range (slice views)
K_L1P = 6  # logic, single tile, non-contiguous active set (index mesh)
K_LN = 7  # logic, broadcast across several tiles

# Op layouts:
#   (K_HALT, 0.0)
#   (K_ACT, energy, word, ((tile, bulk, columns), ...))
#   (K_PRESET, energy, ((tile, row, sel, cells, base), ...), value)
#   (K_READ, energy, tile, row)
#   (K_WRITE, energy, tiles, row)
#   (K_L1S, slot, aterm, tile, rows, orow, slice, kern, cells, bases, obase)
#   (K_L1P, slot, aterm, tile, mesh, orow, aidx, kern, cells, bases, obase)
#   (K_LN, slot, aterm, (gate, ...))  # K_L1S / K_L1P gates, slot None
# ``kern`` is :func:`gate_kernel`'s record.  ``cells`` is the per-cell
# form's sorted active-column tuple and ``base`` / ``bases`` / ``obase``
# the flat offsets of the rows it touches.  ``cells`` is None when the
# set is wider than CELL_COLUMNS or the gate is one of a K_LN's, and a
# gate's ``bases`` and ``obase`` are then None too.

#: Widest active set with a per-cell form.  NumPy sums fewer than 8
#: float64 values left to right from 0.0 and pairwise from 8 on, so a
#: per-cell energy sum in column order equals the NumPy form's
#: ``en.take(n1).sum()`` (and ``Tile.logic_op``'s) bit for bit
#: only up to 7 columns.
CELL_COLUMNS = 7

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
    """``(will_switch, energy, target, will_switch_t, energy_t,
    counts)`` of one technology/gate pair: the electrical kernel's
    ladders as arrays for the NumPy form and as Python tuples for the
    per-cell form, and the counts of 1 inputs that switch a cell for
    the packed form, built once per pair and shared by every plan."""
    kern = electrical_kernel(params, spec)
    return (
        kern.will_switch,
        kern.energy,
        kern.target,
        tuple(bool(x) for x in kern.will_switch),
        tuple(float(x) for x in kern.energy),
        tuple(n for n, switch in enumerate(kern.will_switch) if switch),
    )


class PlanUnsupported(Exception):
    """The program cannot be compiled; run it on the interpreter."""


class PackedPlan(NamedTuple):
    """The packed-row tables of a plan (:meth:`CompiledPlan.packed`).

    Every gate appends its input rows, as read, to the executor's log:
    op after op, gate after gate, input after input.  ``groups`` gather
    those entries back for the logic energies, one group per kernel and
    active set: ``(energy, sel, width, n_inputs, positions, members)``,
    where ``energy`` is the kernel's per-count energy table, ``sel``
    picks the active columns of a row (None for all), ``width`` counts
    them, ``positions`` are the log entries of the members' inputs,
    member after member, and ``members`` number the members' logic ops
    in pc order.  The gates of broadcast ops form groups of their own
    with no ``members``: ``ln`` combines them per op as ``(logic op,
    ((group, member), ...))``.  ``aterms`` and ``logic_at`` are each
    logic op's address term and its position in the plan's
    compute-energy chain (``chg_vals[ce_idx]``), in pc order."""

    ops: list
    row_masks: tuple
    groups: tuple
    ln: tuple
    aterms: np.ndarray
    logic_at: np.ndarray


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
        (
            gate[3],
            _inputs(gate),
            gate[5],
            _row_mask(gate[6]),
            gate[7][5],
            bool(gate[7][2]),
        )
        for gate in (op[3] if op[0] == K_LN else (op,))
    )


def _inputs(gate) -> tuple:
    """A single-tile gate's input rows."""
    return gate[4] if gate[0] == K_L1S else tuple(gate[4][0].ravel().tolist())


def _act_spec(instr: ActivateColumnsInstruction):
    """Canonical activation state left by one ACTIVATE instruction."""
    if instr.bulk:
        first, last = instr.columns
        return ("range", int(first), int(last))
    return ("set", tuple(sorted(set(int(c) for c in instr.columns))))


def _spec_index(spec) -> np.ndarray:
    """Active-column index array, identical to Tile._refresh_active_index.

    Both `Tile.activate_columns` (bool mask + flatnonzero) and
    `Tile.activate_column_range` yield a sorted, deduplicated intp
    array; we rebuild the same thing from the canonical spec.
    """
    if spec[0] == "range":
        return np.arange(spec[1], spec[2] + 1, dtype=np.intp)
    return np.asarray(spec[1], dtype=np.intp)


def _spec_count(spec) -> int:
    if spec[0] == "range":
        return spec[2] - spec[1] + 1
    return len(spec[1])


def _spec_slice(spec) -> Optional[slice]:
    """``slice(c0, c1+1)`` when the active set is contiguous, else None.

    Basic (slice) indexing selects exactly the same cells as the sorted
    fancy index but returns *views*, so the executors can gather input
    rows and mask-store the output row without allocating index meshes.
    """
    if spec[0] == "range":
        return slice(spec[1], spec[2] + 1)
    cols = spec[1]
    if cols and cols[-1] - cols[0] + 1 == len(cols):
        return slice(cols[0], cols[-1] + 1)
    return None


def _spec_sel(spec):
    """Column selector for an active set: a slice when contiguous, else
    the sorted index array."""
    sl = _spec_slice(spec)
    return sl if sl is not None else _spec_index(spec)


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
        # One selector / index mesh / column tuple / row-offset object
        # per distinct active set (and input rows), shared by every op
        # that uses it.
        sel_cache: dict = {}
        mesh_cache: dict = {}
        cells_cache: dict = {}
        offset_cache: dict = {}

        def selector(spec):
            sel = sel_cache.get(spec)
            if sel is None:
                sel = sel_cache[spec] = _spec_sel(spec)
            return sel

        def cells(spec) -> Optional[tuple[int, ...]]:
            """The per-cell form's sorted active columns, or None when
            the set is wider than CELL_COLUMNS."""
            if spec not in cells_cache:
                cells_cache[spec] = (
                    tuple(int(c) for c in _spec_index(spec))
                    if _spec_count(spec) <= CELL_COLUMNS
                    else None
                )
            return cells_cache[spec]

        def offset(rows):
            """The flat offset in a C-ordered ``(rows, cols)`` state of
            a row (an int), or of each row of a tuple."""
            off = offset_cache.get(rows)
            if off is None:
                off = offset_cache[rows] = (
                    rows * cols
                    if isinstance(rows, int)
                    else tuple(r * cols for r in rows)
                )
            return off

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
                    sets = tuple(
                        (t, instr.row, selector(full[t]), cells(full[t]),
                         offset(instr.row))
                        for t in tiles
                    )
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
                # One gate per target tile, laid out as a single-tile op
                # whose slot and address term stay None until the op is
                # known to be single-tile.  A contiguous set (one column
                # and all columns included) gathers through row-slice
                # views, any other set through an ``np.ix_`` mesh.  Only
                # a single-tile gate gets a per-cell form.
                single = len(tiles) == 1
                gates = []
                for t in tiles:
                    sel = selector(full[t])
                    col_t = cells(full[t]) if single else None
                    if col_t is None:
                        tail = (kern, None, None, None)
                    else:
                        tail = (kern, col_t, offset(rows_t), offset(orow))
                    if isinstance(sel, slice):
                        gates.append(
                            (K_L1S, None, None, t, rows_t, orow, sel) + tail
                        )
                        continue
                    key = (rows_t, full[t])
                    mesh = mesh_cache.get(key)
                    if mesh is None:
                        mesh = mesh_cache[key] = np.ix_(rows_t, sel)
                    gates.append((K_L1P, None, None, t, mesh, orow, sel) + tail)
                self.n_logic_dynamic += 1
                slot = charge(_CAT_CE, 0.0, pc)
                if len(gates) == 1:
                    gate = gates[0]
                    self.ops.append((gate[0], slot, aterm) + gate[3:])
                else:
                    self.ops.append((K_LN, slot, aterm, tuple(gates)))
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

        def member(gate, ins, logic) -> tuple[int, int]:
            """Add a gate's logged inputs to its energy group (one per
            kernel and active set, which its row mask names whatever
            the selector's form, and apart for the gates of broadcast
            ops, whose ``logic`` is None); returns ``(group,
            member)``."""
            nonlocal logged
            kern = gate[7]
            mask, _, width, sel = active(gate[6])
            key = (id(kern), logic is None, mask)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = (
                    len(groups), kern[1], sel, width, len(ins), [], []
                )
            entry[5].extend(range(logged, logged + len(ins)))
            entry[6].append(logic)
            logged += len(ins)
            return entry[0], len(entry[6]) - 1

        def add(op: tuple) -> None:
            """Append a packed op, sharing one tuple per distinct op."""
            ops.append(shared.setdefault(op, op))

        for op in self.ops:
            k = op[0]
            if k == K_PRESET:
                sets = tuple((t, row, active(sel)[1]) for t, row, sel, _, _ in op[2])
                if len(sets) == 1:
                    add((P_SET if op[3] else P_CLR,) + sets[0])
                else:
                    add((P_PRESET, sets, op[3]))
            elif k == K_L1S or k == K_L1P:
                ins = _inputs(op)
                member(op, ins, len(logic_at))
                aterms.append(op[2])
                logic_at.append(int(chain_at[op[1]]))
                tile, orow, kern = op[3], op[5], op[7]
                m = active(op[6])[1]
                counts, target = kern[5], bool(kern[2])
                t = len(counts)
                if counts != tuple(range(t)) or not 0 < t <= len(ins) <= 2:
                    add((P_GATES, ((tile, ins, orow, m, counts, target),)))
                elif len(ins) == 1:
                    add((P_G1, tile, ins[0], orow, m, target))
                else:
                    add((P_G2, tile, *ins, orow, m, t == 2, target))
            elif k == K_LN:
                parts = tuple(member(gate, _inputs(gate), None) for gate in op[3])
                ln.append((len(logic_at), parts))
                aterms.append(op[2])
                logic_at.append(int(chain_at[op[1]]))
                add((P_GATES, tuple(
                    (tile, ins, orow, mask_ids[mask], counts, target)
                    for tile, ins, orow, mask, counts, target in packed_gates(op)
                )))
            elif k == K_READ:
                add((P_READ, op[2], op[3]))
            elif k == K_WRITE:
                add((P_WRITE, op[2], op[3]))
            elif k == K_ACT:
                add((P_ACT, op[3]))
            else:
                add((P_HALT,))
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
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def flip_targets(self, pc: int) -> tuple[tuple[int, int, np.ndarray], ...]:
        """``(tile, output row, active columns)`` of each gate the logic
        op at ``pc`` fires, in target-tile order: the cells a gate-output
        flip can hit, in the order the fault hook draws them."""
        op = self.ops[pc]
        out = []
        for gate in op[3] if op[0] == K_LN else (op,):
            sel = gate[6]
            if gate[0] == K_L1S:
                sel = np.arange(sel.start, sel.stop)
            out.append((gate[3], gate[5], sel))
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
