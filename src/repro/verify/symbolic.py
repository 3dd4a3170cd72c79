"""A truth-table symbolic interpreter for MOUSE programs.

The machine semantics are column-independent: READ/WRITE move whole
rows per column, presets and logic execute only in the latched active
columns, and the transfer buffer's column ``c`` only ever mixes with
array column ``c``.  Interpreting the program at one *focus column* is
therefore exact — every cell's value at that column is a pure Boolean
function of the program's inputs at that column.

This module tracks those functions as truth-table bitsets: a function
of ``n`` input variables is a plain Python int of ``2**n`` bits, where
bit ``a`` is the function's value under assignment ``a`` (variable
``j`` holds bit ``(a >> j) & 1``).  Variables are allocated lazily, on
the first read of a cell no instruction has defined — exactly the
host-loaded operands of a compiled classifier — and shared through a
:class:`VarSpace` so two programs interpreted against the same space
have corresponding variables (the hardening-equivalence prover relies
on this).

Gate semantics are Table I, bit-exact against
:meth:`repro.logic.gates.GateSpec.evaluate`: the output switches to the
complement of its preset iff at most ``ones_threshold`` inputs are 1,
and otherwise *keeps its current value* — the preset is a separate
instruction, which is what makes dropped presets, wrong polarities, and
masked-out columns semantically visible here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Hashable, Optional

import numpy as np

from repro.array.bank import BROADCAST_TILE, SENSOR_TILE
from repro.core.program import Program
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    Instruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint.config import LintConfig
from repro.logic.library import gate_by_name


class SymbolicError(ValueError):
    """The program stepped outside the symbolic domain (bad address,
    unknown gate, ...) — anything the structural lint would reject."""


class VarSpace:
    """An ordered registry of Boolean input variables.

    Keys are hashable cell identities — ``("cell", tile, row)`` for
    host-loaded operands, ``("sensor", row, occurrence)`` for sensor
    samples — and allocation order fixes the truth-table bit layout.
    Machines sharing one space agree on what every variable means.
    """

    def __init__(self, max_vars: int = 24) -> None:
        self.keys: list[Hashable] = []
        self.index: dict[Hashable, int] = {}
        self.max_vars = max_vars

    @property
    def n(self) -> int:
        return len(self.keys)

    def var(self, key: Hashable) -> int:
        """Index of ``key``'s variable, allocating it if new."""
        found = self.index.get(key)
        if found is not None:
            return found
        if len(self.keys) >= self.max_vars:
            raise SymbolicError(
                f"program needs more than {self.max_vars} input variables; "
                "truth-table verification is configured for at most that "
                "many (seed known-constant cells, or raise max_vars)"
            )
        self.index[key] = len(self.keys)
        self.keys.append(key)
        return self.index[key]


def extend_table(table: int, from_n: int, to_n: int) -> int:
    """Lift a truth table over ``from_n`` variables to ``to_n``.

    The new variables are don't-cares: each doubling replicates the
    table into the upper half of the assignment space.
    """
    for n in range(from_n, to_n):
        table |= table << (1 << n)
    return table


def var_table(j: int, n: int) -> int:
    """The truth table of variable ``j`` over ``n`` variables."""
    if not 0 <= j < n:
        raise ValueError(f"variable {j} outside a {n}-variable space")
    # Variable j is 1 on assignments whose j-th bit is set: blocks of
    # 2**j ones alternating with 2**j zeros, starting with zeros.
    block = ((1 << (1 << j)) - 1) << (1 << j)  # 0^(2^j) 1^(2^j), LSB first
    return extend_table(block, j + 1, n)


def table_to_array(table: int, n: int) -> np.ndarray:
    """A truth-table int as a bool array indexed by assignment."""
    size = 1 << n
    raw = table.to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:size].astype(bool)

def array_to_table(values: np.ndarray) -> int:
    """Inverse of :func:`table_to_array`."""
    packed = np.packbits(values.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@dataclass
class SymbolicState:
    """A snapshot of one machine's abstract state (at the focus column)."""

    cells: dict[tuple[int, int], int] = field(default_factory=dict)
    buffer: Optional[int] = None
    masks: dict[int, Optional[frozenset[int]]] = field(default_factory=dict)
    n_vars: int = 0

    def copy(self) -> "SymbolicState":
        return SymbolicState(
            cells=dict(self.cells),
            buffer=self.buffer,
            masks=dict(self.masks),
            n_vars=self.n_vars,
        )


def _sync_state(state: SymbolicState, n: int) -> None:
    """Extend every stored table to an ``n``-variable space."""
    if state.n_vars == n:
        return
    for key, table in state.cells.items():
        state.cells[key] = extend_table(table, state.n_vars, n)
    if state.buffer is not None:
        state.buffer = extend_table(state.buffer, state.n_vars, n)
    state.n_vars = n


def states_equal(a: SymbolicState, b: SymbolicState, n: int) -> bool:
    _sync_state(a, n)
    _sync_state(b, n)
    keys = set(a.cells) | set(b.cells)
    zero = 0
    for key in keys:
        if a.cells.get(key, zero) != b.cells.get(key, zero):
            return False
    return a.buffer == b.buffer


class SymbolicMachine:
    """Abstract interpretation of one program at one focus column.

    Parameters
    ----------
    config:
        Bank shape (tiles/rows/cols) — the same context the linter and
        ``Program.validate`` take.
    focus_column:
        The column whose Boolean functions are tracked.  Columns with
        identical mask-membership histories are equivalent, so compiled
        single-mask programs are fully covered by any in-mask column.
    space:
        Shared :class:`VarSpace`; a fresh one is created if omitted.
    resample_sensors:
        When true, every sensor READ draws a *fresh* variable (keyed by
        occurrence) instead of reusing the row's variable — the replay
        model, where a re-executed transfer re-samples the environment.
    """

    def __init__(
        self,
        config: LintConfig,
        focus_column: int = 0,
        space: Optional[VarSpace] = None,
        resample_sensors: bool = False,
    ) -> None:
        if not 0 <= focus_column < config.cols:
            raise ValueError(
                f"focus column {focus_column} outside a "
                f"{config.cols}-column bank"
            )
        self.config = config
        self.focus = focus_column
        self.space = space if space is not None else VarSpace()
        self.resample_sensors = resample_sensors
        self.state = SymbolicState(
            masks={t: None for t in range(config.n_data_tiles)}
        )
        self._sensor_reads = 0
        #: Last program counter that defined each cell — SEM002 ("never
        #: written") and diagnostic anchoring both read this.
        self.writers: dict[tuple[int, int], int] = {}
        self._pc = -1

    # ------------------------------------------------------------------
    # Table helpers (all relative to the space's current width)
    # ------------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self.space.n

    @property
    def _ones(self) -> int:
        return (1 << (1 << self.space.n)) - 1

    def const(self, value: bool) -> int:
        return self._ones if value else 0

    def _not(self, table: int) -> int:
        return table ^ self._ones

    def _sync(self) -> None:
        _sync_state(self.state, self.space.n)

    def _fresh_var(self, key: Hashable) -> int:
        j = self.space.var(key)
        self._sync()
        return var_table(j, self.space.n)

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def cell(self, tile: int, row: int) -> int:
        """The cell's function, allocating an input variable on a
        read-before-define (a host-loaded operand)."""
        self._sync()
        found = self.state.cells.get((tile, row))
        if found is not None:
            return found
        table = self._fresh_var(("cell", tile, row))
        self.state.cells[(tile, row)] = table
        return table

    def set_cell(self, tile: int, row: int, table_or_bit) -> None:
        """Seed or overwrite a cell (e.g. bake model constants in)."""
        self._sync()
        if isinstance(table_or_bit, bool) or table_or_bit in (0, 1):
            table = self.const(bool(table_or_bit))
        else:
            table = int(table_or_bit)
        self.state.cells[(tile, row)] = table

    def seed_constants(self, cells: dict[tuple[int, int], int]) -> None:
        """Bake ``{(tile, row): bit}`` as known-constant cells."""
        for (tile, row), bit in cells.items():
            self.set_cell(tile, row, bool(bit))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _target_tiles(self, tile: int) -> tuple[int, ...]:
        tiles = self.config.target_tiles(tile)
        if not tiles and tile != SENSOR_TILE:
            raise SymbolicError(
                f"tile {tile} outside a bank with "
                f"{self.config.n_data_tiles} data tile(s)"
            )
        return tiles

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.config.rows:
            raise SymbolicError(
                f"row {row} outside a {self.config.rows}-row bank"
            )

    def _focus_active(self, tile: int) -> bool:
        mask = self.state.masks.get(tile)
        return mask is not None and self.focus in mask

    def execute(self, instr: Instruction) -> None:
        """Apply one instruction's exact semantics at the focus column."""
        if isinstance(instr, HaltInstruction):
            return
        if isinstance(instr, ActivateColumnsInstruction):
            self._execute_activate(instr)
        elif isinstance(instr, MemoryInstruction):
            self._execute_memory(instr)
        elif isinstance(instr, LogicInstruction):
            self._execute_logic(instr)
        else:  # pragma: no cover - decode produces only the above
            raise SymbolicError(f"cannot interpret {type(instr).__name__}")

    def _execute_activate(self, instr: ActivateColumnsInstruction) -> None:
        if instr.bulk:
            first, last = instr.columns
            mask = frozenset(range(first, min(last, self.config.cols - 1) + 1))
        else:
            mask = frozenset(c for c in instr.columns if c < self.config.cols)
        for t in self._target_tiles(instr.tile):
            self.state.masks[t] = mask  # the latch replaces, never unions

    def _execute_memory(self, instr: MemoryInstruction) -> None:
        op = instr.op.upper()
        self._check_row(instr.row)
        if op == "READ":
            if instr.tile == SENSOR_TILE:
                if self.resample_sensors:
                    key = ("sensor", instr.row, self._sensor_reads)
                    self._sensor_reads += 1
                else:
                    key = ("sensor", instr.row)
                self.state.buffer = self._fresh_var(key)
            else:
                (tile,) = self._target_tiles(instr.tile)
                self.state.buffer = self.cell(tile, instr.row)
            return
        if op == "WRITE":
            if self.state.buffer is None:
                raise SymbolicError(
                    "WRITE before any READ filled the row buffer"
                )
            self._sync()
            for t in self._target_tiles(instr.tile):
                self.state.cells[(t, instr.row)] = self.state.buffer
                self.writers[(t, instr.row)] = self._pc
            return
        # PRESET0 / PRESET1: active columns only.
        value = op == "PRESET1"
        self._sync()
        for t in self._target_tiles(instr.tile):
            if self._focus_active(t):
                self.state.cells[(t, instr.row)] = self.const(value)
                self.writers[(t, instr.row)] = self._pc

    def gate_table(self, spec, inputs: list[int], out_old: int) -> int:
        """The post-gate output function, without committing it.

        The switch condition is an OR of minterms with few enough
        logic-1 inputs (<= 2**n_inputs terms, n_inputs <= 3 in the
        library); ``out = switch ? !preset : out_old`` — the
        keep-current-value branch is what makes dropped presets and
        double execution semantically visible.
        """
        switch = 0
        for bits in product((0, 1), repeat=spec.n_inputs):
            if not spec.switches(sum(bits)):
                continue
            minterm = self._ones
            for bit, table in zip(bits, inputs):
                minterm &= table if bit else self._not(table)
            switch |= minterm
        target = self.const(not spec.preset)
        return (switch & target) | (self._not(switch) & out_old)

    def _execute_logic(self, instr: LogicInstruction) -> None:
        spec = gate_by_name(instr.gate)
        for row in (*instr.input_rows, instr.output_row):
            self._check_row(row)
        for t in self._target_tiles(instr.tile):
            if not self._focus_active(t):
                continue  # un-latched / out-of-mask: a silent no-op
            # Touch every operand first: allocating a fresh variable
            # grows the table width, so fetching must happen only after
            # the width for this instruction is final.
            for row in (*instr.input_rows, instr.output_row):
                self.cell(t, row)
            inputs = [self.cell(t, row) for row in instr.input_rows]
            out_old = self.cell(t, instr.output_row)
            new = self.gate_table(spec, inputs, out_old)
            self.state.cells[(t, instr.output_row)] = new
            self.writers[(t, instr.output_row)] = self._pc

    def run(self, program: Program, start: int = 0, stop: Optional[int] = None):
        """Interpret ``program[start:stop]``, stopping at the first HALT."""
        end = len(program) if stop is None else stop
        for pc in range(start, end):
            instr = program[pc]
            if isinstance(instr, HaltInstruction):
                break
            self._pc = pc
            self.execute(instr)
        return self

    # ------------------------------------------------------------------
    # Snapshots (for the re-execution prover)
    # ------------------------------------------------------------------

    def snapshot(self) -> SymbolicState:
        self._sync()
        return self.state.copy()

    def restore(self, state: SymbolicState) -> None:
        self.state = state.copy()
        self._sync()
