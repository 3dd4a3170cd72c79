"""Program container: an instruction sequence plus static validation.

Because MOUSE performs inference only, "the sequence of instructions
performed doesn't change as a function of inputs at runtime"
(Section IV-B) — a program is a straight line of instructions ending in
HALT, executed one per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.array.bank import BROADCAST_TILE, SENSOR_TILE
from repro.array.lines import check_logic_rows
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    Instruction,
    LogicInstruction,
    MemoryInstruction,
    encode,
)


class ScopeTable:
    """Interned compile-time scope stack (classifier > layer > macro).

    Scopes form a tree: id 0 is the root (the program itself), every
    other id names one ``(parent, name)`` pair.  Paths are interned —
    opening ``multiply`` twice under the same parent yields the same
    id — so the table stays small however long the program is, and a
    per-instruction scope id costs one int.

    The table is recorded while :class:`~repro.compile.builder.
    ProgramBuilder` emits (macros open and close scopes), carried on
    the :class:`Program`, and consumed at run time by
    :class:`repro.obs.prof.EnergyProfiler` — attribution needs no
    execution-time guessing because every pc maps to its compile-time
    scope exactly.
    """

    def __init__(self) -> None:
        self.parents: list[int] = [-1]
        self.names: list[str] = [""]
        self._interned: dict[tuple[int, str], int] = {}

    def __len__(self) -> int:
        return len(self.names)

    def child(self, parent: int, name: str) -> int:
        """The (interned) id of ``name`` under ``parent``."""
        if not 0 <= parent < len(self.names):
            raise ValueError(f"unknown parent scope {parent}")
        if not name:
            raise ValueError("scope names cannot be empty")
        key = (parent, name)
        sid = self._interned.get(key)
        if sid is None:
            sid = len(self.names)
            self.parents.append(parent)
            self.names.append(name)
            self._interned[key] = sid
        return sid

    def path(self, sid: int) -> tuple[str, ...]:
        """Root-to-scope name path (the root contributes nothing)."""
        parts: list[str] = []
        while sid > 0:
            parts.append(self.names[sid])
            sid = self.parents[sid]
        return tuple(reversed(parts))

    def to_json_obj(self) -> dict:
        return {"parents": list(self.parents), "names": list(self.names)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScopeTable":
        table = cls()
        parents = [int(p) for p in obj["parents"]]
        names = [str(n) for n in obj["names"]]
        if len(parents) != len(names) or not names or names[0] != "":
            raise ValueError("malformed scope table")
        table.parents = parents
        table.names = names
        table._interned = {
            (parents[i], names[i]): i for i in range(1, len(names))
        }
        return table


@dataclass
class Program:
    """An executable MOUSE program.

    Besides the instruction list, a program carries its compile-time
    **scope annotations**: ``scope_table`` (the interned scope tree)
    and ``scope_ids`` (one id per instruction, aligned by pc).  Both
    are excluded from equality/repr — two programs with the same
    instructions behave identically regardless of how their compilers
    labelled them.

    ``harden_meta`` is the optional error-resilience side-table written
    by :func:`repro.harden.harden_program` (or by
    :meth:`~repro.compile.builder.ProgramBuilder.mark_verify`): the
    ``repro.harden/v1`` dict naming the verify-marked pcs, the TMR
    groups, and the placement policy.  Like the scope annotations it is
    excluded from equality — protection changes *which instructions
    exist*, not how a given instruction behaves, and the metadata is
    advisory for the fault layer and the SDC lint rules.

    A program is encoded and validated once: :meth:`words` memoises the
    encoded words and :meth:`validate` the bank geometries it has
    accepted, so loading one program into many machines pays for
    neither again.  The memo rests on one rule: instructions are added
    only through :meth:`append` / :meth:`extend` (which drop it, and
    any compiled plans cached on the program), never by editing
    ``instructions`` in place.  To rewrite a program, build the
    instruction and scope-id lists first and construct a new
    ``Program`` from them.
    """

    instructions: list[Instruction] = field(default_factory=list)
    name: str = "program"
    scope_table: ScopeTable = field(
        default_factory=ScopeTable, repr=False, compare=False
    )
    scope_ids: list[int] = field(default_factory=list, repr=False, compare=False)
    harden_meta: Optional[dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._scope = 0
        # Instructions supplied at construction predate any scope
        # recording: they belong to the root scope.
        if len(self.scope_ids) < len(self.instructions):
            self.scope_ids.extend(
                [0] * (len(self.instructions) - len(self.scope_ids))
            )
        self._forget()

    def _forget(self) -> None:
        """Drop everything memoised from the instructions: the encoded
        words, the accepted geometries and any compiled plans."""
        self._words: Optional[list[int]] = None
        self._valid_shapes: set[tuple[int, int, int]] = set()
        self.__dict__.pop("_cjit_plans", None)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def append(self, instr: Instruction) -> None:
        self.instructions.append(instr)
        self.scope_ids.append(self._scope)
        self._forget()

    def extend(self, instrs: Sequence[Instruction]) -> None:
        for instr in instrs:
            self.append(instr)

    # ------------------------------------------------------------------
    # Scope recording (compile-time)
    # ------------------------------------------------------------------

    def enter_scope(self, name: str) -> int:
        """Open a child scope; subsequent appends carry its id."""
        self._scope = self.scope_table.child(self._scope, name)
        return self._scope

    def exit_scope(self) -> None:
        if self._scope == 0:
            raise RuntimeError("cannot exit the root scope")
        self._scope = self.scope_table.parents[self._scope]

    @property
    def current_scope(self) -> int:
        return self._scope

    def scope_path(self, pc: int) -> tuple[str, ...]:
        """The compile-time scope path of the instruction at ``pc``."""
        return self.scope_table.path(self.scope_ids[pc])

    @property
    def verify_pcs(self) -> frozenset[int]:
        """Pcs the hardening pass marked for selective verify-and-retry.

        Consumed by :class:`repro.faults.injectors.ControllerFaultHook`
        when the plan's ``verify_marked`` switch is on; empty for
        programs without hardening metadata.
        """
        if not self.harden_meta:
            return frozenset()
        return frozenset(
            int(pc) for pc in self.harden_meta.get("verify_pcs", ())
        )

    def words(self) -> list[int]:
        """Encoded 64-bit words, ready for the instruction tiles.

        Encoded on the first call and memoised; every call returns a
        fresh list, so callers may modify it.
        """
        if self._words is None:
            self._words = [encode(i) for i in self.instructions]
        return list(self._words)

    @property
    def halts(self) -> bool:
        return bool(self.instructions) and isinstance(
            self.instructions[-1], HaltInstruction
        )

    def ensure_halt(self) -> "Program":
        if not self.halts:
            self.append(HaltInstruction())
        return self

    # ------------------------------------------------------------------
    # Static checks (compile-time, not runtime)
    # ------------------------------------------------------------------

    def validate(self, n_data_tiles: int, rows: int = 1024, cols: int = 1024) -> None:
        """Check addresses and parity constraints against a bank shape.

        Raises ``ValueError`` naming the offending instruction index.
        A shape that passed once is remembered and not checked again.
        """
        shape = (n_data_tiles, rows, cols)
        if shape in self._valid_shapes:
            return
        for index, instr in enumerate(self.instructions):
            try:
                self._validate_one(instr, n_data_tiles, rows, cols)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"instruction {index} ({instr}): {exc}") from exc
        if not self.halts:
            raise ValueError("program does not end in HALT")
        self._valid_shapes.add(shape)

    @staticmethod
    def _validate_one(
        instr: Instruction, n_data_tiles: int, rows: int, cols: int
    ) -> None:
        def check_tile(tile: int, allow_sensor: bool = False) -> None:
            if tile == BROADCAST_TILE:
                return
            if allow_sensor and tile == SENSOR_TILE:
                return
            if not 0 <= tile < n_data_tiles:
                raise ValueError(f"tile {tile} out of range")

        if isinstance(instr, LogicInstruction):
            check_tile(instr.tile)
            for row in (*instr.input_rows, instr.output_row):
                if not 0 <= row < rows:
                    raise ValueError(f"row {row} out of range")
            check_logic_rows(instr.input_rows, instr.output_row)
        elif isinstance(instr, MemoryInstruction):
            check_tile(instr.tile, allow_sensor=instr.op.upper() == "READ")
            if instr.tile == BROADCAST_TILE and instr.op.upper() == "READ":
                raise ValueError("cannot READ from the broadcast address")
            if not 0 <= instr.row < rows:
                raise ValueError(f"row {instr.row} out of range")
        elif isinstance(instr, ActivateColumnsInstruction):
            check_tile(instr.tile)
            last = instr.columns[1] if instr.bulk else max(instr.columns)
            if last >= cols:
                raise ValueError(f"column {last} out of range")
        elif isinstance(instr, HaltInstruction):
            pass
        else:
            raise ValueError(f"unknown instruction type {type(instr).__name__}")

    # ------------------------------------------------------------------
    # Statistics (used by cost analyses and tests)
    # ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Instruction counts by kind."""
        out = {"logic": 0, "memory": 0, "preset": 0, "activate": 0, "halt": 0}
        for instr in self.instructions:
            if isinstance(instr, LogicInstruction):
                out["logic"] += 1
            elif isinstance(instr, MemoryInstruction):
                if instr.op.upper().startswith("PRESET"):
                    out["preset"] += 1
                else:
                    out["memory"] += 1
            elif isinstance(instr, ActivateColumnsInstruction):
                out["activate"] += 1
            else:
                out["halt"] += 1
        return out
