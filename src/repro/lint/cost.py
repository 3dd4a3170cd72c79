"""Static cost pass: closed-form per-instruction energy upper bounds.

For every instruction the pass computes a worst-case energy — the
electrical model's maximum over input combinations, times a
conservative active-column count, plus the peripheral, fetch, and
backup shares the controller charges — and compares it against the
capacitor window of each device technology.  An instruction whose
bound exceeds the window can *never* commit under harvested power
(Section VIII); :class:`repro.harvest.intermittent` diagnoses the same
condition dynamically as ``NonTerminationError``, the linter rejects
it before a single gate fires.

A bound depends on the technology only through a *pricing key*
``(kind, active columns, target tiles)``, so each instruction is
classified into its key once per program and bank shape
(:func:`pricing_keys`, memoised on the :class:`Program`), and a pass
prices each distinct key once (:func:`key_bound`, from the energies
memoised in :attr:`InstructionCostModel.prices`).  An instruction's
assembler text is rendered only when a diagnostic names it.

The bounds are sound with respect to the cycle-accurate simulator:
``tests/test_lint_cost.py`` cross-checks every bound against the
telemetry-measured per-instruction energy, and against the Table IV
workload profiles, on all three technologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from repro.core.program import Program
from repro.devices.parameters import DeviceParameters
from repro.energy.model import InstructionCostModel
from repro.isa.assembler import disassemble_one
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    Instruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.passes import (
    LintPass,
    _diag,
    _masked_column_count,
    iter_with_masks,
)
from repro.logic.gates import GateSpec, gate_energy
from repro.logic.library import gate_by_name


@lru_cache(maxsize=None)
def worst_gate_energy(params: DeviceParameters, spec: GateSpec) -> float:
    """Per-column gate energy maximised over input combinations.

    Energy depends only on the input resistances (the pulse runs the
    full window either way), so the worst case is the extremum over the
    number of logic-1 inputs — an upper bound on what the electrical
    solve in :meth:`repro.array.tile.Tile.logic_op` can ever charge.
    """
    return max(
        gate_energy(params, spec, n_ones) for n_ones in range(spec.n_inputs + 1)
    )


#: A pricing key: ``(kind, n_columns, n_tiles)``.  ``kind`` follows the
#: profile vocabulary of :func:`repro.compile.arith.instruction_histogram`
#: (``PRESET`` / ``READ`` / ``WRITE`` / ``ACTIVATE`` / ``HALT`` or an
#: upper-case gate name); ``n_tiles`` is the WRITE fan-out, 1 otherwise.
PricingKey = tuple[str, int, int]


def key_bound(cost: InstructionCostModel, key: PricingKey) -> tuple[float, float]:
    """Worst-case ``(energy, backup)`` of ``key`` (the file's one kind
    switch), from the model's memoised energies."""
    prices = cost.prices
    kind, n_columns, n_tiles = key
    backup = prices.backup
    if kind == "PRESET":
        body = prices.preset[max(n_columns, 1)]
    elif kind == "READ":
        body = prices.row_read[n_columns]
    elif kind == "WRITE":
        body = prices.row_write[n_columns] * n_tiles
    elif kind == "ACTIVATE":
        body = prices.activate[n_columns]
        backup += prices.activate_backup
    elif kind == "HALT":
        body = 0.0
        backup = 0.0  # HALT parks the machine: no commit, no backup
    else:
        spec = gate_by_name(kind)
        array = worst_gate_energy(cost.params, spec) * n_columns
        body = cost.logic_energy_measured(array, spec.n_inputs + 1)
    return body + prices.fetch, backup


def kind_energy_bound(
    cost: InstructionCostModel, kind: str, n_columns: int
) -> tuple[float, float]:
    """Worst-case ``(energy, backup)`` of one instruction of ``kind``.

    ``kind`` follows the profile vocabulary of
    :func:`repro.compile.arith.instruction_histogram`: ``PRESET`` /
    ``READ`` / ``WRITE`` / ``ACTIVATE`` or a gate name.  ``energy``
    includes the fetch share (matching
    :class:`~repro.harvest.intermittent.Segment` pricing); ``backup``
    is the per-instruction checkpoint (plus the duplicated-register
    copy for ``ACTIVATE``).
    """
    return key_bound(cost, (kind.upper(), n_columns, 1))


class PricingKeys(NamedTuple):
    """A program's pricing keys for one bank shape."""

    #: The distinct keys, in order of first use.
    distinct: tuple[PricingKey, ...]
    #: Per instruction, the position of its key in ``distinct``.
    slots: tuple[int, ...]


def pricing_keys(program: Program, config: LintConfig) -> PricingKeys:
    """Each instruction's pricing key, classified once per program and
    bank shape (memoised on the program; see ``Program``).

    Column counts come from the shared Activate Columns tracker
    (:func:`~repro.lint.passes.iter_with_masks`); a tile whose mask was
    never latched is assumed fully active (the sound direction for an
    upper bound — the activate pass separately flags it as ACT001).
    """
    memo = program.__dict__.setdefault("_cost_keys", {})
    shape = (config.n_data_tiles, config.cols)
    keys = memo.get(shape)
    if keys is None:
        keys = memo[shape] = _classify(program, config)
    return keys


def _classify(program: Program, config: LintConfig) -> PricingKeys:
    cols = config.cols
    # Active columns per tile address, counted on first use after each
    # ACTIVATE (the masks change only there).
    counted: dict[int, int] = {}

    def columns_of(tile: int, masks: dict) -> int:
        n_columns = counted.get(tile)
        if n_columns is None:
            n_columns = counted[tile] = _masked_column_count(
                masks, config.target_tiles(tile), cols
            )
        return n_columns

    interned: dict[PricingKey, int] = {}
    slots: list[int] = []
    for _, instr, masks in iter_with_masks(program, config):
        key: PricingKey
        if isinstance(instr, LogicInstruction):
            key = (instr.gate.upper(), columns_of(instr.tile, masks), 1)
        elif isinstance(instr, MemoryInstruction):
            op = instr.op.upper()
            if op == "READ":
                key = ("READ", cols, 1)
            elif op == "WRITE":
                fanout = max(1, len(config.target_tiles(instr.tile)))
                key = ("WRITE", cols, fanout)
            else:  # PRESET0 / PRESET1
                key = ("PRESET", columns_of(instr.tile, masks), 1)
        elif isinstance(instr, ActivateColumnsInstruction):
            key = ("ACTIVATE", instr.column_count, 1)
            counted.clear()
        elif isinstance(instr, HaltInstruction):
            key = ("HALT", 0, 1)
        else:  # pragma: no cover - exhaustive over the ISA
            raise TypeError(f"cannot bound {type(instr).__name__}")
        slot = interned.get(key)
        if slot is None:
            slot = interned[key] = len(interned)
        slots.append(slot)
    return PricingKeys(tuple(interned), tuple(slots))


@dataclass(frozen=True)
class InstructionBound:
    """Worst-case cost of one instruction at one technology point."""

    index: int
    instr: Instruction = field(repr=False)
    #: Worst-case instruction energy including fetch, joules.
    energy: float
    #: Checkpoint energy charged at commit (0 for HALT), joules.
    backup: float
    #: Fixed issue interval, seconds.
    latency: float

    @cached_property
    def text(self) -> str:
        """Assembler text, rendered on first read (only a COST
        diagnostic names an instruction)."""
        return disassemble_one(self.instr)

    @property
    def total(self) -> float:
        return self.energy + self.backup


def program_bounds(
    program: Program, config: LintConfig, cost: InstructionCostModel
) -> list[InstructionBound]:
    """Per-instruction worst-case bounds over a whole program."""
    keys = pricing_keys(program, config)
    priced = [key_bound(cost, key) for key in keys.distinct]
    latency = cost.cycle_time
    return [
        InstructionBound(index, instr, *priced[slot], latency)
        for index, (instr, slot) in enumerate(
            zip(program.instructions, keys.slots)
        )
    ]


def program_energy_bound(
    program: Program, config: LintConfig, cost: InstructionCostModel
) -> float:
    """``sum(b.total for b in program_bounds(...))`` without building an
    :class:`InstructionBound` per instruction: each distinct key's
    ``energy + backup`` is priced once and the totals are summed in
    program order, so the float is the same."""
    keys = pricing_keys(program, config)
    totals = [e + b for e, b in (key_bound(cost, key) for key in keys.distinct)]
    return sum(totals[slot] for slot in keys.slots)


class CostPass(LintPass):
    """Reject programs whose worst-case single instruction cannot fit
    the capacitor's charge window at any configured technology."""

    name = "cost"

    def run(self, program: Program, config: LintConfig) -> list[Diagnostic]:
        from repro.harvest.capacitor import buffer_for

        keys = pricing_keys(program, config)
        # Restart overhead: Restore re-issues the saved Activate
        # Columns; bound its width by the widest activation seen.
        max_activation = max(
            (n for kind, n, _ in keys.distinct if kind == "ACTIVATE"),
            default=0,
        )
        out: list[Diagnostic] = []
        for params in config.technologies:
            buffer = config.buffer or buffer_for(params)
            window = buffer.window_energy
            cost = InstructionCostModel(params)
            restore = cost.prices.restore[max_activation] if max_activation else 0.0
            flagged: dict[int, tuple[str, float]] = {}
            for slot, key in enumerate(keys.distinct):
                energy, backup = key_bound(cost, key)
                total = energy + backup
                if total <= 0.0:
                    continue  # a free instruction fits any window
                if total > window:
                    flagged[slot] = ("COST001", total)
                elif total + restore > window:
                    flagged[slot] = ("COST002", total)
            if not flagged:
                continue
            for index, slot in enumerate(keys.slots):
                if slot not in flagged:
                    continue
                rule_id, total = flagged[slot]
                text = disassemble_one(program.instructions[index])
                if rule_id == "COST001":
                    out.append(
                        _diag(
                            "COST001",
                            f"worst-case energy of {text!r} is "
                            f"{total:.3e} J but the "
                            f"{params.name} capacitor window holds "
                            f"{window:.3e} J: the instruction can "
                            "never commit under harvested power",
                            index=index,
                            hint="narrow the active-column set (the "
                            "Section IV-C power knob) or use a larger "
                            "buffer",
                        )
                    )
                else:
                    out.append(
                        _diag(
                            "COST002",
                            f"{text!r} plus restart overhead "
                            f"({total:.3e} + {restore:.3e} J) "
                            f"exceeds the {params.name} window "
                            f"({window:.3e} J): an outage landing "
                            "here cannot make progress",
                            index=index,
                            hint="narrow the active-column set or "
                            "enlarge the buffer margin",
                        )
                    )
        return out
