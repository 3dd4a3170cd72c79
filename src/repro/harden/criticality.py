"""Criticality analysis: which gate outputs can silently corrupt the result.

The hardening placement problem (Roohi et al., arXiv:1904.07864) needs
one static question answered per logic instruction: *if this gate's
output flips, does the program's answer change?*  For a straight-line
MOUSE program (no control flow — Section IV-B) the question is exactly
a def-use dataflow over ``(tile, row)`` cells:

* a flip is **masked** when nothing reads the output row before it is
  written again — the corrupted value is dead and the row is scrubbed
  by its next definition, so neither the readout nor the final memory
  image can differ;
* every other flip is **critical**: it either propagates into a
  consumer (and transitively towards the readout rows) or survives in
  the final memory image, the two silent-data-corruption channels the
  :class:`~repro.faults.FaultCampaign` classifier checks.

Each critical gate gets a **score** combining how *likely* the flip is
(the per-column Monte-Carlo flip rate from :mod:`repro.devices.
variation`, times the active-column count — more SIMD lanes, more
chances) with how *far* it reaches (the transitive fan-out in the
def-use DAG).  The hardening pass protects gates in descending score
order, so the bits that are both fragile and load-bearing get the
expensive TMR treatment first.

The analysis is deterministic and pure — same program, same rates, same
report — which is what lets placement reproduce across processes and
lets the :mod:`repro.harden.bound` proof cite the same numbers the
transform used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from repro.core.program import Program
from repro.isa.instruction import LogicInstruction, MemoryInstruction
from repro.lint.config import LintConfig
from repro.lint.passes import _masked_column_count, iter_with_masks


class GateRecord(NamedTuple):
    """Static criticality facts for one logic instruction (a tuple, so
    :func:`analyse` builds one per gate at a tuple's cost)."""

    #: Pc of the logic instruction in the analysed program.
    index: int
    gate: str
    tile: int
    output_row: int
    #: Active columns when the gate fires (full width if never latched —
    #: the conservative direction, matching the cost pass).
    n_columns: int
    #: Per-column output-flip probability from the rate table.
    flip_rate: float
    #: First-order probability that *some* column of this output flips:
    #: ``min(1, n_columns * flip_rate)`` (union bound).
    p_flip: float
    #: Pcs that read the output row before its next redefinition
    #: (logic inputs and memory READs).
    consumers: tuple[int, ...]
    #: Whether the output row is written again before HALT.
    redefined: bool
    #: Transitive count of downstream logic instructions reachable from
    #: this gate's output in the def-use DAG.
    fanout: int

    @property
    def masked(self) -> bool:
        """A flip here is architecturally invisible: dead and scrubbed."""
        return not self.consumers and self.redefined

    @property
    def score(self) -> float:
        """Placement rank: likelihood times (1 + reach)."""
        return (1.0 + self.fanout) * self.p_flip


@dataclass(frozen=True)
class CriticalityReport:
    """Per-gate records for one program, in pc order."""

    program: str
    records: tuple[GateRecord, ...]

    def critical(self) -> list[GateRecord]:
        return [r for r in self.records if not r.masked]

    def ranked(self) -> list[GateRecord]:
        """Critical gates, most-deserving-of-protection first.

        Ties break on pc so the ordering — and therefore the placement —
        is fully deterministic.
        """
        return sorted(self.critical(), key=lambda r: (-r.score, r.index))

    @property
    def total_flip_mass(self) -> float:
        """Sum of critical ``p_flip`` — the unhardened union-bound SDC."""
        return sum(r.p_flip for r in self.critical())

    def by_pc(self) -> dict[int, GateRecord]:
        return {r.index: r for r in self.records}


def analyse(
    program: Program,
    flip_rates: Mapping[str, float],
    config: LintConfig,
) -> CriticalityReport:
    """Run the def-use criticality analysis over a program.

    ``flip_rates`` maps gate names to per-column flip probabilities
    (missing gates count as rate 0 — the masked/critical classification
    is rate-independent, only scores and ``p_flip`` change).  The
    def-use and fan-out pass depends on the program and ``config``
    alone, so it runs once per lint config and is memoised on the
    program (see ``Program``); the rates are applied per call.
    """
    memo = program.__dict__.setdefault("_criticality", {})
    try:
        flow = memo.get(config)
    except TypeError:  # unhashable config (a custom EnergyBuffer)
        memo = flow = None
    if flow is None:
        flow = _def_use(program, config)
        if memo is not None:
            memo[config] = flow
    records = []
    for pc, gate, tile, output_row, n_columns, consumers, redefined, fanout in flow:
        flip_rate = float(flip_rates.get(gate, 0.0))
        records.append(GateRecord(
            index=pc,
            gate=gate,
            tile=tile,
            output_row=output_row,
            n_columns=n_columns,
            flip_rate=flip_rate,
            p_flip=min(1.0, n_columns * flip_rate),
            consumers=consumers,
            redefined=redefined,
            fanout=fanout,
        ))
    return CriticalityReport(program=program.name, records=tuple(records))


def _def_use(program: Program, config: LintConfig) -> tuple:
    """The rate-independent facts of each logic instruction, in pc
    order: ``(pc, gate, tile, output row, active columns, consumers,
    redefined, fan-out)``, as :class:`GateRecord` names them."""
    gate_pcs: list[int] = []
    consumers: dict[int, set[int]] = {}
    redefined: dict[int, bool] = {}
    n_cols: dict[int, int] = {}
    # (tile, row) -> pc of the live logic definition, if any.
    live_def: dict[tuple[int, int], int] = {}
    # Direct logic-to-logic edges for the fan-out pass.
    edges: dict[int, set[int]] = {}

    def kill(tile: int, row: int) -> None:
        pc = live_def.pop((tile, row), None)
        if pc is not None:
            redefined[pc] = True

    for index, instr, masks in iter_with_masks(program, config):
        if isinstance(instr, MemoryInstruction):
            op = instr.op.upper()
            tiles = config.target_tiles(instr.tile)
            if op == "READ":
                for t in tiles:
                    pc = live_def.get((t, instr.row))
                    if pc is not None:
                        consumers[pc].add(index)
            else:  # WRITE / PRESET0 / PRESET1 redefine the row
                for t in tiles:
                    kill(t, instr.row)
        elif isinstance(instr, LogicInstruction):
            tiles = config.target_tiles(instr.tile)
            for t in tiles:
                for in_row in instr.input_rows:
                    pc = live_def.get((t, in_row))
                    if pc is not None:
                        consumers[pc].add(index)
                        edges[pc].add(index)
            gate_pcs.append(index)
            consumers[index] = set()
            edges[index] = set()
            redefined[index] = False
            n_cols[index] = _masked_column_count(
                masks, tiles, config.cols
            )
            for t in tiles:
                kill(t, instr.output_row)
                live_def[(t, instr.output_row)] = index

    # Transitive fan-out: one reverse sweep over the (topologically
    # ordered — straight-line!) gate list, with int bitsets so the
    # union is O(words) per edge.
    downstream: dict[int, int] = {}
    fanout: dict[int, int] = {}
    for pc in reversed(gate_pcs):
        mask = 0
        for succ in edges[pc]:
            mask |= (1 << succ) | downstream[succ]
        downstream[pc] = mask
        fanout[pc] = mask.bit_count()

    instructions = program.instructions
    return tuple(
        (
            pc,
            instructions[pc].gate,
            instructions[pc].tile,
            instructions[pc].output_row,
            n_cols[pc],
            tuple(sorted(consumers[pc])),
            redefined[pc],
            fanout[pc],
        )
        for pc in gate_pcs
    )
