"""Selective-protection hardening: program in, hardened program out.

:func:`harden_program` rewrites a linted straight-line program so that
the gates most likely to cause silent data corruption are protected,
spending energy only where the criticality analysis says it buys
anything:

* **TMR** for the top tier: the gate is executed three times into
  scratch rows and reduced with a minority-plus-NOT vote that lands the
  result back in the original output row, so a single faulted copy is
  outvoted.  The voter instructions are verify-marked (the
  :class:`~repro.faults.injectors.ControllerFaultHook` re-read), closing
  the classic TMR hole — a flip on the voter's *own* output row.
* **Verify-and-retry** for the middle tier: the gate itself is marked,
  so its output column is re-read against the truth table after every
  execution and re-issued on mismatch — detection at one row-read,
  no re-execution unless a fault actually landed.
* **Nothing** for gates whose flips the dataflow already masks (dead
  before redefinition): protection there is pure overhead.

The output is a fresh :class:`~repro.core.program.Program` that
re-validates and re-lints against the same bank shape, with a
``repro.harden/v1`` metadata block recording the placement — the
contract the SDC lint rules check and the fault layer consumes.

The voter is always ``MIN3`` + ``NOT`` (never the single-gate ``MAJ3``):
the pair works on every technology — MAJ3 is a preset-1 gate and
unreachable on Projected STT — and its NOT output naturally lands on
the original output row's parity, so the rewrite needs no extra copies.
Because the final writer into the original row is the NOT (a preset-0
gate), the original preset instruction is patched to ``PRESET0``.

Scratch rows are taken from the top of the tile downward (host inputs
and compiled temporaries live at the bottom), reused across TMR sites,
and scrubbed with trailing ``PRESET0`` writes so a faulted-but-outvoted
copy cannot linger in the final memory image — the campaign classifier
compares memory bit-for-bit, and an unscrubbed stale flip would count
as SDC despite the correct readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.array.bank import BROADCAST_TILE
from repro.array.lines import row_parity
from repro.core.program import Program, ScopeTable
from repro.harden.criticality import CriticalityReport, analyse
from repro.isa.instruction import (
    HaltInstruction,
    Instruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint.config import LintConfig
from repro.logic.library import gate_by_name

#: Metadata schema tag carried on hardened programs.
SCHEMA = "repro.harden/v1"


class HardenError(RuntimeError):
    """The rewrite could not produce a valid hardened program."""


@dataclass(frozen=True)
class HardenPolicy:
    """How much protection to place, and of which kind.

    ``level`` is the fraction of *critical* gates (masked gates never
    count) that receive protection, ``0.0`` (none) to ``1.0`` (all),
    taken in descending criticality order.  Of the protected set, the
    ``tmr_share`` fraction with the *lowest* flip probability gets TMR
    (its residual is quadratic in p, so it belongs where p is small)
    and the flip-prone rest get verify-and-retry (zero residual).
    ``voter_verify`` marks the MIN3/NOT voter pair of every TMR group
    for re-read (on by default; turning it off re-opens the
    voter-output hole and exists for ablation).
    """

    level: float = 1.0
    tmr_share: float = 0.25
    voter_verify: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        if not 0.0 <= self.tmr_share <= 1.0:
            raise ValueError("tmr_share must be in [0, 1]")

    def to_json_obj(self) -> dict:
        return {
            "level": self.level,
            "tmr_share": self.tmr_share,
            "voter_verify": self.voter_verify,
        }


class _ScratchPool:
    """Free-row supplier for TMR scratch, shared across sites.

    Rows are handed out from the top of the bank downward, skipping
    every row the original program touches in any target tile, and are
    *reused* between TMR sites (each site's scratch lifetime is
    self-contained: copies feed the MIN3, the minority feeds the NOT).
    """

    def __init__(self, rows: int, used: dict[int, set[int]]) -> None:
        self.rows = rows
        self.used = used
        #: (tiles, parity) -> rows already allocated for that demand.
        self.pools: dict[tuple[tuple[int, ...], int], list[int]] = {}
        #: tiles -> all rows allocated under that tile group.
        self.taken: dict[tuple[int, ...], set[int]] = {}

    def take(
        self, tiles: tuple[int, ...], parity: int, count: int
    ) -> Optional[list[int]]:
        """``count`` scratch rows of ``parity`` free in all ``tiles``,
        or ``None`` when the bank has no room (caller downgrades)."""
        key = (tiles, parity)
        pool = self.pools.setdefault(key, [])
        taken = self.taken.setdefault(tiles, set())
        row = self.rows - 1
        while len(pool) < count:
            while row >= 0 and (
                row_parity(row) != parity
                or row in taken
                or any(row in self.used.get(t, ()) for t in tiles)
            ):
                row -= 1
            if row < 0:
                return None
            pool.append(row)
            taken.add(row)
            row -= 1
        return pool[:count]

    def all_rows(self) -> list[tuple[tuple[int, ...], int]]:
        """Every allocated (tiles, row), for the scrub epilogue."""
        out = []
        for tiles, rows in self.taken.items():
            for r in sorted(rows):
                out.append((tiles, r))
        return out


def _used_rows(program: Program, config: LintConfig) -> dict[int, set[int]]:
    """Rows each data tile's instructions ever touch."""
    used: dict[int, set[int]] = {t: set() for t in range(config.n_data_tiles)}
    for instr in program:
        if isinstance(instr, LogicInstruction):
            for t in config.target_tiles(instr.tile):
                used[t].update(instr.input_rows)
                used[t].add(instr.output_row)
        elif isinstance(instr, MemoryInstruction):
            for t in config.target_tiles(instr.tile):
                used[t].add(instr.row)
    return used


def harden_program(
    program: Program,
    flip_rates: Mapping[str, float],
    config: LintConfig,
    policy: HardenPolicy = HardenPolicy(),
    report: Optional[CriticalityReport] = None,
) -> Program:
    """Emit a selectively protected rewrite of ``program``.

    ``report`` lets a caller reuse an already-computed criticality
    analysis (the frontier sweep analyses once per workload, hardens at
    many levels).  The input program is never mutated.
    """
    if not program.halts:
        raise HardenError("can only harden a sealed (HALT-terminated) program")
    if report is None:
        report = analyse(program, flip_rates, config)

    ranked = report.ranked()
    n_protect = round(policy.level * len(ranked))
    n_tmr = round(policy.tmr_share * n_protect)
    protected = ranked[:n_protect]
    # Within the protected set, kind follows the flip rate: TMR's
    # residual is *quadratic* in p (two copies must fail together), so
    # it goes to the least flip-prone gates where p**2 is negligible;
    # the flip-prone ones get verify-and-retry, whose residual is zero
    # and whose retry cost is paid only when a flip actually lands.
    # Giving TMR to high-p gates instead would concentrate probability
    # mass exactly where redundancy is weakest.
    by_p = sorted(protected, key=lambda r: (r.p_flip, r.index))
    tmr_old = {r.index for r in by_p[:n_tmr]}
    verify_old = {r.index for r in protected if r.index not in tmr_old}
    masked_old = sorted(r.index for r in report.records if r.masked)

    pool = _ScratchPool(config.rows, _used_rows(program, config))

    # The rewrite is assembled in plain lists (the TMR rewrite patches
    # an earlier preset) and only then frozen into a Program.
    instructions: list[Instruction] = []
    scope_ids: list[int] = []
    scope_table = ScopeTable.from_json_obj(program.scope_table.to_json_obj())

    def emit(instr: Instruction, sid: int) -> int:
        instructions.append(instr)
        scope_ids.append(sid)
        return len(instructions) - 1

    pc_map: dict[int, int] = {}
    last_preset: dict[tuple[int, int], int] = {}
    verify_new: set[int] = set()
    tmr_groups: list[dict] = []
    downgraded: list[int] = []
    scrub_pcs: list[int] = []

    for old_pc, instr in enumerate(program):
        sid = program.scope_ids[old_pc]
        if isinstance(instr, HaltInstruction):
            # Scrub scratch before parking: outvoted-but-flipped copies
            # must not survive into the final memory image.
            scrub_sid = scope_table.child(0, "scrub")
            for tiles, row in pool.all_rows():
                tile = tiles[0] if len(tiles) == 1 else BROADCAST_TILE
                scrub_pcs.append(
                    emit(
                        MemoryInstruction(op="PRESET0", tile=tile, row=row),
                        scrub_sid,
                    )
                )
            pc_map[old_pc] = emit(instr, sid)
            continue

        if isinstance(instr, MemoryInstruction) and instr.op.upper().startswith(
            "PRESET"
        ):
            idx = emit(instr, sid)
            pc_map[old_pc] = idx
            last_preset[(instr.tile, instr.row)] = idx
            continue

        if isinstance(instr, LogicInstruction) and old_pc in tmr_old:
            new_pcs = _emit_tmr(
                instructions,
                scope_table,
                instr,
                sid,
                pool,
                last_preset,
                config,
                emit,
                policy,
            )
            if new_pcs is None:
                # No scratch room (or no patchable preset): fall back to
                # the verify tier rather than fail the whole rewrite.
                downgraded.append(old_pc)
                idx = emit(instr, sid)
                pc_map[old_pc] = idx
                verify_new.add(idx)
                continue
            group, voter_pcs = new_pcs
            group["original_pc"] = old_pc
            tmr_groups.append(group)
            pc_map[old_pc] = group["voter_pcs"][-1]
            if policy.voter_verify:
                verify_new.update(voter_pcs)
            continue

        idx = emit(instr, sid)
        pc_map[old_pc] = idx
        if isinstance(instr, LogicInstruction) and old_pc in verify_old:
            verify_new.add(idx)

    # Carry over pre-existing verify marks (ProgramBuilder.mark_verify)
    # before the metadata is frozen.
    for old_pc in program.verify_pcs:
        mapped = pc_map.get(old_pc)
        if mapped is not None and isinstance(
            instructions[mapped], LogicInstruction
        ):
            verify_new.add(mapped)

    meta = _harden_meta(
        program,
        policy,
        flip_rates,
        pc_map,
        verify_new,
        tmr_groups,
        scrub_pcs,
        tmr_old,
        verify_old,
        masked_old,
        downgraded,
    )
    out = Program(
        instructions,
        name=f"{program.name}+hardened",
        scope_table=scope_table,
        scope_ids=scope_ids,
        harden_meta=meta,
    )

    try:
        out.validate(config.n_data_tiles, rows=config.rows, cols=config.cols)
    except ValueError as exc:
        raise HardenError(f"hardened program fails validation: {exc}") from exc
    _lint_hardened(out, config)
    _observe(program, policy, tmr_groups, verify_new)
    return out


def _observe(
    program: Program,
    policy: HardenPolicy,
    tmr_groups: list[dict],
    verify_new: set[int],
) -> None:
    import time

    from repro import obs

    telemetry = obs.current()
    if not telemetry.enabled:
        return
    telemetry.counter("harden.runs").inc()
    telemetry.counter("harden.tmr_sites").inc(len(tmr_groups))
    telemetry.counter("harden.verify_sites").inc(len(verify_new))
    telemetry.emit(
        obs.events.HARDEN_REPORT,
        time.time(),
        program=program.name,
        level=policy.level,
        tmr=len(tmr_groups),
        verify=len(verify_new),
    )


def _emit_tmr(
    instructions: list[Instruction],
    scope_table: ScopeTable,
    instr: LogicInstruction,
    sid: int,
    pool: _ScratchPool,
    last_preset: dict[tuple[int, int], int],
    config: LintConfig,
    emit,
    policy: HardenPolicy,
) -> Optional[tuple[dict, list[int]]]:
    """Replace one gate with 3 copies + MIN3/NOT vote into its row.

    Returns ``(group_meta, voter_pcs)`` or ``None`` when the rewrite is
    impossible at this site (no preset to patch, or no scratch rows).
    """
    preset_idx = last_preset.get((instr.tile, instr.output_row))
    if preset_idx is None:
        return None
    tiles = config.target_tiles(instr.tile)
    if not tiles:
        return None
    out_parity = row_parity(instr.output_row)
    in_parity = 1 - out_parity
    copies = pool.take(tiles, out_parity, 3)
    minority = pool.take(tiles, in_parity, 1)
    if copies is None or minority is None:
        return None
    min_row = minority[0]
    spec = instr.spec
    copy_preset = "PRESET1" if spec.preset else "PRESET0"

    # The NOT that finally writes the original row is a preset-0 gate:
    # patch the original preset's polarity in place (its def-use slot —
    # after the last write, before the vote — is unchanged).
    old = instructions[preset_idx]
    instructions[preset_idx] = MemoryInstruction(
        op="PRESET0", tile=old.tile, row=old.row
    )

    tmr_sid = scope_table.child(sid, "tmr")
    copy_pcs = []
    for row in copies:
        emit(
            MemoryInstruction(op=copy_preset, tile=instr.tile, row=row),
            tmr_sid,
        )
        copy_pcs.append(
            emit(
                LogicInstruction(
                    gate=instr.gate,
                    tile=instr.tile,
                    input_rows=instr.input_rows,
                    output_row=row,
                ),
                tmr_sid,
            )
        )
    emit(MemoryInstruction(op="PRESET0", tile=instr.tile, row=min_row), tmr_sid)
    min_pc = emit(
        LogicInstruction(
            gate="MIN3",
            tile=instr.tile,
            input_rows=tuple(copies),
            output_row=min_row,
        ),
        tmr_sid,
    )
    not_pc = emit(
        LogicInstruction(
            gate="NOT",
            tile=instr.tile,
            input_rows=(min_row,),
            output_row=instr.output_row,
        ),
        tmr_sid,
    )
    group = {
        "gate": instr.gate,
        "tile": instr.tile,
        "output_row": instr.output_row,
        "copy_rows": list(copies),
        "copy_pcs": copy_pcs,
        "min_row": min_row,
        "voter": "MIN3+NOT",
        "voter_pcs": [min_pc, not_pc],
    }
    return group, [min_pc, not_pc]


def _harden_meta(
    original: Program,
    policy: HardenPolicy,
    flip_rates: Mapping[str, float],
    pc_map: dict[int, int],
    verify_new: set[int],
    tmr_groups: list[dict],
    scrub_pcs: list[int],
    tmr_old: set[int],
    verify_old: set[int],
    masked_old: list[int],
    downgraded: list[int],
) -> dict[str, Any]:
    protected_tmr = sorted(tmr_old - set(downgraded))
    protected_verify = sorted(verify_old | set(downgraded))
    unprotected = sorted(
        pc
        for pc, instr in enumerate(original)
        if isinstance(instr, LogicInstruction)
        and pc not in tmr_old
        and pc not in verify_old
        and pc not in set(masked_old)
    )
    return {
        "schema": SCHEMA,
        "source": original.name,
        "policy": policy.to_json_obj(),
        "flip_rates": {k: float(flip_rates[k]) for k in sorted(flip_rates)},
        "verify_pcs": sorted(verify_new),
        "tmr_groups": tmr_groups,
        "scrub_pcs": scrub_pcs,
        "assignment": {
            "tmr": protected_tmr,
            "verify": protected_verify,
            "masked": masked_old,
            "unprotected": unprotected,
            "downgraded": sorted(downgraded),
        },
    }


def _lint_hardened(out: Program, config: LintConfig) -> None:
    """The rewrite must itself be statically clean — a hardening pass
    that breaks the parity/preset/idempotency disciplines would
    invalidate every guarantee the original lint established."""
    from repro.lint import lint_program
    from repro.lint.diagnostics import render

    lint_report = lint_program(out, config)
    if not lint_report.ok:
        raise HardenError(
            "hardened program fails lint:\n" + render(lint_report)
        )


def overhead_summary(
    original: Program, hardened: Program, config: LintConfig, params
) -> dict:
    """Instruction-count and worst-case-energy overhead of a rewrite."""
    from repro.energy.model import InstructionCostModel
    from repro.lint.cost import program_bounds

    cost = InstructionCostModel(params)
    base = sum(b.total for b in program_bounds(original, config, cost))
    hard = sum(b.total for b in program_bounds(hardened, config, cost))
    return {
        "technology": params.name,
        "instructions": {
            "original": len(original),
            "hardened": len(hardened),
        },
        "energy_bound_j": {"original": base, "hardened": hard},
        "energy_overhead": (hard / base - 1.0) if base > 0 else 0.0,
    }


__all__ = [
    "SCHEMA",
    "HardenError",
    "HardenPolicy",
    "harden_program",
    "overhead_summary",
]
