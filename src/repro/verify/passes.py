"""The three semantic provers, packaged as lint passes.

All three run the truth-table interpreter of :mod:`repro.verify.
symbolic` and report through the ordinary :class:`~repro.lint.
diagnostics.Diagnostic` machinery, so they compose with the structural
passes in one :class:`~repro.verify.verifier.Verifier` pipeline.  They
are deliberately **not** part of :func:`repro.lint.passes.
default_passes` — they need per-program context (a spec, a reference
program) a bare config cannot supply.

* :class:`SemanticsPass` — translation validation against a
  :class:`~repro.verify.spec.SemanticSpec` (``SEM001``/``SEM002``);
* :class:`EquivalencePass` / :func:`check_equivalent` — rewrite
  preservation, proving a transformed program (e.g. `harden_program`
  output) equivalent to its source on every source-defined cell, with
  rewrite-private scratch scrubbed back to 0 (``SEM003``);
* :class:`ReExecutionPass` — re-execution safety: replay of any
  commit-window from any crash point inside it reaches the same final
  state as the uninterrupted run (``REEX001``), and never bakes a
  re-sampled sensor reading into NV state (``REEX002``).
"""

from __future__ import annotations

from typing import Optional

from repro.array.bank import SENSOR_TILE
from repro.core.program import Program
from repro.isa.instruction import (
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.passes import LintPass
from repro.verify.spec import SemanticSpec
from repro.verify.symbolic import (
    SymbolicError,
    SymbolicMachine,
    VarSpace,
    extend_table,
)

#: Default cap on truth-table variables (2**24 assignments ~ 2 MiB per
#: table); targets with more free inputs must bake constants in.
MAX_VARS = 24


def _describe_assignment(space: VarSpace, assignment: int) -> str:
    """Human counterexample: every input variable's value."""
    parts = []
    for j, key in enumerate(space.keys):
        bit = (assignment >> j) & 1
        if isinstance(key, tuple) and key[0] == "cell":
            parts.append(f"t{key[1]}.r{key[2]}={bit}")
        else:
            parts.append(f"{'/'.join(str(k) for k in key)}={bit}")
    return " ".join(parts)


def _counterexample(space: VarSpace, actual: int, expected: int) -> tuple[int, str]:
    """Lowest differing assignment and its rendering."""
    diff = actual ^ expected
    assignment = (diff & -diff).bit_length() - 1
    return assignment, _describe_assignment(space, assignment)


def _executed_range(program: Program) -> int:
    """Index one past the last instruction before the first HALT."""
    for pc, instr in enumerate(program):
        if isinstance(instr, HaltInstruction):
            return pc
    return len(program)


class SemanticsPass(LintPass):
    """Translation validation: final cell functions vs. a spec.

    ``SEM001``: a checked output's Boolean function differs from the
    reference table — with a concrete counterexample assignment.
    ``SEM002``: a checked output is never written by the program at the
    spec's focus column at all.
    """

    name = "semantics"

    def __init__(self, spec: SemanticSpec, max_vars: int = MAX_VARS) -> None:
        self.spec = spec
        self.max_vars = max_vars

    def run(self, program: Program, config: LintConfig) -> list[Diagnostic]:
        spec = self.spec
        machine = SymbolicMachine(
            config,
            focus_column=spec.focus_column,
            space=VarSpace(self.max_vars),
        )
        spec.bind(machine)
        machine.run(program)
        final = machine.snapshot()
        diagnostics: list[Diagnostic] = []
        for check in spec.outputs:
            cell = (check.tile, check.row)
            label = check.label or f"t{check.tile}.r{check.row}"
            writer = machine.writers.get(cell)
            if writer is None:
                diagnostics.append(
                    Diagnostic(
                        rule="SEM002",
                        severity=Severity.ERROR,
                        message=(
                            f"checked output {label} is never written at "
                            f"focus column {spec.focus_column}"
                        ),
                        index=max(len(program) - 1, 0),
                        tile=check.tile,
                        row=check.row,
                        hint=(
                            "the compiled program must define every "
                            "spec output; check masks and row placement"
                        ),
                    )
                )
                continue
            actual = final.cells[cell]
            expected = extend_table(
                check.table, spec.n_inputs, machine.n_vars
            )
            if actual == expected:
                continue
            assignment, rendering = _counterexample(
                machine.space, actual, expected
            )
            want = (expected >> assignment) & 1
            got = (actual >> assignment) & 1
            diagnostics.append(
                Diagnostic(
                    rule="SEM001",
                    severity=Severity.ERROR,
                    message=(
                        f"output {label} computes the wrong function: "
                        f"under {rendering} the reference value is "
                        f"{want} but the program computes {got}"
                    ),
                    index=writer,
                    tile=check.tile,
                    row=check.row,
                    hint=(
                        "the anchored instruction is the cell's last "
                        "writer; the miscompilation is at or before it"
                    ),
                )
            )
        return diagnostics


def check_equivalent(
    source: Program,
    rewritten: Program,
    config: LintConfig,
    constants: Optional[dict[tuple[int, int], int]] = None,
    focus_column: int = 0,
    max_vars: int = MAX_VARS,
) -> list[Diagnostic]:
    """Prove ``rewritten`` preserves ``source``'s semantics (``SEM003``).

    Both programs are interpreted against one shared variable space, so
    reads of the same host-loaded cell mean the same variable in both.
    The proof obligation is two-sided: every cell the source defines
    must hold an identical Boolean function after the rewrite, and
    every cell only the rewrite defines (its private scratch) must be
    scrubbed back to constant 0 — a hardened program that leaks live
    voter state into the NV array is not a refinement.
    """
    space = VarSpace(max_vars)
    machines = []
    for prog in (source, rewritten):
        machine = SymbolicMachine(config, focus_column, space)
        if constants:
            machine.seed_constants(constants)
        machine.run(prog)
        machines.append(machine)
    src, rew = machines
    src_final, rew_final = src.snapshot(), rew.snapshot()
    diagnostics: list[Diagnostic] = []

    for cell in sorted(src.writers):
        tile, row = cell
        src_fn = src_final.cells[cell]
        if cell not in rew.writers:
            diagnostics.append(
                Diagnostic(
                    rule="SEM003",
                    severity=Severity.ERROR,
                    message=(
                        f"rewrite drops the definition of t{tile}.r{row}: "
                        "the source program writes it, the rewritten "
                        "program never does"
                    ),
                    index=max(len(rewritten) - 1, 0),
                    tile=tile,
                    row=row,
                    hint="a rewrite must preserve every source-defined cell",
                )
            )
            continue
        rew_fn = rew_final.cells[cell]
        if src_fn == rew_fn:
            continue
        assignment, rendering = _counterexample(space, rew_fn, src_fn)
        diagnostics.append(
            Diagnostic(
                rule="SEM003",
                severity=Severity.ERROR,
                message=(
                    f"rewrite changes t{tile}.r{row}: under {rendering} "
                    f"the source computes {(src_fn >> assignment) & 1} "
                    f"but the rewrite computes {(rew_fn >> assignment) & 1}"
                ),
                index=rew.writers[cell],
                tile=tile,
                row=row,
                hint=(
                    "the anchored instruction is the rewritten cell's "
                    "last writer"
                ),
            )
        )

    for cell in sorted(set(rew.writers) - set(src.writers)):
        tile, row = cell
        if rew_final.cells[cell] == 0:
            continue  # scrubbed scratch: invisible to the source contract
        diagnostics.append(
            Diagnostic(
                rule="SEM003",
                severity=Severity.ERROR,
                message=(
                    f"rewrite-private scratch t{tile}.r{row} is not "
                    "scrubbed: it ends holding a live function of the "
                    "inputs instead of constant 0"
                ),
                index=rew.writers[cell],
                tile=tile,
                row=row,
                hint="append a PRESET0 scrub before HALT",
            )
        )
    return diagnostics


class EquivalencePass(LintPass):
    """Rewrite preservation as a pass: the linted program is the
    rewrite, the stored program is its source of truth."""

    name = "equivalence"

    def __init__(
        self,
        source: Program,
        constants: Optional[dict[tuple[int, int], int]] = None,
        focus_column: int = 0,
        max_vars: int = MAX_VARS,
    ) -> None:
        self.source = source
        self.constants = constants
        self.focus_column = focus_column
        self.max_vars = max_vars

    def run(self, program: Program, config: LintConfig) -> list[Diagnostic]:
        return check_equivalent(
            self.source,
            program,
            config,
            constants=self.constants,
            focus_column=self.focus_column,
            max_vars=self.max_vars,
        )


def _window_diverges(start: int, stop: int) -> Diagnostic:
    """``REEX001``: replaying ``[start, stop)`` from a crash inside it
    does not reach the uninterrupted run's state."""
    return Diagnostic(
        rule="REEX001",
        severity=Severity.ERROR,
        message=(
            f"replaying window [{start}, {stop}) from a crash point inside "
            "it diverges from the uninterrupted run: the window reads a "
            "cell it also overwrites"
        ),
        index=start,
        hint=(
            "shrink the checkpoint period, or keep each window's reads "
            "disjoint from its writes"
        ),
    )


def _window_resamples(
    start: int, stop: int, index: Optional[int]
) -> Diagnostic:
    """``REEX002``: ``[start, stop)`` commits the sensor sample its READ
    at ``index`` would re-take on replay."""
    return Diagnostic(
        rule="REEX002",
        severity=Severity.ERROR,
        message=(
            f"window [{start}, {stop}) commits a sensor sample it would "
            "re-take on replay: recovery stores a different reading than "
            "the pre-crash execution did"
        ),
        index=index,
        tile=SENSOR_TILE,
        hint=(
            "persist the sample (WRITE it) in its own committed window "
            "before any use"
        ),
    )


class ReExecutionPass(LintPass):
    """Re-execution safety over commit windows of ``period``.

    The durability layer (dual-PC commit, NVImage checkpoints) recovers
    from power failure by replaying the current window from its last
    boundary on top of whatever NV state the crash left behind.  That
    is only sound if, for every window ``[s, e)`` and crash point
    ``c``, executing ``[s, c)`` then replaying ``[s, e)`` lands in the
    same state as the uninterrupted run — ``REEX001`` fires where it
    does not (a whole-window WAR hazard: the replay reads a cell an
    earlier iteration of the window already overwrote).

    ``REEX002`` fires when a replayed window re-samples a sensor READ
    whose reading it also commits to NV state: the replay writes a
    *different* sample than the pre-crash execution, so recovery is not
    idempotent even though the dataflow is.

    ``period=1`` is the dual-PC hardware's actual replay unit (every
    instruction commits); wider periods model checkpoint schemes that
    only persist the PC every N instructions.
    """

    name = "reexec"

    def __init__(
        self,
        period: int = 1,
        constants: Optional[dict[tuple[int, int], int]] = None,
        focus_column: int = 0,
        max_vars: int = MAX_VARS,
    ) -> None:
        if period < 1:
            raise ValueError("replay period must be >= 1")
        self.period = period
        self.constants = constants
        self.focus_column = focus_column
        self.max_vars = max_vars

    def run(self, program: Program, config: LintConfig) -> list[Diagnostic]:
        if self.period == 1:
            return self._run_single(program, config)
        return self._run_windows(program, config)

    def _machine(
        self, config: LintConfig, space=None, resample: bool = False
    ) -> SymbolicMachine:
        machine = SymbolicMachine(
            config,
            focus_column=self.focus_column,
            space=space if space is not None else VarSpace(self.max_vars),
            resample_sensors=resample,
        )
        if self.constants:
            machine.seed_constants(self.constants)
        return machine

    def _run_single(
        self, program: Program, config: LintConfig
    ) -> list[Diagnostic]:
        """Per-instruction replay, without snapshots.

        READ/WRITE/PRESET/ACTIVATE are idempotent by construction (the
        row buffer and column latch persist across the replay), so the
        only single-instruction replay hazard is a gate whose output
        row is also one of its input rows — checked symbolically, so a
        gate that *happens* to be a semantic fixpoint passes.
        """
        diagnostics: list[Diagnostic] = []
        machine = self._machine(config)
        end = _executed_range(program)
        #: Flips to False when the program needs more input variables
        #: than the truth-table budget allows; from then on the pass
        #: degrades to the sound structural check (output row in input
        #: rows => hazard), losing only the semantic-fixpoint exemption.
        symbolic = True
        for pc in range(end):
            instr = program[pc]
            hazards: list[int] = []
            if symbolic:
                try:
                    machine._pc = pc
                    machine.execute(instr)
                    if (
                        isinstance(instr, LogicInstruction)
                        and instr.output_row in instr.input_rows
                    ):
                        spec = instr.spec
                        for t in machine._target_tiles(instr.tile):
                            if not machine._focus_active(t):
                                continue
                            inputs = [
                                machine.cell(t, row)
                                for row in instr.input_rows
                            ]
                            once = machine.cell(t, instr.output_row)
                            if machine.gate_table(spec, inputs, once) != once:
                                hazards.append(t)
                except SymbolicError:
                    symbolic = False
            if not symbolic and isinstance(instr, LogicInstruction):
                if instr.output_row in instr.input_rows:
                    hazards = [instr.tile]
            for t in hazards:
                diagnostics.append(
                    Diagnostic(
                        rule="REEX001",
                        severity=Severity.ERROR,
                        message=(
                            f"replaying this {instr.gate.upper()} is not "
                            f"idempotent: its output row {instr.output_row} "
                            "is also an input, so a second execution after "
                            "a crash computes a different value"
                        ),
                        index=pc,
                        tile=t,
                        row=instr.output_row,
                        hint=(
                            "route the result through a scratch row, or "
                            "re-preset the output inside the same window"
                        ),
                    )
                )
        return diagnostics

    def _run_windows(
        self, program: Program, config: LintConfig
    ) -> list[Diagnostic]:
        """Full window-replay proof for checkpoint periods > 1.

        Falls back to the conservative structural window scan when the
        program needs more truth-table variables than the budget allows
        (losing only the fixpoint exemptions, never soundness).
        """
        try:
            return self._run_windows_symbolic(program, config)
        except SymbolicError:
            return self._run_windows_structural(program, config)

    def _run_windows_symbolic(
        self, program: Program, config: LintConfig
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        space = VarSpace(self.max_vars)
        clean = self._machine(config, space)
        end = _executed_range(program)
        for start in range(0, end, self.period):
            stop = min(start + self.period, end)
            # Clean pass through the window, snapshotting every crash
            # point (the state the NV array holds when power fails).
            crash_states = {}
            for pc in range(start, stop):
                clean._pc = pc
                clean.execute(program[pc])
                crash_states[pc + 1] = clean.snapshot()
            final = crash_states[stop]
            window_diverges = False
            sensor_diverges = False
            for crash in sorted(crash_states):
                for resample in (False, True):
                    replay = self._machine(config, space, resample=resample)
                    replay.restore(crash_states[crash])
                    replay.run(program, start, stop)
                    replayed = replay.snapshot()
                    n = space.n
                    if self._cells_equal(replayed, final, n):
                        continue
                    if resample:
                        sensor_diverges = True
                    else:
                        window_diverges = True
                if window_diverges and sensor_diverges:
                    break
            if window_diverges:
                diagnostics.append(_window_diverges(start, stop))
            elif sensor_diverges:
                sensor_pc = self._sensor_read_in(program, start, stop)
                index = start if sensor_pc is None else sensor_pc
                diagnostics.append(_window_resamples(start, stop, index))
        return diagnostics

    def _run_windows_structural(
        self, program: Program, config: LintConfig
    ) -> list[Diagnostic]:
        """Conservative window scan: no truth tables, no exemptions.

        A window is flagged as soon as it *reads* a cell an instruction
        later in the same window writes (the replay would see the
        overwritten value), or commits a sensor sample it would re-take.
        """
        diagnostics: list[Diagnostic] = []
        end = _executed_range(program)
        for start in range(0, end, self.period):
            stop = min(start + self.period, end)
            reads: set[tuple[int, int]] = set()
            war = False
            sensor_pc: Optional[int] = None
            committed_sensor = False
            for pc in range(start, stop):
                instr = program[pc]
                if isinstance(instr, LogicInstruction):
                    writes = [
                        (t, instr.output_row)
                        for t in config.target_tiles(instr.tile)
                    ]
                    if any(w in reads for w in writes):
                        war = True
                        break
                    reads.update(
                        (t, r)
                        for t in config.target_tiles(instr.tile)
                        for r in instr.input_rows
                    )
                elif isinstance(instr, MemoryInstruction):
                    op = instr.op.upper()
                    if op == "READ":
                        if instr.tile == SENSOR_TILE:
                            if sensor_pc is None:
                                sensor_pc = pc
                        else:
                            reads.update(
                                (t, instr.row)
                                for t in config.target_tiles(instr.tile)
                            )
                    else:  # WRITE / PRESET0 / PRESET1
                        writes = [
                            (t, instr.row)
                            for t in config.target_tiles(instr.tile)
                        ]
                        if any(w in reads for w in writes):
                            war = True
                            break
                        if op == "WRITE" and sensor_pc is not None:
                            committed_sensor = True
            if war:
                diagnostics.append(_window_diverges(start, stop))
            elif committed_sensor:
                diagnostics.append(_window_resamples(start, stop, sensor_pc))
        return diagnostics

    @staticmethod
    def _cells_equal(a, b, n: int) -> bool:
        from repro.verify.symbolic import _sync_state

        _sync_state(a, n)
        _sync_state(b, n)
        keys = set(a.cells) | set(b.cells)
        return all(a.cells.get(k, 0) == b.cells.get(k, 0) for k in keys)

    @staticmethod
    def _sensor_read_in(
        program: Program, start: int, stop: int
    ) -> Optional[int]:
        for pc in range(start, stop):
            instr = program[pc]
            if (
                isinstance(instr, MemoryInstruction)
                and instr.op.upper() == "READ"
                and instr.tile == SENSOR_TILE
            ):
                return pc
        return None
