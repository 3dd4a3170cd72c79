"""Seeded miscompilations the structural lint cannot see.

Each :class:`Mutant` applies one small, deterministic, *structurally
legal* edit to a compiled target program — a wrong gate of the same
preset polarity and arity, two operand rows swapped across gates, an
activate mask shifted by one column, a dropped scrub epilogue — and
records what the edit means.  ``run_mutation_corpus`` then checks the
two halves of the tentpole's evidence claim:

* the PR 3 **structural** lint still accepts every mutant (no parity,
  preset, mask, or addressing rule is violated — the edits are chosen
  to be invisible to structural analysis), and
* the **semantic** verifier refutes every mutant (``SEM001``/
  ``SEM002``/``SEM003``), proving the truth-table provers see strictly
  more than the structural pass pipeline.

The corpus is what ``tests/test_verify_targets.py`` asserts on: >= 10
distinct refuted-but-structurally-green miscompilations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.program import Program
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.lint.diagnostics import LintReport
from repro.lint.linter import lint_program
from repro.verify.targets import VerifyJob, build_verify_target, hardened_job

#: Same preset polarity, same arity — the swaps structural lint cannot
#: tell apart (the preset instruction and the row wiring are identical;
#: only the switching threshold differs).
GATE_SWAPS = {
    "NAND": "NOR",
    "NOR": "NAND",
    "AND": "OR",
    "OR": "AND",
    "NAND3": "MIN3",
    "MIN3": "NAND3",
    "AND3": "MAJ3",
    "MAJ3": "AND3",
}


@dataclass
class Mutant:
    """One seeded miscompilation of one verify target."""

    name: str
    kind: str  # wrong-gate | swapped-operand | mask-off-by-one | dropped-scrub
    description: str
    job: VerifyJob  # the target job, with ``program`` replaced

    def structural_report(self) -> LintReport:
        """The PR 3 structural lint's verdict on the mutated program."""
        return lint_program(
            self.job.program, self.job.config, name=self.name
        )

    def verify_report(self) -> LintReport:
        """The semantic verifier's verdict on the mutated program."""
        return self.job.run()


def _clone(program: Program, instructions, name: str) -> Program:
    """A fresh program around an edited instruction list.

    Hardening metadata is dropped deliberately: the edit invalidates
    its pc references, and the mutant must stand on the instruction
    stream alone.
    """
    return Program(instructions=list(instructions), name=name)


def _mutated_job(job: VerifyJob, program: Program) -> VerifyJob:
    return VerifyJob(
        name=program.name,
        program=program,
        config=job.config,
        spec=job.spec,
        period=job.period,
        source=job.source,
    )


def wrong_gate(job: VerifyJob, occurrence: int = 0) -> Optional[Mutant]:
    """Swap the n-th swappable gate for its same-preset twin."""
    seen = 0
    for pc, instr in enumerate(job.program):
        if not isinstance(instr, LogicInstruction):
            continue
        twin = GATE_SWAPS.get(instr.gate.upper())
        if twin is None:
            continue
        if seen < occurrence:
            seen += 1
            continue
        mutated = list(job.program)
        mutated[pc] = LogicInstruction(
            gate=twin,
            tile=instr.tile,
            input_rows=instr.input_rows,
            output_row=instr.output_row,
        )
        name = f"{job.name}:wrong-gate@{pc}"
        return Mutant(
            name=name,
            kind="wrong-gate",
            description=(
                f"{instr.gate.upper()} at pc {pc} compiled as {twin} "
                "(same preset polarity and arity)"
            ),
            job=_mutated_job(job, _clone(job.program, mutated, name)),
        )
    return None


def _operand_rows(program: Program) -> set[int]:
    """Rows only ever read: never a gate output, WRITE, or preset."""
    read: set[int] = set()
    written: set[int] = set()
    for instr in program:
        if isinstance(instr, LogicInstruction):
            read.update(instr.input_rows)
            written.add(instr.output_row)
        elif isinstance(instr, MemoryInstruction):
            if instr.op.upper() in ("WRITE", "PRESET0", "PRESET1"):
                written.add(instr.row)
    return read - written


def swapped_operand(job: VerifyJob) -> Optional[Mutant]:
    """Cross two gates' reads of distinct host-loaded operand rows.

    Both rows live on the same bitline parity and neither collides with
    the other gate's wiring, so every structural rule still holds — but
    two gates now consume each other's operand bit.
    """
    operands = _operand_rows(job.program)
    gates = [
        (pc, instr)
        for pc, instr in enumerate(job.program)
        if isinstance(instr, LogicInstruction)
    ]
    for ai in range(len(gates)):
        pc_a, a = gates[ai]
        for row_a in a.input_rows:
            if row_a not in operands:
                continue
            for bi in range(ai + 1, len(gates)):
                pc_b, b = gates[bi]
                for row_b in b.input_rows:
                    if (
                        row_b not in operands
                        or row_b == row_a
                        or row_b % 2 != row_a % 2
                        or row_b in a.input_rows
                        or row_a in b.input_rows
                        or row_b == a.output_row
                        or row_a == b.output_row
                    ):
                        continue
                    mutated = list(job.program)
                    mutated[pc_a] = LogicInstruction(
                        gate=a.gate,
                        tile=a.tile,
                        input_rows=tuple(
                            row_b if r == row_a else r for r in a.input_rows
                        ),
                        output_row=a.output_row,
                    )
                    mutated[pc_b] = LogicInstruction(
                        gate=b.gate,
                        tile=b.tile,
                        input_rows=tuple(
                            row_a if r == row_b else r for r in b.input_rows
                        ),
                        output_row=b.output_row,
                    )
                    name = f"{job.name}:swapped-operand@{pc_a},{pc_b}"
                    return Mutant(
                        name=name,
                        kind="swapped-operand",
                        description=(
                            f"gates at pc {pc_a}/{pc_b} read each "
                            f"other's operand rows {row_a}<->{row_b}"
                        ),
                        job=_mutated_job(
                            job, _clone(job.program, mutated, name)
                        ),
                    )
    return None


def shifted_mask(job: VerifyJob) -> Optional[Mutant]:
    """Shift the first activate mask up by one column.

    Every shifted column is still inside the bank, so the mask is
    structurally perfect — but the spec's focus column falls out of it
    and the program's outputs are never written there (``SEM002``).
    """
    for pc, instr in enumerate(job.program):
        if not isinstance(instr, ActivateColumnsInstruction):
            continue
        if instr.bulk:
            first, last = instr.columns
            if last + 1 >= job.config.cols:
                shifted = ActivateColumnsInstruction(
                    tile=instr.tile, columns=(first + 1, last), bulk=True
                )
            else:
                shifted = ActivateColumnsInstruction(
                    tile=instr.tile, columns=(first + 1, last + 1), bulk=True
                )
        else:
            columns = tuple(c + 1 for c in instr.columns)
            if any(c >= job.config.cols for c in columns):
                return None
            shifted = ActivateColumnsInstruction(
                tile=instr.tile, columns=columns
            )
        mutated = list(job.program)
        mutated[pc] = shifted
        name = f"{job.name}:mask-off-by-one@{pc}"
        return Mutant(
            name=name,
            kind="mask-off-by-one",
            description=(
                f"activate mask at pc {pc} shifted from "
                f"{instr.columns} to {shifted.columns}"
            ),
            job=_mutated_job(job, _clone(job.program, mutated, name)),
        )
    return None


def dropped_scrub(name: str) -> Optional[Mutant]:
    """Harden a target, then drop the scratch-scrub epilogue.

    The hardened stream minus its scrub presets still satisfies every
    structural rule (a scrub is consumed by nothing), but the TMR
    scratch rows now leak live voter state into the final NV image —
    exactly what ``SEM003``'s scrubbed-scratch obligation catches.
    """
    job = hardened_job(name)
    meta = job.program.harden_meta or {}
    scrub_pcs = set(int(pc) for pc in meta.get("scrub_pcs", ()))
    if not scrub_pcs:
        return None
    mutated = [
        instr
        for pc, instr in enumerate(job.program)
        if pc not in scrub_pcs
    ]
    mutant_name = f"{job.name}:dropped-scrub"
    return Mutant(
        name=mutant_name,
        kind="dropped-scrub",
        description=(
            f"hardened {name} with all {len(scrub_pcs)} scrub presets "
            "removed: TMR scratch survives into the final image"
        ),
        job=_mutated_job(job, _clone(job.program, mutated, mutant_name)),
    )


def mutation_corpus() -> list[Mutant]:
    """The deterministic seeded-miscompilation corpus (>= 10 mutants)."""
    mutants: list[Mutant] = []

    def add(mutant: Optional[Mutant]) -> None:
        if mutant is not None:
            mutants.append(mutant)

    jobs = {name: build_verify_target(name) for name in
            ("adder", "svm", "svm-ovr", "bnn-layer", "bnn-output")}

    # Wrong gates: two sites per pipeline family.
    add(wrong_gate(jobs["adder"], occurrence=0))
    add(wrong_gate(jobs["adder"], occurrence=3))
    add(wrong_gate(jobs["svm"], occurrence=0))
    # Occurrence 4: earlier sites only mix *baked-constant* model bits,
    # where a same-preset twin happens to compute the same value — the
    # verifier rightly accepts those as observationally equivalent.
    add(wrong_gate(jobs["svm-ovr"], occurrence=4))
    add(wrong_gate(jobs["bnn-layer"], occurrence=0))
    add(wrong_gate(jobs["bnn-output"], occurrence=2))
    # Swapped operand rows across gates.
    add(swapped_operand(jobs["adder"]))
    add(swapped_operand(jobs["svm"]))
    add(swapped_operand(jobs["bnn-output"]))
    # Off-by-one column masks (multi-column targets).
    add(shifted_mask(jobs["adder"]))
    add(shifted_mask(jobs["bnn-layer"]))
    # Dropped scrub epilogue on a hardened rewrite.
    add(dropped_scrub("adder"))
    return mutants


def run_mutation_corpus(strict: bool = True) -> list[dict]:
    """Run the corpus; one result row per mutant.

    With ``strict`` (the default), raise if any mutant is either
    rejected by the structural lint (the edit was not invisible) or
    accepted by the verifier (the prover missed a miscompilation).
    """
    results = []
    for mutant in mutation_corpus():
        structural = mutant.structural_report()
        semantic = mutant.verify_report()
        row = {
            "name": mutant.name,
            "kind": mutant.kind,
            "description": mutant.description,
            "structural_ok": structural.ok,
            "refuted": not semantic.ok,
            "rules": list(semantic.rules_fired()),
        }
        results.append(row)
        if strict and not structural.ok:
            raise AssertionError(
                f"mutant {mutant.name} is not structurally green: "
                f"{structural.rules_fired()}"
            )
        if strict and semantic.ok:
            raise AssertionError(
                f"mutant {mutant.name} was NOT refuted by the verifier"
            )
    return results
