"""repro.verify: symbolic translation validation for compiled programs.

Where :mod:`repro.lint` proves *structural* properties of a compiled
CRAM program (parity, presets, masks, addressing) and :mod:`repro.harden`
proves probabilistic SDC bounds, this package proves *semantics*: a
truth-table symbolic interpreter (:mod:`repro.verify.symbolic`) executes
the instruction stream over Boolean input variables — applying Table I
gate semantics, presets, memory moves, and activate-column masks exactly
as the controller would, with zero electrical simulation — and three
provers sit on top of it:

* **translation validation** (``SEM001``/``SEM002``): the compiled
  adder/SVM/multiclass/BNN pipelines are proven equivalent to the golden
  ``repro.ml``/``repro.compile`` reference semantics over *every* input
  assignment, with a concrete counterexample on mismatch;
* **rewrite preservation** (``SEM003``): :func:`repro.harden.
  harden_program` output is proven equivalent to its input at every
  :class:`~repro.harden.HardenPolicy` level, scrubbed scratch included;
* **re-execution safety** (``REEX001``/``REEX002``): replay from any
  commit/checkpoint boundary is proven idempotent — the semantic
  generalisation of the per-instruction ``IDEM*`` rules to the windows
  the durability layer actually replays.

Surfaces: ``python -m repro verify``, :meth:`repro.compile.builder.
ProgramBuilder.finish(strict=)`, ``verify.*`` telemetry counters, and a
seeded mutation harness (:mod:`repro.verify.mutate`) demonstrating that
the provers refute miscompilations the structural lint accepts.

See ``docs/VERIFY.md`` for the symbolic domain and the rule catalog.
"""

from repro.verify.symbolic import (
    SymbolicError,
    SymbolicMachine,
    SymbolicState,
    VarSpace,
    table_to_array,
    array_to_table,
)
from repro.verify.spec import OutputCheck, SemanticSpec
from repro.verify.passes import (
    EquivalencePass,
    ReExecutionPass,
    SemanticsPass,
    check_equivalent,
)
from repro.verify.verifier import Verifier, verify_program
from repro.verify.targets import (
    VERIFY_TARGETS,
    VerifyJob,
    VerifyTarget,
    build_verify_target,
    hardened_job,
)
from repro.verify.mutate import Mutant, mutation_corpus, run_mutation_corpus

__all__ = [
    "EquivalencePass",
    "Mutant",
    "OutputCheck",
    "ReExecutionPass",
    "SemanticSpec",
    "SemanticsPass",
    "SymbolicError",
    "SymbolicMachine",
    "SymbolicState",
    "VERIFY_TARGETS",
    "VarSpace",
    "Verifier",
    "VerifyJob",
    "VerifyTarget",
    "array_to_table",
    "build_verify_target",
    "check_equivalent",
    "hardened_job",
    "mutation_corpus",
    "run_mutation_corpus",
    "table_to_array",
    "verify_program",
]
