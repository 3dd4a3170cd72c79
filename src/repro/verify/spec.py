"""Semantic specifications: what a program is *supposed* to compute.

A :class:`SemanticSpec` names, for one program at one focus column:

* the **input cells**, in a fixed order — these become truth-table
  variables 0..n-1 of the shared :class:`~repro.verify.symbolic.
  VarSpace`, so expected tables have a defined bit layout;
* the **baked constants** — cells the host loads with known model data
  (support vectors, weights, biases), seeded as constant functions so
  the assignment space stays tractable;
* the **output checks** — cells whose final Boolean function must
  equal a given truth table over the declared inputs.

The expected tables themselves are usually *derived from the golden
reference semantics* (``CompiledSvm.reference_score`` and friends) by
:mod:`repro.verify.targets`, which evaluates the reference function
vectorised over every input assignment — that is what makes the
comparison a translation validation rather than a self-check.

Specs round-trip through JSON (tables as hex strings) so the lint
corpus can pin them on disk and ``python -m repro verify --asm --spec``
can check hand-written programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.verify.symbolic import SymbolicMachine, array_to_table


@dataclass(frozen=True)
class OutputCheck:
    """One cell whose final function must equal ``table``.

    ``table`` is a truth-table bitset over the spec's *declared* inputs
    (variable ``j`` = ``inputs[j]``); the provers extend it over any
    extra lazily-allocated variables, under which it is constant — so a
    compiled output that leaks a dependence on an undeclared cell is a
    mismatch, not a blind spot.
    """

    tile: int
    row: int
    table: int
    label: str = ""

    def to_json_obj(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "tile": self.tile,
            "row": self.row,
            "table": hex(self.table),
        }
        if self.label:
            out["label"] = self.label
        return out


@dataclass(frozen=True)
class SemanticSpec:
    """The full semantic contract one :class:`~repro.verify.passes.
    SemanticsPass` run checks a program against."""

    #: Declared input cells, ``(tile, row)``, in variable order.
    inputs: tuple[tuple[int, int], ...]
    outputs: tuple[OutputCheck, ...]
    #: Cells seeded as known constants: ``((tile, row), bit)``.
    constants: tuple[tuple[tuple[int, int], int], ...] = ()
    focus_column: int = 0
    name: str = ""

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def bind(self, machine: SymbolicMachine) -> None:
        """Prepare a machine: allocate the declared inputs as variables
        0..n-1 (in order) and bake the constants in."""
        for tile, row in self.inputs:
            machine.cell(tile, row)
        machine.seed_constants({cell: bit for cell, bit in self.constants})

    def input_values(self) -> np.ndarray:
        """Per-variable values over every assignment.

        Shape ``(n_inputs, 2**n_inputs)`` bool: row ``j`` holds input
        ``j``'s value under each assignment — the raw material for
        evaluating reference semantics vectorised (see
        :func:`expected_table`).
        """
        n = self.n_inputs
        assignments = np.arange(1 << n, dtype=np.uint32)
        return np.stack([(assignments >> j) & 1 for j in range(n)]).astype(
            bool
        )

    # ------------------------------------------------------------------
    # Serialisation (lint-corpus + CLI --spec)
    # ------------------------------------------------------------------

    def to_json_obj(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "focus_column": self.focus_column,
            "inputs": [{"tile": t, "row": r} for t, r in self.inputs],
            "outputs": [check.to_json_obj() for check in self.outputs],
        }
        if self.constants:
            out["constants"] = [
                {"tile": t, "row": r, "value": bit}
                for (t, r), bit in self.constants
            ]
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "SemanticSpec":
        inputs = tuple(
            (int(c["tile"]), int(c["row"])) for c in obj.get("inputs", ())
        )
        outputs = tuple(
            OutputCheck(
                tile=int(c["tile"]),
                row=int(c["row"]),
                table=int(str(c["table"]), 0),
                label=str(c.get("label", "")),
            )
            for c in obj.get("outputs", ())
        )
        constants = tuple(
            ((int(c["tile"]), int(c["row"])), int(c["value"]))
            for c in obj.get("constants", ())
        )
        return cls(
            inputs=inputs,
            outputs=outputs,
            constants=constants,
            focus_column=int(obj.get("focus_column", 0)),
            name=str(obj.get("name", "")),
        )


def expected_table(
    spec: SemanticSpec, fn: Callable[[np.ndarray], np.ndarray]
) -> int:
    """Build an expected table from a vectorised reference function.

    ``fn`` receives the ``(n_inputs, 2**n_inputs)`` value matrix and
    returns one bool per assignment — the reference semantics of the
    checked cell, evaluated with no electrical simulation at all.
    """
    values = fn(spec.input_values())
    out = np.asarray(values, dtype=bool).reshape(-1)
    if out.shape[0] != 1 << spec.n_inputs:
        raise ValueError(
            f"reference returned {out.shape[0]} values for "
            f"{1 << spec.n_inputs} assignments"
        )
    return array_to_table(out)
