"""Adversarial outage schedules.

The capacitor physics in :mod:`repro.harvest` produces outages where
the energy runs out; an *adversary* instead cuts power at chosen
controller microsteps — including the paper's worst case, after
EXECUTE but before COMMIT, when the instruction's work is done but the
PC checkpoint is not (Figure 7).  Two drivers:

* :func:`run_with_outages` cuts at an explicit list of global
  microstep indices — a reproducible schedule for targeted tests.

* :func:`exhaustive_phase_sweep` cuts at *every* microstep boundary of
  *every* instruction exactly once, in linear time: for each
  instruction it runs ``k`` microsteps, cuts, restarts, and increments
  ``k`` until the instruction commits.  Restart always resumes at the
  in-flight instruction's FETCH, so the sweep visits every
  (instruction, phase) pair without ever looping.  With ``mid_pulse``
  it additionally interrupts each logic gate half-way through its
  switching pulse (:meth:`~repro.core.controller.MemoryController.partial_execute`)
  before the cut, exercising the idempotency argument at sub-microstep
  granularity.

Both leave the machine halted; callers compare the final array state
against a continuous-power run of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.accelerator import Mouse
from repro.core.controller import InstructionBudgetExceeded, Phase
from repro.isa.instruction import LogicInstruction


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one adversarial schedule."""

    cuts: int  # power cycles performed
    commits: int  # instructions retired
    microsteps: int  # microsteps executed (including replays)


def run_with_outages(
    mouse: Mouse,
    cut_after: Iterable[int],
    max_microsteps: int = 10_000_000,
) -> SweepResult:
    """Run to HALT, power-cycling after each listed global microstep.

    ``cut_after`` holds 0-based indices into the sequence of executed
    microsteps (replayed microsteps count — the schedule addresses what
    the machine actually does, not the static program).
    """
    controller = mouse.controller
    cuts = sorted(set(int(i) for i in cut_after))
    for index in cuts:
        if index < 0:
            raise ValueError("microstep indices cannot be negative")
    pending = iter(cuts)
    next_cut = next(pending, None)
    commits = 0
    steps = 0
    while not controller.halted:
        if steps >= max_microsteps:
            raise InstructionBudgetExceeded(
                f"schedule did not reach HALT within {max_microsteps} microsteps"
            )
        phase = controller.step()
        if phase is Phase.COMMIT:
            commits += 1
        if next_cut is not None and steps == next_cut and not controller.halted:
            controller.power_off()
            controller.power_on()
            next_cut = next(pending, None)
        steps += 1
    return SweepResult(cuts=len(cuts), commits=commits, microsteps=steps)


def exhaustive_phase_sweep(mouse: Mouse, mid_pulse: bool = False) -> SweepResult:
    """Cut power at every microstep phase of every instruction.

    Per instruction: run one microstep, cut, restart (back to FETCH);
    run two microsteps, cut, restart; ... until the instruction
    commits.  Every phase boundary of every instruction therefore
    experiences exactly one outage, at a total cost linear in program
    length (an instruction is at most 5 microsteps, so at most 5
    attempts each).

    With ``mid_pulse=True``, whenever the cut lands just before
    EXECUTE of a logic instruction the gate pulse is first driven
    half-way (alternate columns complete their switch) — the
    Table-I partial-switching scenario — and then power dies.
    """
    controller = mouse.controller
    half = np.zeros(mouse.bank.cols, dtype=bool)
    half[::2] = True
    cuts = 0
    commits = 0
    steps = 0
    while not controller.halted:
        budget = 1
        while True:
            ran = 0
            committed = False
            while ran < budget and not controller.halted:
                phase = controller.step()
                ran += 1
                steps += 1
                if phase is Phase.COMMIT:
                    committed = True
                    break
            if committed:
                commits += 1
                break
            if controller.halted:
                break
            if (
                mid_pulse
                and controller.phase is Phase.EXECUTE
                and isinstance(controller.current_instruction, LogicInstruction)
            ):
                controller.partial_execute(half)
            controller.power_off()
            controller.power_on()
            cuts += 1
            budget += 1
    return SweepResult(cuts=cuts, commits=commits, microsteps=steps)
