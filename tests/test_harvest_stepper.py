"""One buffer model: every engine evaluates ``EnergyBuffer.stepper()``.

The capacitor's transfers, thresholds and charge-to-restart routine are
defined once, in ``harvest/capacitor.py``.  A harvest outside the energy
domain (NaN or negative joules) must therefore raise the same
``EnergyDomainError`` on the fused and the scalar ``IntermittentRun``
loop, on ``ProfileRun``'s general loop and on its method-call referee;
the fused loop used to skip the check and run to HALT.  The charge
policy (one closed-form wait for an ideal buffer, bounded retries for a
lossy one) is pinned through the buffer's own ``charge``.

Whatever stops an ``IntermittentRun`` — a bad harvest, a raising
source, a raising checkpointer hook, a stall — the fused loop must
leave the run, ledger, buffer, controller, tile states and transfer
buffer where the scalar loop leaves them, the PC register's copies,
parity bit and staged flag included, also when an outage lands between
staging and committing the PC.
"""

import dataclasses
import math

import pytest

from repro import compilejit
from repro.compile import arith
from repro.compile.builder import ProgramBuilder
from repro.core.accelerator import Mouse
from repro.core.controller import Phase
from repro.devices.parameters import MODERN_STT
from repro.energy.model import InstructionCostModel
from repro.harvest import (
    ChargeWindowFailure,
    ConstantPowerSource,
    EnergyBuffer,
    EnergyDomainError,
    HarvestingConfig,
    IntermittentRun,
    NonTerminationError,
    ProfileRun,
    buffer_for,
)
from repro.ml.benchmarks import SVM_ADULT
from repro.perf.baseline import profile_run_reference

BAD_HARVESTS = {"nan": (math.nan, "NaN"), "negative": (-1e-12, "negative")}


class PoisonedSource:
    """A constant harvester whose harvests after the initial charge
    (``start > 0``) over more than ``sane`` seconds return ``bad``
    joules.  ``ProfileRun`` sizes each burst from a one-cycle harvest,
    so its sources keep one-cycle harvests sane and poison the bursts."""

    def __init__(self, watts: float, bad: float, sane: float = 0.0) -> None:
        self.watts = watts
        self.bad = bad
        self.sane = sane

    def power(self, time: float) -> float:
        return self.watts

    def energy(self, start: float, duration: float) -> float:
        if start > 0.0 and duration > self.sane:
            return self.bad
        return self.watts * duration

    def time_to_harvest(self, energy: float, start: float = 0.0) -> float:
        return energy / self.watts if energy > 0 else 0.0


def _adder() -> Mouse:
    b = ProgramBuilder(tile=0, rows=256, cols=8, reserved_rows=16)
    b.activate((0, 1, 2))
    arith.ripple_add(b, b.word_at([0, 2, 4, 6]), b.word_at([8, 10, 12, 14]))
    mouse = Mouse(MODERN_STT, rows=256, cols=8)
    mouse.load(b.finish())
    return mouse


def _intermittent(bad: float, compiled: bool) -> None:
    # The paper's buffer holds the whole adder: no outage, so no charge
    # window checks a harvest before the loop's own commits do.
    config = HarvestingConfig(
        source=PoisonedSource(1e-4, bad), buffer=buffer_for(MODERN_STT)
    )
    was = compilejit.enabled()
    compilejit.set_enabled(compiled)
    try:
        before = compilejit.stats_snapshot()["fallback_runs"]
        try:
            IntermittentRun(_adder(), config).run()
        finally:
            # No fallback counted: with plans on, the fused loop ran.
            assert compilejit.stats_snapshot()["fallback_runs"] == before
    finally:
        compilejit.set_enabled(was)


class _Stop(BaseException):
    """Stands in for a host kill inside one process."""


class RaisingSource(PoisonedSource):
    """Raises instead of harvesting after the initial charge."""

    def energy(self, start: float, duration: float) -> float:
        if start > 0.0:
            raise _Stop
        return self.watts * duration


class RaisingCheckpointer:
    """Counts its hook calls and raises on the ``at``-th call of
    ``hook``."""

    def __init__(self, hook: str, at: int) -> None:
        self.hook, self.at = hook, at
        self.calls = {"on_commit": 0, "on_outage": 0}

    def _call(self, hook: str) -> None:
        self.calls[hook] += 1
        if hook == self.hook and self.calls[hook] == self.at:
            raise _Stop

    def on_commit(self, run) -> None:
        self._call("on_commit")

    def on_outage(self, run) -> None:
        self._call("on_outage")


@dataclasses.dataclass
class CuttingBuffer(EnergyBuffer):
    """A buffer emptied by its draws numbered in ``cuts`` (counted from
    1 per stepper), so an outage lands in a chosen microstep: the fused
    and the scalar loop make the same draws in the same order."""

    cuts: tuple = ()

    def stepper(self):
        steps = super().stepper()
        real = steps.draw
        count = 0

        def draw(v: float, energy: float, duration: float = 0.0) -> float:
            nonlocal count
            count += 1
            v = real(v, energy, duration)
            return 0.0 if count in self.cuts else v

        return steps._replace(draw=draw)


#: The adder's 102 instructions (the last is HALT) take about 30
#: outages on this buffer.
SMALL_BUFFER = dict(capacitance=2e-10, v_off=0.30, v_on=0.34)

#: What stops the run: (source, buffer, checkpointer, exception).
STOPPERS = {
    "bad_harvest": lambda: (
        PoisonedSource(1e-4, -1e-12), buffer_for(MODERN_STT), None,
        EnergyDomainError,
    ),
    "raising_source": lambda: (
        RaisingSource(1e-4, 0.0), buffer_for(MODERN_STT), None, _Stop,
    ),
    "commit_hook": lambda: (
        ConstantPowerSource(5e-9), EnergyBuffer(**SMALL_BUFFER),
        RaisingCheckpointer("on_commit", 17), _Stop,
    ),
    "halt_hook": lambda: (
        ConstantPowerSource(5e-9), EnergyBuffer(**SMALL_BUFFER),
        RaisingCheckpointer("on_commit", 102), _Stop,
    ),
    "outage_hook": lambda: (
        ConstantPowerSource(5e-9), EnergyBuffer(**SMALL_BUFFER, leakage_amps=1e-9),
        RaisingCheckpointer("on_outage", 3), _Stop,
    ),
    # The first instruction's PC_STAGE draw (its 4th) empties the
    # buffer: power goes off with pc + 1 staged, not committed.
    "staged_outage": lambda: (
        ConstantPowerSource(5e-9), CuttingBuffer(**SMALL_BUFFER, cuts=(4,)),
        RaisingCheckpointer("on_outage", 1), _Stop,
    ),
    # The first FETCH draw of two windows in a row empties the buffer:
    # the stall check raises in DECODE, before power_off.
    "stalled_fetch": lambda: (
        ConstantPowerSource(5e-9), CuttingBuffer(**SMALL_BUFFER, cuts=(1, 2)),
        None, NonTerminationError,
    ),
}


def _stopped_state(stopper: str, compiled: bool) -> tuple:
    source, buffer, checkpointer, error = STOPPERS[stopper]()
    run = IntermittentRun(
        _adder(), HarvestingConfig(source, buffer), checkpointer=checkpointer
    )
    was = compilejit.enabled()
    compilejit.set_enabled(compiled)
    try:
        before = compilejit.stats_snapshot()["fallback_runs"]
        with pytest.raises(error):
            run.run()
        assert compilejit.stats_snapshot()["fallback_runs"] == before
    finally:
        compilejit.set_enabled(was)
    controller = run.mouse.controller
    return (
        run.executed,
        run.time,
        run._commits_in_window,
        run._drawn_in_window,
        run._stalled_pc,
        dataclasses.asdict(run.mouse.ledger.breakdown),
        buffer.voltage,
        controller.phase,
        controller._word,
        controller._instr,
        controller.halted,
        controller.powered,
        controller._executed_uncommitted,
        controller._dead_replay,
        # Both copies, the parity bit and the staged flag.
        dataclasses.asdict(controller.pc),
        checkpointer and checkpointer.calls,
        # The arrays, which the fused loop settles on a raise.
        tuple(tile.state.tobytes() for tile in run.mouse.bank.data_tiles),
        controller.buffer.tobytes(),
    )


@pytest.mark.parametrize("stopper", sorted(STOPPERS))
def test_a_raise_leaves_the_scalar_loops_state(stopper):
    fused = _stopped_state(stopper, compiled=True)
    assert fused == _stopped_state(stopper, compiled=False)
    executed, breakdown, voltage, phase, halted, powered, pc = (
        fused[i] for i in (0, 5, 6, 7, 10, 11, 14)
    )
    # Each stopper struck where it was aimed: HALT's commit, just after
    # a power_off, or in a stalled window's DECODE.
    assert halted == (stopper == "halt_hook")
    assert powered == (stopper not in ("outage_hook", "staged_outage"))
    assert pc["_staged"] == (stopper == "staged_outage")
    assert (phase is Phase.DECODE) == (stopper == "stalled_fetch")
    if stopper == "bad_harvest":
        # The first commit's harvest raised: one instruction is on the
        # ledger, and the buffer holds its fetch and execute draws.
        assert executed == 1 and breakdown["instructions"] == 1
        assert breakdown["compute_energy"] > 0.0
        assert 0.32 < voltage < 0.34


def _profile_run(bad: float) -> ProfileRun:
    cost = InstructionCostModel(MODERN_STT)
    config = HarvestingConfig(
        source=PoisonedSource(1e-4, bad, sane=cost.cycle_time),
        buffer=buffer_for(MODERN_STT),
    )
    return ProfileRun(SVM_ADULT.profile(cost), cost, config)


ENGINES = {
    "fused": lambda bad: _intermittent(bad, compiled=True),
    "scalar": lambda bad: _intermittent(bad, compiled=False),
    "profile_run": lambda bad: _profile_run(bad).run(),
    "reference": lambda bad: profile_run_reference(_profile_run(bad)),
}


@pytest.mark.parametrize("harvest", sorted(BAD_HARVESTS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_bad_harvest_raises_on_every_engine(engine, harvest):
    bad, word = BAD_HARVESTS[harvest]
    with pytest.raises(EnergyDomainError, match=f"cannot add {word} energy"):
        ENGINES[engine](bad)


def test_buffers_with_equal_constants_share_the_closures():
    a = EnergyBuffer(capacitance=1e-6, v_off=0.1, v_on=0.12, voltage=0.05)
    b = EnergyBuffer(capacitance=1e-6, v_off=0.1, v_on=0.12)
    assert a.stepper() is b.stepper()
    assert a.stepper() is not buffer_for(MODERN_STT).stepper()
    assert dataclasses.replace(a, v_on=0.13).stepper().on_at == 0.13 - 1e-15


class TestChargePolicy:
    def test_ideal_buffer_takes_one_closed_form_wait(self):
        buffer = EnergyBuffer(capacitance=100e-6, v_off=0.32, v_on=0.34)
        waits = []
        time, waited, attempts = buffer.charge(
            ConstantPowerSource(1e-6), 2.0, waits.append
        )
        needed = 0.5 * 100e-6 * 0.34 * 0.34
        assert attempts == 1 and waits == [needed / 1e-6]
        assert waited == waits[0] and time == 2.0 + waits[0]
        assert buffer.ready_to_start

    def test_ideal_buffer_charges_once_even_when_ready(self):
        # The one attempt is a zero wait, as the engines have always
        # charged after a restore that left the buffer full.
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34, voltage=0.35
        )
        waits = []
        assert buffer.charge(ConstantPowerSource(1e-6), 1.0, waits.append) == (
            1.0, 0.0, 1
        )
        assert waits == [0.0]

    def test_lossy_buffer_that_is_ready_does_not_charge(self):
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34, voltage=0.35,
            leakage_amps=1e-9,
        )
        waits = []
        assert buffer.charge(ConstantPowerSource(1e-6), 1.0, waits.append) == (
            1.0, 0.0, 0
        )
        assert waits == [] and buffer.voltage == 0.35

    def test_failed_attempts_stay_on_the_buffer(self):
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34, voltage=0.30,
            leakage_amps=5e-8,
        )
        with pytest.raises(ChargeWindowFailure) as info:
            buffer.charge(ConstantPowerSource(5e-8), 0.0, lambda wait: None, 2)
        assert info.value.retries == 2
        assert buffer.voltage == info.value.voltage
        assert 0.30 < buffer.voltage < 0.34
