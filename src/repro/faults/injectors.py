"""Fault injectors and the verify-and-retry recovery layer.

Two cooperating pieces, both seeded from one :class:`numpy.random.Generator`
so a trial is replayable bit-exactly:

* :class:`ControllerFaultHook` attaches to the
  :class:`~repro.core.controller.MemoryController` (via
  :meth:`~repro.core.controller.MemoryController.attach_faults`) and runs
  *inside* every logic instruction's EXECUTE microstep: it flips output
  bits per the plan's gate table and, when ``verify_retry`` is on,
  re-reads the output column, checks it against the threshold truth
  table, and re-issues the preset + gate pair on mismatch — charging the
  re-work as Dead energy, bounded by the retry budget.

* :class:`TrialInjector` owns the hook plus the *between-microstep*
  injections a campaign performs from its run loop: transient array bit
  flips, NV dual-register corruption (followed by a power cycle the
  Figure-7 protocol must survive), and power cuts at the plan's outage
  rate.

Two draw classes make a whole trial's draws up front, without
simulating, for campaigns that run their trials as rows of one compiled
batch (:mod:`repro.faults.campaign`): :class:`GateFlipDraws` repeats
the hook's draws when the plan injects gate flips only, and
:class:`WalkDraws` repeats :class:`TrialInjector`'s between-microstep
draws when it injects none.

Detection here is architectural, not oracular: the verifier re-reads
the *current* array contents (inputs included), so a gate whose inputs
were corrupted earlier computes a consistent-but-wrong answer that only
end-to-end comparison (or redundancy like the TMR macro) can catch —
exactly the silent-data-corruption channel the campaign quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.controller import Phase
from repro.energy.metrics import Category
from repro.faults.plan import SITES, FaultPlan
from repro.isa.instruction import LogicInstruction
from repro.obs.events import FAULT_DETECTED, FAULT_INJECTED, FAULT_RECOVERED


class RetryBudgetExhausted(RuntimeError):
    """A logic instruction kept failing verification past the budget."""

    def __init__(
        self,
        message: str,
        *,
        pc: Optional[int] = None,
        gate: Optional[str] = None,
        retries: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.pc = pc
        self.gate = gate
        self.retries = retries

    @classmethod
    def at(cls, pc: int, gate: str, retries: int, budget: int):
        return cls(
            f"gate {gate} at pc {pc} still wrong after {retries} re-issues "
            f"(budget {budget})",
            pc=pc,
            gate=gate,
            retries=retries,
        )


@dataclass
class FaultCounters:
    """Event-level tallies for one trial (all deterministic per seed)."""

    injected: dict[str, int] = field(
        default_factory=lambda: {site: 0 for site in SITES}
    )
    detected: int = 0
    recovered: int = 0
    retries: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def to_json_obj(self) -> dict:
        return {
            "injected": {k: self.injected[k] for k in sorted(self.injected)},
            "detected": self.detected,
            "recovered": self.recovered,
            "retries": self.retries,
        }


class ControllerFaultHook:
    """Gate-output flips + verify-and-retry, run inside EXECUTE.

    The controller calls :meth:`after_logic` immediately after a logic
    instruction's array operation completes (and before PC staging), so
    a retry is architecturally a re-execution of the same in-flight
    instruction — the exact spot the paper's idempotency argument
    covers.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        counters: Optional[FaultCounters] = None,
        telemetry=None,
        verify_pcs: frozenset[int] = frozenset(),
    ) -> None:
        self.plan = plan
        self.rng = rng
        self.counters = counters if counters is not None else FaultCounters()
        #: Pcs to verify even when the global ``verify_retry`` switch is
        #: off (the hardened program's selective-protection tier; see
        #: :attr:`repro.core.program.Program.verify_pcs`).
        self.verify_pcs = verify_pcs
        self._obs = telemetry if (telemetry is not None and telemetry.enabled) else None

    # -- telemetry -------------------------------------------------------

    def _emit(self, kind: str, controller, **data) -> None:
        if self._obs is not None:
            self._obs.emit(
                kind, controller.ledger.breakdown.total_latency, **data
            )

    # -- the logic-instruction hook -------------------------------------

    def after_logic(self, controller, instr: LogicInstruction) -> None:
        spec = instr.spec
        tiles = controller.bank.target_tiles(instr.tile)
        rate = self.plan.rate_for(spec.name)
        pc = controller.pc.read()
        verify = self.plan.verify_retry or (
            self.plan.verify_marked and pc in self.verify_pcs
        )
        retries = 0
        while True:
            injected = self._inject_flips(tiles, instr.output_row, rate)
            if injected:
                self.counters.injected["gate"] += injected
                self._emit(
                    FAULT_INJECTED,
                    controller,
                    site="gate",
                    gate=spec.name,
                    pc=pc,
                    count=injected,
                )
            if not verify:
                return
            mismatches = self._verify(controller, spec, instr, tiles)
            if mismatches == 0:
                if retries:
                    self.counters.recovered += 1
                    self._emit(
                        FAULT_RECOVERED,
                        controller,
                        site="gate",
                        gate=spec.name,
                        pc=pc,
                        retries=retries,
                    )
                return
            self.counters.detected += 1
            self._emit(
                FAULT_DETECTED,
                controller,
                site="gate",
                gate=spec.name,
                pc=pc,
                count=mismatches,
            )
            if retries >= self.plan.retry_budget:
                raise RetryBudgetExhausted.at(
                    pc, spec.name, retries, self.plan.retry_budget
                )
            retries += 1
            self.counters.retries += 1
            self._reissue(controller, spec, instr, tiles)

    def _inject_flips(self, tiles, output_row: int, rate: float) -> int:
        if rate <= 0.0:
            return 0
        injected = 0
        for tile in tiles:
            active = np.flatnonzero(tile.active_columns)
            if active.size == 0:
                continue
            victims = active[self.rng.random(active.size) < rate]
            if victims.size:
                tile.state[output_row, victims] ^= True
                injected += int(victims.size)
        return injected

    def _verify(self, controller, spec, instr, tiles) -> int:
        """Re-read the output column and compare against the threshold
        truth table over the *current* inputs; charge the read."""
        mismatches = 0
        for tile in tiles:
            active = tile.active_columns
            if not active.any():
                continue
            mismatches += verify_mismatches(tile.state, instr, active)
            controller.ledger.charge(
                Category.COMPUTE, controller.cost.row_read_energy(tile.cols)
            )
        return mismatches

    def _reissue(self, controller, spec, instr, tiles) -> None:
        """Re-perform the preset + gate pair, charged as Dead work."""
        cycle = controller.cost.cycle_time
        for tile in tiles:
            preset = tile.preset_row(instr.output_row, bool(spec.preset))
            result = tile.logic_op(spec, instr.input_rows, instr.output_row)
            controller.ledger.charge(
                Category.DEAD,
                controller.cost.preset_energy(max(preset.n_columns, 1))
                + controller.cost.logic_energy_measured(
                    result.energy, spec.n_inputs + 1
                ),
                2.0 * cycle,
            )


def verify_mismatches(state: np.ndarray, instr: LogicInstruction, active) -> int:
    """How many of the ``active`` columns (a bool mask or sorted column
    indices) of one tile's ``state`` hold a gate output that disagrees
    with the threshold truth table over the *current* inputs — the
    verify re-read of :meth:`ControllerFaultHook.after_logic`."""
    spec = instr.spec
    switches = np.array([spec.switches(k) for k in range(spec.n_inputs + 1)])
    n_ones = state[list(instr.input_rows)][:, active].sum(axis=0)
    expected = np.where(
        switches[n_ones], bool(spec.direction.target_state), bool(spec.preset)
    )
    return int((state[instr.output_row][active] != expected).sum())


class FlipSite(NamedTuple):
    """A logic instruction with a non-zero flip rate: its pc and gate,
    whether it is verified, and how many active columns its target
    tiles hold together (the length of one draw).  A tuple, since a
    compiled plan keeps one per logic instruction for every fault plan
    its campaigns run (:func:`repro.faults.campaign._flip_draws`)."""

    pc: int
    gate: str
    rate: float
    verify: bool
    width: int


class GateFlipDraws:
    """Every draw :meth:`ControllerFaultHook.after_logic` makes in one
    trial that injects gate flips only, made without simulating.

    ``sites`` are the program's logic instructions with a non-zero
    rate, in pc order (no draw happens at rate 0).  The draws are exact
    because none depends on array data: a lint-clean program fires
    every gate into a freshly preset row with the right polarity, and
    a re-issue recomputes it from unchanged inputs, so a verify re-read
    mismatches exactly when that attempt's own draw flipped a column.
    And ``rng.random(a)`` then ``rng.random(b)`` yields the numbers of
    ``rng.random(a + b)``, so every site's first attempt is drawn in
    one call, and each re-issue shifts the later sites along the same
    stream.
    """

    def __init__(self, plan: FaultPlan, sites: Sequence[FlipSite]) -> None:
        self.budget = plan.retry_budget
        self.sites = list(sites)
        widths = np.array([site.width for site in self.sites], dtype=np.intp)
        self.ends = np.cumsum(widths)
        self.starts = self.ends - widths
        self.total = int(self.ends[-1]) if self.sites else 0
        self.rates = np.repeat([site.rate for site in self.sites], widths)
        self.owner = np.repeat(np.arange(len(self.sites)), widths)

    def draw(
        self, rng: np.random.Generator, counters: FaultCounters
    ) -> tuple[dict[int, np.ndarray], Optional[RetryBudgetExhausted]]:
        """One trial's draws: the flips that survive at each pc (a mask
        over the site's columns, target tile after target tile) and the
        exhaustion that stops the trial, if any.  ``counters`` are
        updated as the hook updates them."""
        stream = rng.random(self.total)

        def reach(n: int) -> None:
            nonlocal stream
            if stream.size < n:
                stream = np.concatenate((stream, rng.random(n - stream.size)))

        survivors: dict[int, np.ndarray] = {}
        shift = 0  # draws the re-issues so far took from the stream
        first = 0
        while first < len(self.sites):
            reach(self.total + shift)
            lo = self.starts[first]
            hit = stream[lo + shift:self.total + shift] < self.rates[lo:]
            resolved = None
            for s in np.unique(self.owner[lo + np.flatnonzero(hit)]):
                site = self.sites[s]
                cursor = self.ends[s] + shift
                mask = stream[cursor - site.width:cursor] < site.rate
                counters.injected["gate"] += int(mask.sum())
                if not site.verify:
                    survivors[site.pc] = mask
                    continue
                retries = 0
                while mask.any():
                    counters.detected += 1
                    if retries >= self.budget:
                        survivors[site.pc] = mask
                        return survivors, RetryBudgetExhausted.at(
                            site.pc, site.gate, retries, self.budget
                        )
                    retries += 1
                    counters.retries += 1
                    reach(cursor + site.width)
                    mask = stream[cursor:cursor + site.width] < site.rate
                    cursor += site.width
                    counters.injected["gate"] += int(mask.sum())
                counters.recovered += 1
                shift = cursor - self.ends[s]
                resolved = s
                break
            if resolved is None:
                break
            first = resolved + 1
        return survivors, None


#: One instruction's microsteps in walk order (the HALT runs the first
#: three).
_WALK_PHASES = (
    Phase.FETCH, Phase.DECODE, Phase.EXECUTE, Phase.PC_STAGE, Phase.COMMIT
)


class WalkDraws:
    """Every draw :meth:`TrialInjector.after_commit` and
    :meth:`TrialInjector.after_microstep` make in one trial that injects
    no gate flips, made without simulating.

    A plan program is straight-line, so a trial's microstep walk
    follows from its power cuts alone: FETCH, DECODE, EXECUTE,
    PC_STAGE and COMMIT per instruction, and FETCH, DECODE and EXECUTE
    for the final HALT.  A cut resumes at the in-flight instruction's
    FETCH, or at the next instruction after COMMIT, which is also where
    an NV disturb's power cycle resumes.  The walk's *slots* are its
    draws in order: after each microstep but HALT's EXECUTE (the
    machine has halted) one outage number when the plan has an outage
    rate, and at a COMMIT first an array number and then an NV number
    when those rates are set.  As ``rng.random(a)`` then
    ``rng.random(b)`` yields the numbers of ``rng.random(a + b)``, the
    slots between two ``integers`` calls read one buffered stream, and
    a cut only moves the walk along it.  An array flip or NV disturb
    draws its ``integers`` where the injector does: the generator is
    rewound to the buffer's start and redrawn up to the hit.
    """

    #: Stream numbers drawn per buffer refill.
    chunk = 1024

    def __init__(
        self,
        plan: FaultPlan,
        n_instructions: int,
        data_shape: tuple[int, int, int],
    ) -> None:
        """``data_shape`` is the bank's ``(data tiles, rows, cols)``."""
        self.outage_rate = plan.outage_rate
        #: Slots after each of FETCH, DECODE, EXECUTE and PC_STAGE.
        self.between = 1 if plan.outage_rate > 0 else 0
        #: A COMMIT's slots in draw order, with their rates.
        self.at_commit = [
            (site, rate)
            for site, rate in (
                ("array", plan.array_flip_rate),
                ("nv", plan.nv_corruption_rate),
                ("outage", plan.outage_rate),
            )
            if rate > 0
        ]
        self.per_pc = 4 * self.between + len(self.at_commit)
        self.halt_pc = n_instructions - 1
        #: Microsteps of the straight-line walk.
        self.length = 5 * n_instructions - 2
        self.top = max(
            plan.outage_rate, plan.array_flip_rate, plan.nv_corruption_rate
        )
        self.shape = data_shape

    def _first(self, step: int) -> int:
        """The first slot after walk microstep ``step`` (the slot count
        for ``step == length``)."""
        pc, phase = divmod(step, 5)
        last = 4 if pc < self.halt_pc else 2
        return pc * self.per_pc + self.between * min(phase, last)

    def _slot(self, slot: int) -> tuple[int, str, float]:
        """The walk microstep a slot follows, and its site and rate."""
        pc, k = divmod(slot, self.per_pc)
        if k < 4 * self.between:
            return 5 * pc + k, "outage", self.outage_rate
        site, rate = self.at_commit[k - 4 * self.between]
        return 5 * pc + 4, site, rate

    def draw(self, rng: np.random.Generator, limit: int) -> Optional[list[tuple]]:
        """One trial's walk events, or None when it would not halt
        within ``limit`` microsteps, counting the microsteps its cuts
        replay.  Each event is ``(pc, phase, site, cell)`` in walk
        order: a power cut (``"outage"``, after ``phase``), an array
        flip (``"array"``, after COMMIT, ``cell`` its ``(tile, row,
        col)``) or an NV disturb (``"nv"``, after COMMIT)."""
        end = self._first(self.length)  # the walk's slot count
        bits = rng.bit_generator
        saved = bits.state
        events: list[tuple] = []
        # Stream numbers drawn and consumed since ``saved``, and the
        # drawn numbers under the top rate (their stream index, value).
        drawn = used = 0
        cand: list[int] = []
        vals: list[float] = []
        at = 0  # next candidate
        # Next slot; global microstep minus walk one.
        j = shift = 0
        while True:
            hit = None
            while True:
                if at == len(cand):
                    if drawn - used >= end - j:
                        break
                    more = rng.random(self.chunk)
                    new = np.flatnonzero(more < self.top)
                    cand.extend((new + drawn).tolist())
                    vals.extend(more[new].tolist())
                    drawn += self.chunk
                    continue
                slot = j + cand[at] - used
                if slot >= end:
                    break
                if slot >= j:
                    step, site, rate = self._slot(slot)
                    if vals[at] < rate:
                        hit = slot
                        break
                at += 1
            if hit is None:
                return events if self.length + shift <= limit else None
            used += hit - j + 1
            if site != "outage":
                bits.state = saved
                rng.random(used)
                cell = None
                if site == "array":
                    cell = tuple(int(rng.integers(n)) for n in self.shape)
                else:  # the register, then its garbage value
                    rng.integers(3)
                    rng.integers(1 << 24)
                events.append((step // 5, Phase.COMMIT, site, cell))
                saved = bits.state
                drawn = used = at = 0
                cand, vals = [], []
                j = hit + 1
                continue
            pc, phase = divmod(step, 5)
            events.append((pc, _WALK_PHASES[phase], "outage", None))
            if step + shift + 1 >= limit:
                return None
            resume = step + 1 if phase == 4 else 5 * pc
            shift += step + 1 - resume
            j = self._first(resume)


class TrialInjector:
    """One campaign trial's full injection state.

    Owns the controller hook plus the between-instruction injections
    (array flips, NV corruption, stochastic outages) the campaign run
    loop performs at microstep boundaries.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        telemetry=None,
    ) -> None:
        self.plan = plan
        self.rng = rng
        self.counters = FaultCounters()
        self._obs = telemetry if (telemetry is not None and telemetry.enabled) else None
        self.hook = ControllerFaultHook(
            plan, rng, counters=self.counters, telemetry=telemetry
        )

    def attach(self, mouse) -> None:
        try:
            self.hook.verify_pcs = mouse.program.verify_pcs
        except RuntimeError:  # no program loaded yet
            self.hook.verify_pcs = frozenset()
        mouse.controller.attach_faults(self.hook)

    def _emit(self, kind: str, controller, **data) -> None:
        if self._obs is not None:
            self._obs.emit(kind, controller.ledger.breakdown.total_latency, **data)

    # -- between-microstep injections -----------------------------------

    def after_microstep(self, mouse, phase) -> None:
        """A power cut at this microstep boundary, at the plan's outage
        rate (one draw per boundary while the machine runs)."""
        if self.plan.outage_rate <= 0.0:
            return
        controller = mouse.controller
        if controller.halted or not controller.powered:
            return
        if self.rng.random() < self.plan.outage_rate:
            self.counters.injected["outage"] += 1
            self._emit(
                FAULT_INJECTED,
                controller,
                site="outage",
                phase=phase.value,
                pc=controller.pc.read(),
            )
            controller.power_off()
            controller.power_on()

    def after_commit(self, mouse) -> None:
        """Array bit flips and NV corruption at instruction boundaries."""
        controller = mouse.controller
        if self.plan.array_flip_rate > 0.0 and (
            self.rng.random() < self.plan.array_flip_rate
        ):
            tiles = mouse.bank.data_tiles
            index = int(self.rng.integers(len(tiles)))
            tile = tiles[index]
            row = int(self.rng.integers(tile.rows))
            col = int(self.rng.integers(tile.cols))
            tile.flip_bit(row, col)
            self.counters.injected["array"] += 1
            self._emit(
                FAULT_INJECTED,
                controller,
                site="array",
                tile=index,
                row=row,
                col=col,
            )
        if self.plan.nv_corruption_rate > 0.0 and (
            self.rng.random() < self.plan.nv_corruption_rate
        ):
            registers = (
                controller.pc,
                controller.activate_register,
                controller.sensor_pc,
            )
            register = registers[int(self.rng.integers(len(registers)))]
            register.corrupt_invalid(int(self.rng.integers(1 << 24)))
            self.counters.injected["nv"] += 1
            self._emit(
                FAULT_INJECTED,
                controller,
                site="nv",
                register=register.name,
            )
            # The corrupted invalid copy must be harmless across a power
            # cycle: the parity bit still names the valid copy.
            if not controller.halted:
                controller.power_off()
                controller.power_on()
