"""Seeded fault-injection campaigns over whole workloads.

A :class:`FaultCampaign` runs N independent trials of one workload
under one :class:`~repro.faults.plan.FaultPlan`.  Every trial draws
from ``default_rng([seed, trial])`` and is classified against a golden
(fault-free) run of the same workload:

* final data-tile memory is compared bit-for-bit, and
* the workload's readout values are compared against the golden run's.

A trial's power cuts are the plan's stochastic outages
(``FaultPlan.outage_rate``).  Outages a harvest trace causes come from
the capacitor draining, in :class:`~repro.harvest.intermittent.
IntermittentRun` and :class:`~repro.harvest.intermittent.ProfileRun`
under a :class:`~repro.env.TraceSource`, and the adversarial cut
schedules of the Figure 7 tests from :mod:`repro.faults.outages`.

Trials execute on one of two tiers.  The referee builds a fresh machine
per trial, attaches a :class:`~repro.faults.injectors.TrialInjector`
and steps the controller to HALT with injections at microstep and
instruction boundaries.  When the plan does not mix gate flips with
other faults, each trial's draws are made up front — its flips,
retries and budget abort (:class:`~repro.faults.injectors.GateFlipDraws`),
or the power cuts, NV disturbs and array flips of its microstep walk
(:class:`~repro.faults.injectors.WalkDraws`) — and every trial runs as
one row of a lock-step pass of the program's compiled plan, its faults
laid over its row after each pc's op.  The op a power cut replays is
not applied again: it writes what its first application wrote.  The
batch runs only where it is provably identical;
:data:`INTERPRETER_REASONS` names every case that stays on the
referee, and :attr:`FaultCampaign.trial_tier` records which tier ran.

Determinism is load-bearing: the trial RNG stream depends only on
``(seed, trial)``, the report contains no timestamps, and two runs of
the same campaign serialise byte-identically on either tier
(``tests/test_faults_campaign.py`` and
``tests/test_faults_batched_trials.py`` assert this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.compile import arith
from repro.compile.builder import ProgramBuilder
from repro.compile.classifier import CompiledSvm, compile_svm_decision
from repro.core.accelerator import Mouse
from repro.core.controller import InstructionBudgetExceeded, Phase
from repro.devices.parameters import MODERN_STT, DeviceParameters
from repro.faults.injectors import (
    FaultCounters,
    FlipSite,
    GateFlipDraws,
    RetryBudgetExhausted,
    TrialInjector,
    WalkDraws,
)
from repro.faults.plan import FaultPlan
from repro.faults.report import CampaignReport
from repro.isa.instruction import LogicInstruction

#: Why a campaign's trials run on the interpreter instead of as rows of
#: one batched plan, in the order they are checked:
#:
#: * ``compiled_off``: :func:`repro.compilejit.enabled` is False;
#: * ``telemetry``: a hub is attached (fault events carry simulated
#:   timestamps);
#: * ``mixed_faults``: the plan sets a gate flip rate together with an
#:   array, NV or outage rate;
#: * ``no_plan``: the program has no compiled plan for the bank, or a
#:   built machine does not start where a plan run starts;
#: * ``replay_unstable``: power is cycled (an NV or outage rate) and
#:   the plan is not ``replay_stable``, so a restore need not re-latch
#:   the columns the plan's ops use;
#: * ``microstep_budget``: a trial would reach ``max_microsteps`` (the
#:   interpreter raises :class:`InstructionBudgetExceeded`), counting
#:   the microsteps its power cuts replay.
INTERPRETER_REASONS = (
    "compiled_off",
    "telemetry",
    "mixed_faults",
    "no_plan",
    "replay_unstable",
    "microstep_budget",
)

#: Phases after which a power cut restarts the in-flight op before
#: executing it.
_BEFORE_EXECUTE = (Phase.FETCH, Phase.DECODE)


def _injects_flips(plan: FaultPlan) -> bool:
    return any(rate > 0 for rate in plan.gate_flip_rates.values())


def _flip_draws(compiled, plan: FaultPlan) -> GateFlipDraws:
    """The :class:`GateFlipDraws` of ``plan``'s gate flips on the
    ``compiled`` plan's program: one flip site per logic instruction
    with a non-zero rate.  Built once per compiled plan and ``(gate
    rates, verify switches, retry budget)``, and kept on the plan."""
    key = (
        tuple(sorted(plan.gate_flip_rates.items())),
        plan.verify_retry,
        plan.verify_marked,
        plan.retry_budget,
    )
    memo = compiled.__dict__.setdefault("_flip_draws", {})
    flips = memo.get(key)
    if flips is None:
        program = compiled.program
        marked = program.verify_pcs if plan.verify_marked else frozenset()
        rates = {name: plan.rate_for(name) for name in plan.gate_flip_rates}
        sites = []
        for pc, instr in enumerate(program.instructions):
            if not isinstance(instr, LogicInstruction):
                continue
            rate = rates.get(instr.spec.name, 0.0)
            if rate > 0.0:
                sites.append(FlipSite(
                    pc, instr.spec.name, rate,
                    plan.verify_retry or pc in marked,
                    sum(cols.size for _, _, cols in compiled.flip_targets(pc)),
                ))
        flips = memo[key] = GateFlipDraws(plan, sites)
    return flips


def _events_before(events: Sequence[tuple], pc: int) -> int:
    """How many walk ``events`` came before ``pc``'s first EXECUTE: all
    at earlier pcs, and the cuts that restarted ``pc`` before it (the
    walk never returns to an earlier pc)."""
    k = 0
    while k < len(events) and (
        events[k][0] < pc
        or (events[k][0] == pc and events[k][1] in _BEFORE_EXECUTE)
    ):
        k += 1
    return k


#: Tile state one batched pass holds at most; larger trial sets run in
#: several passes.
_BATCH_BYTES = 1 << 26


class _Draws(NamedTuple):
    """One trial's faults, drawn up front (:meth:`FaultCampaign._draw`)."""

    counters: FaultCounters
    #: Surviving gate flips: pc -> mask over the pc's flip targets.
    flips: dict
    #: The retry-budget exhaustion the gate flips cause, if any.
    abort: Optional[RetryBudgetExhausted]
    #: The walk's ``(pc, phase, site, cell)`` events, in walk order.
    events: Sequence[tuple]


@dataclass(frozen=True)
class Workload:
    """A deterministic program + readout for campaign trials.

    ``build`` returns a freshly constructed machine with the program
    loaded and all inputs written — called once for the golden run and
    once per trial, so every trial starts from identical state.
    ``readout`` extracts the result values from a halted machine;
    ``reference`` is the host-side expected value of those results.
    """

    name: str
    build: Callable[[], Mouse]
    readout: Callable[[Mouse], list[int]]
    reference: list[int]


def adder_workload(tech: DeviceParameters = MODERN_STT) -> Workload:
    """A 4-bit ripple adder over three SIMD columns (102 instructions)."""
    builder = ProgramBuilder(tile=0, rows=256, cols=8, reserved_rows=16)
    builder.activate((0, 1, 2))
    x = builder.word_at([0, 2, 4, 6])
    y = builder.word_at([8, 10, 12, 14])
    total = builder.word_at(arith.ripple_add(builder, x, y).rows)
    program = builder.finish()
    pairs = [(3, 5), (15, 15), (0, 7)]

    def build() -> Mouse:
        mouse = Mouse(tech, rows=256, cols=8)
        for col, (a, c) in enumerate(pairs):
            mouse.write_value(0, 0, col, 4, a)
            mouse.write_value(0, 8, col, 4, c)
        mouse.load(program)
        return mouse

    def readout(mouse: Mouse) -> list[int]:
        values = []
        for col in range(len(pairs)):
            value = 0
            for i, bit in enumerate(total.bits):
                value |= mouse.tile(0).get_bit(bit.row, col) << i
            values.append(value)
        return values

    return Workload(
        name="adder4x3",
        build=build,
        readout=readout,
        reference=[(a + c) % 32 for a, c in pairs],
    )


def svm_workload(tech: DeviceParameters = MODERN_STT) -> Workload:
    """A small but complete SVM decision (dot, square, accumulate)."""
    svm = compile_svm_decision(
        n_support=2,
        dimensions=2,
        input_bits=2,
        sv_bits=2,
        coef_bits=2,
        offset_bits=2,
        rows=1024,
        n_columns=1,
    )
    sv_int = np.array([[1, 2], [3, 1]])
    coef_int = np.array([2, -1])
    offset = 1
    x_int = [2, 3]

    def build() -> Mouse:
        mouse = svm.machine(sv_int, coef_int, offset, tech)
        svm.set_input(mouse, x_int)
        return mouse

    return Workload(
        name="svm2x2",
        build=build,
        readout=lambda mouse: [svm.read_score(mouse)],
        reference=[CompiledSvm.reference_score(x_int, sv_int, coef_int, offset)],
    )


def bnn_workload(tech: DeviceParameters = MODERN_STT) -> Workload:
    """A BNN output layer (XNOR-popcount scores + in-array argmax)."""
    from repro.compile.classifier import compile_bnn_output

    bnn = compile_bnn_output(fan_in=4, n_classes=3, bias_bits=3, rows=1024)
    weights01 = np.array(
        [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=int
    )
    biases = np.array([1, 0, 1], dtype=int)  # scores 4/1/3: unique argmax
    x_bits = [1, 0, 1, 1]
    scores = [
        int(np.sum(np.array(x_bits) == weights01[:, cls])) + int(biases[cls])
        for cls in range(3)
    ]
    expected = int(np.argmax(scores))

    def build() -> Mouse:
        mouse = bnn.machine(weights01, biases, tech)
        bnn.set_input(mouse, x_bits)
        return mouse

    return Workload(
        name="bnn4x3",
        build=build,
        readout=lambda mouse: [bnn.predict(mouse)],
        reference=[expected],
    )


WORKLOADS: dict[str, Callable[[DeviceParameters], Workload]] = {
    "adder": adder_workload,
    "svm": svm_workload,
    "bnn": bnn_workload,
}


class FaultCampaign:
    """N seeded trials of one workload under one fault plan."""

    def __init__(
        self,
        workload: Workload,
        plan: FaultPlan,
        trials: int = 16,
        seed: int = 0,
        telemetry=None,
        max_microsteps: int = 2_000_000,
    ) -> None:
        if trials < 1:
            raise ValueError("need at least one trial")
        self.workload = workload
        self.plan = plan
        self.trials = trials
        self.seed = seed
        self.telemetry = telemetry
        self.max_microsteps = max_microsteps
        #: Where the last :meth:`run` ran its trials: ``{"tier":
        #: "batched"}`` or ``{"tier": "interpreter", "reason": ...}``
        #: with an :data:`INTERPRETER_REASONS` entry.
        self.trial_tier: Optional[dict] = None

    def _trial_obs(self, parent_obs, n_jobs):
        """The hub one trial should emit to, resolved *at trial time*.

        Serial trials use the campaign's own hub.  Fanned-out trials
        run in forked workers whose ambient hub is the per-worker shard
        hub installed by the pool initializer — resolving lazily here
        (instead of once in the parent) is what routes ``fault.*``
        events into the shards rather than blacking them out.
        """
        if n_jobs <= 1:
            return parent_obs
        from repro.obs import active

        return active()

    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> CampaignReport:
        """Run the campaign; ``jobs > 1`` fans interpreted trials
        across processes.

        The trials run as the rows of one compiled batch unless one of
        :data:`INTERPRETER_REASONS` applies (:attr:`trial_tier` says
        which happened); the report is byte-identical either way.
        Trials are independent by construction — each one starts from a
        freshly built machine and draws from ``default_rng([seed,
        trial])`` — so the fan-out merges per-trial details back in
        trial order and the report JSON is byte-identical at any job
        count.  With
        ``jobs > 1`` each worker resolves its own ambient hub *at trial
        time* — the per-worker shard hub installed by the pool (see
        :mod:`repro.obs.fanout`) — so ``fault.*`` events survive
        fan-out: the parent merges the shards into the main event log
        after the pool drains.

        ``checkpoint_dir`` persists each trial's detail record the
        moment it completes; a killed campaign re-run against the same
        directory replays only the missing trials, and the merged
        report is byte-identical either way (per-trial seeding means a
        trial's outcome is the same no matter which process, or which
        resume attempt, computed it).
        """
        from repro import compilejit
        from repro.obs import active

        obs = active(self.telemetry)

        golden = self.workload.build()
        reason, compiled = self._interpreter_reason(golden, obs)
        initial = golden.bank.snapshot() if reason is None else None
        golden.run()
        golden_memory = golden.bank.snapshot()
        golden_values = self.workload.readout(golden)
        if golden_values != list(self.workload.reference):
            raise RuntimeError(
                f"workload {self.workload.name!r} golden run disagrees with "
                f"its reference: {golden_values} != {self.workload.reference}"
            )

        report = CampaignReport(
            workload=self.workload.name,
            trials=self.trials,
            seed=self.seed,
            plan=self.plan,
            reference=list(golden_values),
            lint=self._lint_golden(golden),
            hardening=self._hardening_summary(golden),
        )
        totals = {
            "injected": {},
            "detected": 0,
            "recovered": 0,
            "retries": 0,
            "max_retries_per_trial": 0,
        }

        from repro.durability.resume import TaskStore, run_resumable
        from repro.perf.parallel import get_default_jobs

        n_jobs = get_default_jobs() if jobs is None else jobs
        store = None
        if checkpoint_dir is not None:
            store = TaskStore(
                checkpoint_dir,
                # The trial count is deliberately absent: trial t only
                # depends on (seed, t), so extending a campaign from N
                # to M trials legitimately reuses the first N results.
                fingerprint={
                    "experiment": "faults",
                    "workload": self.workload.name,
                    "seed": self.seed,
                    "plan": self.plan.to_json_obj(),
                },
            )
        keys = [f"trial-{trial}" for trial in range(self.trials)]
        if reason is None:
            done = store.done(keys) if store is not None else set()
            pending = [t for t, key in enumerate(keys) if key not in done]
            draws = self._draw(pending, golden, compiled)
            if draws is None:
                reason = "microstep_budget"
        self.trial_tier = (
            {"tier": "batched"} if reason is None
            else {"tier": "interpreter", "reason": reason}
        )
        if reason is None:
            fresh: dict[int, dict] = {}
            per_pass = max(1, _BATCH_BYTES // sum(a.nbytes for a in initial))
            for lo in range(0, len(pending), per_pass):
                rows = pending[lo:lo + per_pass]
                fresh.update(zip(rows, self._run_batch(
                    rows, draws[lo:lo + per_pass], golden, compiled, initial,
                    golden_memory, golden_values,
                )))
            thunks = [lambda t=trial: fresh[t] for trial in range(self.trials)]
            n_jobs = 1
            compilejit.STATS["compiled_runs"] += 1
        else:
            thunks = [
                lambda t=trial: self._run_trial(
                    t, golden_memory, golden_values,
                    self._trial_obs(obs, n_jobs),
                )
                for trial in range(self.trials)
            ]
            compilejit.STATS["fallback_runs"] += 1
        details = run_resumable(keys, thunks, store, jobs=n_jobs)
        for detail in details:
            report.outcomes[detail["outcome"]] += 1
            for site, count in detail["injected"].items():
                totals["injected"][site] = totals["injected"].get(site, 0) + count
            totals["detected"] += detail["detected"]
            totals["recovered"] += detail["recovered"]
            totals["retries"] += detail["retries"]
            totals["max_retries_per_trial"] = max(
                totals["max_retries_per_trial"], detail["retries"]
            )
            report.details.append(detail)
        report.totals = totals
        return report

    # ------------------------------------------------------------------

    def _interpreter_reason(self, machine: Mouse, obs):
        """``(None, plan)`` when the trials may run as rows of the
        freshly built ``machine``'s compiled plan, else the first
        :data:`INTERPRETER_REASONS` entry that applies and None."""
        from repro import compilejit
        from repro.compilejit.exec import start_plan

        plan = self.plan
        if not compilejit.enabled():
            return "compiled_off", None
        if obs is not None:
            return "telemetry", None
        # Power is cut and restored.
        cycles = plan.nv_corruption_rate > 0 or plan.outage_rate > 0
        if _injects_flips(plan) and (cycles or plan.array_flip_rate > 0):
            return "mixed_faults", None
        compiled = start_plan(machine)
        if compiled is None or machine.controller.buffer.any():
            return "no_plan", None
        if cycles and not compiled.replay_stable:
            return "replay_unstable", None
        # A straight-line run takes 5 microsteps per instruction and 3
        # for the HALT; a retry adds none, and the microsteps a trial's
        # power cuts replay are counted when its walk is drawn.
        if 5 * compiled.n_instructions - 2 > self.max_microsteps:
            return "microstep_budget", None
        return None, compiled

    def _draw(
        self, trials: Sequence[int], golden: Mouse, compiled
    ) -> Optional[list[_Draws]]:
        """Each trial's faults, drawn up front from its own
        ``default_rng([seed, trial])``: a gate-flip campaign's flips,
        retries and abort (:class:`GateFlipDraws`), or any other
        campaign's power cuts, array flips and NV disturbs
        (:class:`WalkDraws`).  None when a trial's walk would reach
        ``max_microsteps``."""
        plan = self.plan
        rngs = [np.random.default_rng([self.seed, trial]) for trial in trials]
        if _injects_flips(plan):
            flips = _flip_draws(compiled, plan)
            draws = []
            for rng in rngs:
                counters = FaultCounters()
                drawn, abort = flips.draw(rng, counters)
                draws.append(_Draws(counters, drawn, abort, ()))
            return draws
        bank = golden.bank
        walk = WalkDraws(
            plan,
            compiled.n_instructions,
            (len(bank.data_tiles), bank.rows, bank.cols),
        )
        draws = []
        for rng in rngs:
            events = walk.draw(rng, self.max_microsteps)
            if events is None:
                return None
            draws.append(_Draws(FaultCounters(), {}, None, events))
        return draws

    def _run_batch(
        self,
        trials: Sequence[int],
        draws: Sequence[_Draws],
        golden: Mouse,
        compiled,
        initial: Sequence[np.ndarray],
        golden_memory: Sequence[np.ndarray],
        golden_values: list[int],
    ) -> list[dict]:
        """``trials`` as the samples of one lock-step pass of the
        ``compiled`` plan, under their :meth:`_draw` ``draws``.

        Each sample starts from the built machine's ``initial`` tiles,
        and after each pc's op its faults land on its bits of the
        batch's packed rows (:func:`~repro.compilejit.exec.run_batched`)
        where the interpreter lays them: surviving gate flips are XORed
        into the op's output row and an array flip is XORed in after
        the commit.  A verified gate re-reads its output on each sample
        an array flip has touched and re-issues or aborts as
        :meth:`ControllerFaultHook.after_logic` does; every other
        sample holds the golden run's data, which the re-read always
        passes.  A power cut needs no work: the op it replays writes
        what the op's first application wrote, since a plan's gates
        never read their own output row (IDEM001), array flips land
        only after every replay of their pc, and power cycles batch
        only on ``replay_stable`` plans.  A sample whose retry budget
        runs out has its tiles' rows copied, as the interpreter leaves
        them when it stops.  ``golden`` serves as the machine each
        finished sample is read out on.
        """
        from repro.compilejit.exec import run_batched, sample_state, switch_cells
        from repro.perf.batched import BatchedMouse

        program = golden.program
        plan = self.plan
        cols = golden.bank.cols
        counters = [draw.counters for draw in draws]
        aborts = [draw.abort for draw in draws]
        flips_at: dict[int, list] = {}
        stops_at: dict[int, list[int]] = {}
        cells_at: dict[int, list] = {}
        for row, (_, flips, abort, events) in enumerate(draws):
            for pc, mask in flips.items():
                flips_at.setdefault(pc, []).append((row, mask))
            if abort is not None:
                stops_at.setdefault(abort.pc, []).append(row)
            for pc, _, site, cell in events:
                if site == "array":
                    cells_at.setdefault(pc, []).append((row, cell))
        # The verified gates after the first array flip re-read rows.
        checks: set[int] = set()
        if cells_at:
            first = min(cells_at)
            marked = program.verify_pcs if plan.verify_marked else frozenset()
            checks = {
                pc
                for pc, instr in enumerate(program.instructions)
                if pc > first
                and isinstance(instr, LogicInstruction)
                and (plan.verify_retry or pc in marked)
            }
        gates = {pc: compiled.gates(pc) for pc in flips_at.keys() | checks}
        # The cell a flip mask's entries name, target after target.
        cells_of = {
            pc: [
                (tile, orow, c)
                for tile, _, orow, mask, _, _ in gates[pc]
                for c in range(mask.bit_length())
                if mask >> c & 1
            ]
            for pc in flips_at
        }
        stopped: dict[int, list[list[int]]] = {}
        flipped: set[int] = set()  # samples an array flip has touched
        kept: dict[int, int] = {}  # events an aborted sample got to

        def verify(rows, redo, pc: int, row: int) -> None:
            """``after_logic``'s verify loop on one sample (no gate
            flips, so no draws), its re-read as
            :func:`~repro.faults.injectors.verify_mismatches`'."""
            instr = program.instructions[pc]
            spec = instr.spec
            counts = [n for n in range(spec.n_inputs + 1) if spec.switches(n)]
            target = bool(spec.direction.target_state)
            preset = bool(spec.preset)
            shift = row * cols

            def mismatched() -> bool:
                for tile, ins, orow, mask, _, _ in gates[pc]:
                    words = rows[tile]
                    active = mask << shift
                    switch = switch_cells([words[i] for i in ins], counts, active)
                    expected = (switch if target else 0) | (
                        active & ~switch if preset else 0
                    )
                    if (words[orow] ^ expected) & active:
                        return True
                return False

            retries = 0
            while mismatched():
                counters[row].detected += 1
                if retries >= plan.retry_budget:
                    stopped[row] = [list(words) for words in rows]
                    aborts[row] = RetryBudgetExhausted.at(
                        pc, instr.spec.name, retries, plan.retry_budget
                    )
                    kept[row] = _events_before(draws[row].events, pc)
                    return
                retries += 1
                counters[row].retries += 1
                for tile, _, orow, mask, _, _ in gates[pc]:
                    words = rows[tile]
                    active = mask << shift
                    if preset:
                        words[orow] |= active
                    else:
                        words[orow] &= ~active
                redo((row,))
            if retries:
                counters[row].recovered += 1

        def hook(pc: int):
            flips = flips_at.get(pc, ())
            stops = stops_at.get(pc, ())
            cells = cells_at.get(pc, ())
            check = pc in checks

            def after(rows, redo) -> None:
                for row, mask in flips:
                    shift = row * cols
                    for i in np.flatnonzero(mask).tolist():
                        tile, orow, c = cells_of[pc][i]
                        rows[tile][orow] ^= 1 << (shift + c)
                if check:
                    for row in sorted(flipped - stopped.keys()):
                        verify(rows, redo, pc, row)
                for row in stops:
                    stopped[row] = [list(words) for words in rows]
                for row, (tile, r, c) in cells:
                    if row not in stopped:
                        rows[tile][r] ^= 1 << (row * cols + c)
                        flipped.add(row)

            return after

        bank = golden.bank
        machine = BatchedMouse(
            golden.params, len(trials), len(initial), bank.rows, bank.cols
        )
        for tile, state in zip(machine.tiles, initial):
            tile.state[...] = state
        machine.load(program)
        hooked = flips_at.keys() | stops_at.keys() | cells_at.keys() | checks
        run_batched(machine, compiled, {pc: hook(pc) for pc in hooked})

        details = []
        for row, trial in enumerate(trials):
            events = draws[row].events
            for _, _, site, _ in events[:kept.get(row, len(events))]:
                counters[row].injected[site] += 1
            if row in stopped:
                memory = [sample_state(words, row, cols) for words in stopped[row]]
            else:
                memory = [t.state[row] for t in machine.tiles]
            memory_match = all(
                np.array_equal(a, b) for a, b in zip(memory, golden_memory)
            )
            value_match = False
            if aborts[row] is None:
                for tile, state in zip(bank.data_tiles, memory):
                    tile.state[...] = state
                value_match = self.workload.readout(golden) == golden_values
            details.append(self._detail(
                trial, counters[row], aborts[row], memory_match, value_match
            ))
        return details

    @staticmethod
    def _hardening_summary(golden: Mouse) -> Optional[dict]:
        """Placement counts of the golden program's hardening metadata
        (None for unhardened workloads) — recorded in the report so a
        campaign's SDC rate is always read next to the protection it
        was measured under."""
        meta = golden.program.harden_meta
        if not meta:
            return None
        return {
            "schema": meta.get("schema"),
            "policy": dict(meta.get("policy") or {}),
            "tmr_groups": len(meta.get("tmr_groups", ())),
            "verify_pcs": len(meta.get("verify_pcs", ())),
            "assignment": {
                k: len(v) for k, v in sorted(
                    (meta.get("assignment") or {}).items()
                )
            },
        }

    @staticmethod
    def _lint_golden(golden: Mouse) -> dict:
        """Static verdict of the golden program against the machine it
        actually loads into — recorded in the report so SDC results are
        never cited for a statically unsafe program."""
        from repro.lint import LintConfig, lint_program

        bank = golden.bank
        report = lint_program(
            golden.program,
            LintConfig(
                n_data_tiles=len(bank.data_tiles),
                rows=bank.rows,
                cols=bank.cols,
            ),
        )
        return {
            "errors": report.n_errors,
            "warnings": report.n_warnings,
            "rules": list(report.rules_fired()),
        }

    def _run_trial(
        self,
        trial: int,
        golden_memory: Sequence[np.ndarray],
        golden_values: list[int],
        obs,
    ) -> dict:
        rng = np.random.default_rng([self.seed, trial])
        mouse = self.workload.build()
        injector = TrialInjector(self.plan, rng, telemetry=obs)
        injector.attach(mouse)
        controller = mouse.controller

        abort: Optional[RetryBudgetExhausted] = None
        steps = 0
        try:
            while not controller.halted:
                if steps >= self.max_microsteps:
                    raise InstructionBudgetExceeded(
                        f"trial {trial} exceeded {self.max_microsteps} microsteps"
                    )
                phase = controller.step()
                steps += 1
                if phase is Phase.COMMIT:
                    injector.after_commit(mouse)
                injector.after_microstep(mouse, phase)
        except RetryBudgetExhausted as exc:
            abort = exc

        counters = injector.counters
        if obs is not None:
            obs.histogram("fault.retries_per_trial").observe(counters.retries)
        memory_match = all(
            np.array_equal(a, b)
            for a, b in zip(mouse.bank.snapshot(), golden_memory)
        )
        value_match = (
            abort is None and self.workload.readout(mouse) == golden_values
        )
        return self._detail(trial, counters, abort, memory_match, value_match)

    def _detail(
        self,
        trial: int,
        counters: FaultCounters,
        abort: Optional[RetryBudgetExhausted],
        memory_match: bool,
        value_match: bool,
    ) -> dict:
        """One trial's report record.  The exhaustion carries *where*
        the budget died, not just a message; it goes into the frozen
        report rather than being flattened to a string."""
        aborted = None if abort is None else str(abort)
        outcome = self._classify(counters, aborted, memory_match, value_match)
        detail = {
            "trial": trial,
            "outcome": outcome,
            "injected": counters.to_json_obj()["injected"],
            "detected": counters.detected,
            "recovered": counters.recovered,
            "retries": counters.retries,
            "memory_match": memory_match,
            "value_match": value_match,
        }
        if abort is not None:
            detail["abort_reason"] = aborted
            detail["abort"] = {
                "pc": abort.pc, "gate": abort.gate, "retries": abort.retries
            }
        return detail

    @staticmethod
    def _classify(
        counters, aborted: Optional[str], memory_match: bool, value_match: bool
    ) -> str:
        if aborted is not None:
            return "detected_aborted"
        if not memory_match or not value_match:
            # Completed "successfully" with wrong state: the silent
            # corruption class the recovery layer exists to empty.
            return "sdc"
        if counters.total_injected == 0:
            return "clean"
        if (
            counters.detected > 0
            or counters.recovered > 0
            or counters.injected["outage"] > 0
        ):
            # Something fired — a verify mismatch or the power-loss
            # machinery — and the result still came out right.
            return "detected_recovered"
        return "masked"
