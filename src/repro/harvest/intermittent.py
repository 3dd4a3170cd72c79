"""Intermittent-execution engines.

Two engines share a common configuration and metric ledger:

* :class:`IntermittentRun` wraps a functional :class:`repro.core.Mouse`
  and executes it instruction by instruction against the capacitor.
  Outages arise from energy depletion (adversarial power cuts at
  chosen microsteps are :func:`repro.faults.outages.run_with_outages`).
  Used for correctness work and small programs.

* :class:`ProfileRun` executes an :class:`InstructionProfile` — run-
  length-encoded (count, energy/instruction) segments produced by the
  workload mappings — burst by burst with closed-form window crossing.
  Used for the paper-scale sweeps of Figures 9-12, where a single
  benchmark is ~10^5-10^6 instructions and the sweep covers dozens of
  power levels.

Both charge Backup continuously, Dead on every re-performed
instruction, and Restore on every restart, per the EH-model metrics.
Neither defines any buffer physics: every voltage update, threshold
test and charge window is evaluated by the closures of
:meth:`repro.harvest.capacitor.EnergyBuffer.stepper`, either directly
or through the buffer's methods (``ProfileRun``'s closed-form burst
loop, the one exception, inlines its ideal transfers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.accelerator import Mouse
from repro.core.controller import InstructionBudgetExceeded
from repro.devices.parameters import DeviceParameters
from repro.energy.metrics import Breakdown, Category, EnergyLedger
from repro.energy.model import InstructionCostModel
from repro.harvest.capacitor import (
    DEFAULT_CHARGE_BACKOFF,
    DEFAULT_CHARGE_RETRIES,
    ChargeWindowFailure,
    EnergyBuffer,
    buffer_for,
)
from repro.harvest.source import (
    ConstantPowerSource,
    PowerSource,
    is_constant,
    trace_position_of,
)

#: Degraded-mode taxonomy keys (see :class:`repro.env.DegradedMode`):
#: ``skipped_checkpoint`` — the adaptive cadence stretched the simulated
#: backup period past the fixed baseline; ``deferred_commit`` — a due
#: host NVImage write was postponed for lack of headroom; ``fail_stop``
#: — a charge window could not reach the restart threshold.
DEGRADED_MODES = ("skipped_checkpoint", "deferred_commit", "fail_stop")


def _fresh_degraded() -> dict[str, int]:
    return {mode: 0 for mode in DEGRADED_MODES}


#: :func:`repro.obs.active`, bound by the first :func:`_obs_active`.
_active: Optional[Callable] = None


def _obs_active(telemetry):
    """``repro.obs.active(telemetry)``.  ``repro.obs`` imports this
    module (through ``repro.experiments``), so it cannot be imported at
    module level; the first call imports it once for every later run."""
    global _active
    if _active is None:
        from repro.obs import active

        _active = active
    return _active(telemetry)


class NonTerminationError(RuntimeError):
    """A single instruction needs more energy than one full capacitor
    window can supply: the program would repeat it forever (the paper's
    forward-progress / non-termination condition, Section I).

    Carries the :class:`Breakdown` accumulated up to the diagnosis and
    the offending instruction's net energy draw, so callers can report
    *how far* the run got and *how much* the stuck instruction needs
    relative to the window.  Under a trace-driven source,
    ``trace_position`` additionally records the sample index and
    elapsed time where progress stopped.
    """

    def __init__(
        self,
        message: str,
        *,
        breakdown: Optional[Breakdown] = None,
        instruction_energy: Optional[float] = None,
        trace_position=None,
    ) -> None:
        super().__init__(message)
        self.breakdown = breakdown
        self.instruction_energy = instruction_energy
        self.trace_position = trace_position


def charge_until_ready(run, ledger: EnergyLedger, obs, initial: bool = False) -> None:
    """Charge ``run``'s buffer to the restart threshold.

    ``run`` is an :class:`IntermittentRun` or a :class:`ProfileRun`: the
    buffer's :meth:`~repro.harvest.capacitor.EnergyBuffer.charge`
    advances its ``time``, and each attempt's wait lands on ``ledger``
    as CHARGING latency.  A :class:`ChargeWindowFailure` — the
    threshold is unreachable — is tallied in ``run.degraded`` as the
    degraded taxonomy's fail-stop.
    """
    start = run.time
    try:
        run.time, waited, _ = run.config.buffer.charge(
            run.config.source,
            run.time,
            lambda wait: ledger.charge(Category.CHARGING, 0.0, wait),
            run.charge_retries,
            run.charge_backoff,
        )
    except ChargeWindowFailure as failure:
        run.degraded["fail_stop"] += 1
        if obs is not None:
            obs.counter("env.degraded.fail_stop").inc()
            obs.emit(
                "env.degraded", run.time, mode="fail_stop",
                voltage=failure.voltage,
            )
        raise
    if obs is not None:
        obs.histogram("harvest.off_time").observe(waited)
        obs.emit("harvest.charge", start, dur=waited, initial=initial)


@dataclass
class HarvestingConfig:
    """Source + buffer for one experiment point."""

    source: PowerSource
    buffer: EnergyBuffer

    @classmethod
    def paper(cls, params: DeviceParameters, source_watts: float) -> "HarvestingConfig":
        """The paper's configuration: constant source, per-technology
        capacitor and voltage window, starting discharged."""
        return cls(
            source=ConstantPowerSource(source_watts),
            buffer=buffer_for(params),
        )

    @classmethod
    def from_trace(
        cls,
        params: DeviceParameters,
        trace,
        *,
        leakage_amps: float = 0.0,
        esr_ohms: float = 0.0,
    ) -> "HarvestingConfig":
        """The paper's per-technology buffer driven by a
        :class:`repro.env.HarvestTrace` (optionally non-ideal) instead
        of the constant source."""
        from repro.env.trace import TraceSource

        return cls(
            source=TraceSource(trace),
            buffer=buffer_for(
                params, leakage_amps=leakage_amps, esr_ohms=esr_ohms
            ),
        )


# ----------------------------------------------------------------------
# Functional (cycle-accurate) engine
# ----------------------------------------------------------------------


class IntermittentRun:
    """Drive a functional Mouse under an energy harvester.

    The run starts with the capacitor below the restart threshold, so
    it begins with a charging period, exactly as in the paper's
    evaluation.  Each executed instruction draws its (measured) energy
    from the buffer while the source keeps charging it; when the
    voltage sensor hits the shutdown bound, power is cut *without
    warning* to the controller, and the engine waits for the recharge.
    """

    def __init__(
        self,
        mouse: Mouse,
        config: HarvestingConfig,
        telemetry=None,
        vcap_sample_period: int = 64,
        checkpointer=None,
    ) -> None:
        """``telemetry`` — an optional :class:`repro.obs.Telemetry`;
        when omitted the ambient hub (:func:`repro.obs.current`) is
        used, which is disabled by default.  ``vcap_sample_period``
        sets how many committed instructions elapse between samples of
        the capacitor-voltage timeline (only when telemetry is on).
        ``checkpointer`` — an optional
        :class:`repro.durability.Checkpointer`; when set, the run
        writes crash-consistent NVImages every N committed instructions
        and at outage boundaries, so a killed host process resumes via
        :func:`repro.durability.resume_intermittent` with a final
        breakdown byte-identical to the uninterrupted run.
        """
        self.mouse = mouse
        self.config = config
        self.time = 0.0
        self.telemetry = telemetry
        if vcap_sample_period < 1:
            raise ValueError("vcap_sample_period must be >= 1")
        self.vcap_sample_period = vcap_sample_period
        self.checkpointer = checkpointer
        #: Charge-window retry budget for non-ideal buffers (see
        #: :meth:`EnergyBuffer.charge`); an ideal buffer never retries.
        self.charge_retries = DEFAULT_CHARGE_RETRIES
        self.charge_backoff = DEFAULT_CHARGE_BACKOFF
        #: Degraded-mode tallies (see :data:`DEGRADED_MODES`).
        self.degraded = _fresh_degraded()
        self._obs = None  # resolved per run()
        # Resumable loop state, promoted from run() locals so a
        # checkpoint can capture it and an exact resume restore it.
        self.executed = 0
        self._commits_in_window = 0
        self._drawn_in_window = 0.0
        self._stalled_pc: Optional[int] = None
        #: None = fresh run; "powered" = resumed at an instruction
        #: boundary mid-window; "outage" = resumed at an outage
        #: boundary (machine off, capacitor below the restart bound).
        self._resume_phase: Optional[str] = None
        # The fused plan loop's catch-up while it runs (see settle()).
        self._settle: Optional[Callable[[], None]] = None

    def run(self, max_instructions: int = 10_000_000) -> Breakdown:
        controller = self.mouse.controller
        ledger = self.mouse.ledger
        buffer = self.config.buffer
        source = self.config.source
        cycle = self.mouse.cost.cycle_time

        obs = self._obs = _obs_active(self.telemetry)
        if obs is not None:
            self.mouse.attach_telemetry(obs)
            vcap = obs.gauge("harvest.vcap")
            vcap.set(buffer.voltage, ts=self.time)

        checkpointer = self.checkpointer
        if self._resume_phase is None:
            charge_until_ready(self, ledger, obs, initial=True)
            if not controller.powered:
                controller.power_on()
        elif self._resume_phase == "outage":
            # Resumed at an outage boundary: the checkpoint was taken
            # right after power_off(), so re-enter the loop exactly
            # where the uninterrupted run stood — charge, restart.
            charge_until_ready(self, ledger, obs)
            controller.power_on()
            self._commits_in_window = 0
            self._drawn_in_window = 0.0
            if obs is not None:
                obs.emit("harvest.restore", self.time, voltage=buffer.voltage)
                vcap.set(buffer.voltage, ts=self.time)
        # "powered": resumed at an instruction boundary mid-window; the
        # machine is live and the loop continues without any preamble.
        self._resume_phase = None

        # Fused fast path: when nothing observes the run per microstep
        # (no telemetry, profiler or fault hook) and the loaded program
        # compiled into a replay-stable plan, execute the whole loop in
        # repro.compilejit with bit-identical arithmetic, for any
        # source and buffer.  Outages still run the real power_off /
        # charge / power_on methods, and a checkpointer gets this
        # loop's hook calls in this loop's order.
        from repro import compilejit

        if compilejit.enabled():
            from repro.compilejit.exec import (
                intermittent_eligible,
                run_intermittent_fused,
            )

            plan = intermittent_eligible(self, obs)
            if plan is not None:
                return run_intermittent_fused(self, plan, max_instructions)
            compilejit.STATS["fallback_runs"] += 1

        # Power is cut at *microstep* granularity: an outage can land
        # between fetch, execute, PC-stage and commit, so the dual-PC
        # protocol and Dead accounting are exercised exactly as in
        # Figure 7 (worst case: executed but uncommitted work).
        from repro.core.controller import Phase

        # The buffer's closures, fetched once.  With no ESR, draw()
        # ignores the duration, and with no leakage leak() returns the
        # voltage untouched, so every buffer takes the same calls.
        steps = buffer.stepper()
        add, draw, leak, off_at = steps.add, steps.draw, steps.leak, steps.off_at
        while not controller.halted:
            if self.executed >= max_instructions:
                raise InstructionBudgetExceeded(
                    f"instruction budget exhausted: program did not halt "
                    f"within {max_instructions} instructions"
                )
            energy_before = ledger.breakdown.total_energy
            phase = controller.step()
            consumed = ledger.breakdown.total_energy - energy_before
            committed = phase is Phase.COMMIT or controller.halted
            if committed:
                self.executed += 1
                self._commits_in_window += 1
                harvested = source.energy(self.time, cycle)
                self.time += cycle
                buffer.voltage = leak(add(buffer.voltage, harvested), cycle)
                if (
                    obs is not None
                    and self.executed % self.vcap_sample_period == 0
                ):
                    vcap.set(buffer.voltage, ts=self.time)
            buffer.voltage = draw(buffer.voltage, consumed, cycle)
            self._drawn_in_window += consumed
            if buffer.voltage <= off_at and not controller.halted:
                self._check_progress()
                if obs is not None:
                    obs.counter("harvest.outages").inc()
                    obs.emit(
                        "harvest.outage",
                        self.time,
                        voltage=buffer.voltage,
                        instructions=self.executed,
                    )
                controller.power_off()
                if checkpointer is not None:
                    checkpointer.on_outage(self)
                charge_until_ready(self, ledger, obs)
                controller.power_on()
                self._commits_in_window = 0
                self._drawn_in_window = 0.0
                if obs is not None:
                    obs.emit("harvest.restore", self.time, voltage=buffer.voltage)
                    vcap.set(buffer.voltage, ts=self.time)
            if committed and checkpointer is not None:
                # End-of-iteration boundary: resuming here re-enters
                # the loop top, which is exactly what the uninterrupted
                # run does next.
                checkpointer.on_commit(self)
        if obs is not None:
            vcap.set(buffer.voltage, ts=self.time)
        return ledger.breakdown

    def settle(self) -> None:
        """Bring the machine's tile states and transfer buffer up to the
        instructions the run has executed.  The fused plan loop applies
        its ops to them only where something reads them
        (:func:`repro.compilejit.exec.run_intermittent_fused`), so a hook
        that reads them mid-run calls this first; hooks never write
        them.  On the scalar loop, and outside ``run()``, they are
        always current and this does nothing."""
        if self._settle is not None:
            self._settle()

    def _check_progress(self) -> None:
        """Non-termination guard, run at every outage.

        If a full capacitor window comes and goes without a single
        commit, remember where the machine was stuck; a second
        consecutive zero-progress window at the same PC means the
        in-flight instruction outdraws the window and the run would
        retry it forever (paper Section I).  Two windows (not one) so a
        window merely truncated by earlier work is never misdiagnosed.
        """
        if self._commits_in_window:
            self._stalled_pc = None
            return
        pc = self.mouse.controller.pc.read()
        if pc == self._stalled_pc:
            buffer = self.config.buffer
            position = trace_position_of(self.config.source, self.time)
            where = f" ({position})" if position is not None else ""
            raise NonTerminationError(
                f"no forward progress: the instruction at pc "
                f"{pc} drew {self._drawn_in_window:.3e} J without "
                f"committing in two consecutive capacitor "
                f"windows ({buffer.window_energy:.3e} J usable) "
                "— reduce the active-column parallelism or "
                f"enlarge the buffer{where}",
                breakdown=self.mouse.ledger.breakdown,
                instruction_energy=self._drawn_in_window,
                trace_position=position,
            )
        self._stalled_pc = pc


# ----------------------------------------------------------------------
# Aggregate (profile) engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """A run of identical instructions in a workload's stream.

    ``energy`` is the full per-instruction energy (array + peripheral +
    fetch); ``backup`` the per-instruction checkpoint energy; ``label``
    is for reporting only.  ``addresses`` records how many row/column
    addresses the instruction specifies (the paper's conservative fixed
    cycle waits for the worst case of 5; the event-driven-issue
    ablation uses this field to price a variable-latency alternative).
    """

    count: int
    energy: float
    backup: float
    label: str = ""
    addresses: int = 5
    #: Instruction kind in the profile vocabulary (``PRESET`` / ``READ``
    #: / ``WRITE`` / ``ACTIVATE`` / a gate name); "" when the producer
    #: predates kind tracking.  Lets the static cost pass
    #: (:mod:`repro.lint.cost`) cross-check its closed-form bounds
    #: against every priced segment.
    kind: str = ""
    #: Active columns the segment's instructions were priced at
    #: (0 = unknown).
    columns: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("segment count cannot be negative")
        if not (math.isfinite(self.energy) and math.isfinite(self.backup)):
            raise ValueError("segment energies must be finite")
        if self.energy < 0 or self.backup < 0:
            raise ValueError("segment energies cannot be negative")
        if not 0 <= self.addresses <= 5:
            raise ValueError("instructions carry 0-5 addresses")
        if self.columns < 0:
            raise ValueError("segment column count cannot be negative")


@dataclass
class InstructionProfile:
    """Run-length-encoded instruction stream of one workload."""

    segments: list[Segment] = field(default_factory=list)
    name: str = "workload"
    #: Columns the restart re-activation must drive (restore cost).
    active_columns: int = 1

    def add(
        self,
        count: int,
        energy: float,
        backup: float,
        label: str = "",
        addresses: int = 5,
        kind: str = "",
        columns: int = 0,
    ) -> None:
        if count:
            self.segments.append(
                Segment(count, energy, backup, label, addresses, kind, columns)
            )

    @property
    def instructions(self) -> int:
        return sum(s.count for s in self.segments)

    @property
    def total_energy(self) -> float:
        """Compute + backup energy under continuous power."""
        return sum(s.count * (s.energy + s.backup) for s in self.segments)

    def peak_instruction_energy(self) -> float:
        return max((s.energy + s.backup) for s in self.segments) if self.segments else 0.0


class ProfileRun:
    """Event-driven intermittent execution of an instruction profile.

    Within a segment every instruction costs the same, so the number of
    instructions until the buffer hits the shutdown bound has a closed
    form; the engine hops from burst boundary to burst boundary instead
    of ticking cycles.  On each restart it charges Restore (activate
    re-issue) and Dead (the expected re-performed instruction — the
    paper's worst case is the full instruction, the best case nothing;
    ``dead_fraction`` sets the expectation, default 1.0 = conservative
    worst case, matching "the maximum penalty is repeating the last
    instruction").  Under a constant source the bursts of a long
    segment soon repeat a cycle bit for bit, and the engine adds the
    cycle's whole repeats in one step.
    """

    def __init__(
        self,
        profile: InstructionProfile,
        cost: InstructionCostModel,
        config: HarvestingConfig,
        dead_fraction: float = 1.0,
        checkpoint_period: int = 1,
        telemetry=None,
        checkpointer=None,
        profiler=None,
        adaptive=None,
    ) -> None:
        """``checkpoint_period`` — checkpoint the PC every N instructions
        instead of every instruction (the Section IV-D frequency
        trade-off): Backup energy scales by 1/N, but a restart
        re-performs on average (N-1)/2 + 1 instructions instead of at
        most one.  The paper picks N = 1 for simplicity; the ablation
        experiment sweeps this knob.

        ``checkpointer`` — optional :class:`repro.durability.Checkpointer`
        for *host-process* durability (distinct from the simulated
        checkpoint above): burst boundaries write NVImages so a killed
        sweep resumes bit-exactly.

        ``profiler`` — optional :class:`repro.obs.prof.EnergyProfiler`;
        every charge is then attributed to the current segment's label
        under a frame named after the profile, and the profiler's root
        equals the returned breakdown bit-exactly.

        ``adaptive`` — optional :class:`repro.env.AdaptivePolicy`;
        when set, the simulated checkpoint cadence stretches with
        capacitor headroom (up to ``adaptive.max_period``) and snaps
        back to ``checkpoint_period`` as the voltage sags, so every
        burst that can actually hit the shutdown bound runs at the
        fixed baseline cadence.  Skipped simulated checkpoints are
        tallied in :attr:`degraded` (``skipped_checkpoint``).
        """
        if not 0.0 <= dead_fraction <= 1.0:
            raise ValueError("dead_fraction must be in [0, 1]")
        if checkpoint_period < 1:
            raise ValueError("checkpoint_period must be >= 1")
        self.profile = profile
        self.cost = cost
        self.config = config
        self.dead_fraction = dead_fraction
        self.checkpoint_period = checkpoint_period
        self.telemetry = telemetry
        self.checkpointer = checkpointer
        self.profiler = profiler
        self.adaptive = adaptive
        #: Charge-window retry budget for non-ideal buffers.
        self.charge_retries = (
            adaptive.max_charge_retries if adaptive is not None
            else DEFAULT_CHARGE_RETRIES
        )
        self.charge_backoff = (
            adaptive.charge_backoff if adaptive is not None
            else DEFAULT_CHARGE_BACKOFF
        )
        #: Degraded-mode tallies (see :data:`DEGRADED_MODES`).
        self.degraded = _fresh_degraded()
        # Resumable progress cursor: segment index, instructions left in
        # that segment (None = segment not yet entered), simulated time,
        # and the ledger (exposed so a checkpoint can snapshot its
        # breakdown mid-run).
        self.time = 0.0
        self.seg_index = 0
        self.remaining: Optional[int] = None
        self.ledger: Optional[EnergyLedger] = None
        #: Set by resume_profile: skip the initial charge and continue
        #: from the stored cursor.
        self._resumed = False

    def run(self) -> Breakdown:
        """Execute the profile (or, after
        :func:`repro.durability.resume_profile`, the rest of it) and
        return the run's :class:`Breakdown`.

        An observed run — one with a telemetry hub (its own or the
        ambient one), a profiler or a host checkpointer — is the
        method-call loop itself,
        :func:`repro.perf.baseline.profile_run_reference`, which makes
        every hook call.  Every other run takes one hoisted loop for
        every source, buffer and cadence, with the referee's results:
        the cursor, the buffer voltage and the breakdown live in
        locals, every voltage update and charge window goes through the
        buffer's :meth:`~repro.harvest.capacitor.EnergyBuffer.stepper`
        closures (the closed-form burst loop alone inlines its ideal
        transfers), and the source's and the ledger's expressions are
        evaluated as their own methods evaluate them.  The closed-form
        loop (a constant source into an ideal buffer at a fixed
        cadence) folds a segment's repeating restart cycles: counts
        advance by multiplication and every float total takes the
        cycle's increments in the loop's order (:func:`_fold_cycles`),
        so the results are the unfolded loop's bits.  The harvest over
        ``[t, t + d]`` is ``watts * d`` for a constant source
        (:class:`ConstantPowerSource` or a constant trace); a
        fluctuating :class:`repro.env.TraceSource` is walked with its
        :meth:`~repro.env.TraceSource.stepper`; any other source is
        called through its own methods.  The locals are flushed onto
        the run, ledger and buffer at the end and before any exception.
        """
        if (
            _obs_active(self.telemetry) is not None
            or self.profiler is not None
            or self.checkpointer is not None
        ):
            from repro.perf.baseline import profile_run_reference

            return profile_run_reference(self)
        if self.ledger is None:
            self.ledger = EnergyLedger()
        profile = self.profile
        degraded = self.degraded
        adaptive = self.adaptive
        base_period = period = self.checkpoint_period
        dead_fraction = self.dead_fraction
        retries = self.charge_retries
        backoff = self.charge_backoff

        buffer = self.config.buffer
        steps = buffer.stepper()
        add, draw, leak = steps.add, steps.draw, steps.leak
        charge, off_at = steps.charge, steps.off_at
        cap = buffer.capacitance
        hc = 0.5 * cap  # stored energy is hc * v * v
        e_off = hc * buffer.v_off * buffer.v_off
        e_on = hc * buffer.v_on * buffer.v_on
        window = e_on - e_off

        cost = self.cost
        cycle = cost.cycle_time
        restore_e = cost.prices.restore[profile.active_columns]
        restore_l = cost.restore_latency()
        dead_l = cycle * (dead_fraction * ((base_period - 1) / 2.0 + 1.0))
        inf = math.inf

        t = self.time
        v = buffer.voltage
        b = self.ledger.breakdown
        ce, cl, be = b.compute_energy, b.compute_latency, b.backup_energy
        de, dl = b.dead_energy, b.dead_latency
        re_, rl = b.restore_energy, b.restore_latency
        chl = b.charging_latency
        ninstr, nrestart = b.instructions, b.restarts
        skipped = degraded["skipped_checkpoint"]

        source = self.config.source
        watts = None  # a constant source's level: harvest = watts * d
        energy = energy_ahead = source.energy
        time_to_harvest = source.time_to_harvest
        if is_constant(source):
            watts = source.watts
        else:
            from repro.env.trace import TraceSource

            if type(source) is TraceSource and t >= 0.0:
                energy, energy_ahead, time_to_harvest = source.stepper(t)
        # With a constant source and a fixed cadence the net drain per
        # instruction is fixed per segment.
        fixed_net = watts is not None and adaptive is None
        h_cycle = watts * cycle if watts is not None else 0.0
        # A finite constant source into an ideal buffer at a fixed
        # cadence runs each segment in the closed-form burst loop below:
        # every harvest and draw there is a finite non-negative product,
        # so the buffer's domain checks cannot fire.  Anything else
        # steps through the stepper's add, draw and leak, which keep
        # every check.
        simple = (
            fixed_net
            and 0.0 < watts < inf
            and buffer.is_ideal
            and restore_e >= 0.0
        )

        def flush(seg_index, remaining) -> None:
            b.compute_energy, b.compute_latency = ce, cl
            b.backup_energy = be
            b.dead_energy, b.dead_latency = de, dl
            b.restore_energy, b.restore_latency = re_, rl
            b.charging_latency = chl
            b.instructions, b.restarts = ninstr, nrestart
            buffer.voltage = v
            self.time = t
            self.seg_index = seg_index
            self.remaining = remaining
            degraded["skipped_checkpoint"] = skipped

        def account_wait(wait) -> None:
            # ledger.charge(CHARGING, 0.0, wait), once per charge attempt.
            nonlocal chl
            if wait < 0:
                raise ValueError("energy and latency must be non-negative")
            chl += wait

        # The closed-form loop watches at most once per segment
        # (``armed_at``) for repeating cycles to fold.
        armed_at = -1
        seg_index = self.seg_index
        remaining = self.remaining
        try:
            if not self._resumed:
                # Initial charge (capacitor starts discharged).
                v, t, _, _ = charge(
                    v, t, source, energy, time_to_harvest, account_wait,
                    retries, backoff,
                )
                seg_index = 0
                remaining = None
            self._resumed = False

            table = _segment_table(profile, base_period, dead_fraction)
            n_segments = len(table)
            while seg_index < n_segments:
                (
                    count, seg_e, backup, backup_per, per_instr,
                    dead, dead_e, dead_be,
                ) = table[seg_index]
                if remaining is None:
                    remaining = count
                if fixed_net:
                    net = per_instr - h_cycle
                    if simple and not net > window:
                        # Closed forms: each burst decides only its
                        # length and whether it ends in an outage.  (A
                        # segment no burst can finish goes on to raise
                        # below.)  The transfers here are the stepper's
                        # add-then-draw of a finite non-negative harvest
                        # and drain, written inline: calling add() and
                        # draw() for the burst, the restore and the dead
                        # replay made a harvest_sweep op cycle 27 %
                        # slower (median of per-process minimum times
                        # 0.433 -> 0.550 s, 12 alternating processes,
                        # seed 11, shared 2-core VM).
                        #
                        # A burst's length, outage and wait depend only
                        # on its loop-top voltage while the segment has
                        # work past it, and every outage's wait lands
                        # the buffer near v_on, so loop-top voltages
                        # soon repeat bit for bit.  From the first
                        # outage of a segment whose drain left covers
                        # many windows, ``tops`` maps each loop-top
                        # voltage to its burst's index in ``seen``
                        # (length, and wait or None); the first repeat
                        # folds the cycle's whole repeats at once.
                        tops = None
                        while remaining > 0:
                            if tops is not None:
                                if tops:
                                    seen.append(
                                        (burst, wait if nrestart != mark else None)
                                    )
                                mark = nrestart
                                j = tops.get(v)
                                if j is not None:
                                    # Only repeats that leave work behind,
                                    # as every burst of the cycle did when
                                    # it was seen.
                                    loop = seen[j:]
                                    size = sum(n for n, _ in loop)
                                    k = (remaining - 1) // size
                                    if k * len(loop) >= _FOLD_BURSTS:
                                        rows = _cycle_rows(
                                            loop, cycle, seg_e, backup_per,
                                            restore_e, restore_l,
                                            dead_e, dead_l, dead_be,
                                        )
                                        ce, cl, be, de, dl, re_, rl, chl, t = (
                                            _fold_cycles(
                                                (ce, cl, be, de, dl, re_, rl, chl, t),
                                                rows, k,
                                            )
                                        )
                                        ninstr += k * size
                                        remaining -= k * size
                                        nrestart += k * sum(
                                            w is not None for _, w in loop
                                        )
                                    tops = None
                                elif len(seen) >= _FOLD_WATCH:
                                    tops = None
                                else:
                                    tops[v] = len(seen)
                            if net <= 0.0:
                                # Source outruns consumption: the rest
                                # of the segment is one burst.
                                burst = remaining
                            else:
                                headroom = hc * v * v - e_off
                                if not headroom > 0.0:
                                    headroom = 0.0
                                burst = int(headroom // net)
                                if burst < 1:
                                    burst = 1
                                if burst > remaining:
                                    burst = remaining
                            consumed = burst * per_instr
                            bc = burst * cycle
                            ce += burst * seg_e
                            cl += bc
                            be += burst * backup_per
                            ninstr += burst
                            remaining -= burst
                            v = (2.0 * (hc * v * v + watts * bc) / cap) ** 0.5
                            total = hc * v * v - consumed
                            v = (2.0 * total / cap) ** 0.5 if total > 0.0 else 0.0
                            t += bc
                            if v <= off_at and remaining > 0:
                                # Outage: the charge's one closed-form
                                # wait (an unreachable threshold goes to
                                # charge() to fail-stop), restore, then
                                # the dead replay.
                                needed = e_on - hc * v * v
                                wait = needed / watts if needed > 0.0 else 0.0
                                if not wait < inf:
                                    charge(
                                        v, t, source, energy, time_to_harvest,
                                        account_wait, retries, backoff,
                                    )
                                v = (2.0 * (hc * v * v + watts * wait) / cap) ** 0.5
                                t += wait
                                chl += wait
                                nrestart += 1
                                re_ += restore_e
                                rl += restore_l
                                v = (2.0 * (hc * v * v + watts * restore_l) / cap) ** 0.5
                                total = hc * v * v - restore_e
                                v = (2.0 * total / cap) ** 0.5 if total > 0.0 else 0.0
                                t += restore_l
                                v = (2.0 * (hc * v * v + watts * dead_l) / cap) ** 0.5
                                total = hc * v * v - dead
                                v = (2.0 * total / cap) ** 0.5 if total > 0.0 else 0.0
                                t += dead_l
                                de += dead_e
                                dl += dead_l
                                be += dead_be
                                if armed_at != seg_index:
                                    armed_at = seg_index
                                    if remaining * net >= _FOLD_WINDOWS * window:
                                        tops, seen = {}, []
                        seg_index += 1
                        remaining = None
                        continue
                while remaining > 0:
                    if not fixed_net:
                        if adaptive is not None:
                            # Headroom-aware cadence: stretch the
                            # simulated checkpoint period when the
                            # buffer is charged, snap back to the fixed
                            # baseline as it sags.
                            headroom = hc * v * v - e_off
                            if not headroom > 0.0:
                                headroom = 0.0
                            frac = headroom / window if window > 0.0 else 0.0
                            period = adaptive.period_for(frac, base_period)
                            backup_per = backup / period
                            per_instr = seg_e + backup_per
                        per_cycle = (
                            h_cycle if watts is not None
                            else energy_ahead(t, cycle)
                        )
                        net = per_instr - per_cycle
                        if period > base_period and net > 0.0:
                            # A stretched burst must never be the one
                            # that hits the shutdown bound (its replay
                            # would cost more than the baseline's):
                            # without one instruction of slack above the
                            # tighten threshold, run this burst at the
                            # baseline.
                            slack = int(
                                (headroom - adaptive.tighten_below * window) // net
                            )
                            if slack < 1:
                                period = base_period
                                backup_per = backup / period
                                per_instr = seg_e + backup_per
                                net = per_instr - per_cycle
                    if net <= 0.0:
                        # Source outruns consumption: the whole segment
                        # completes without an outage.
                        burst = remaining
                    else:
                        if net > window:
                            flush(seg_index, remaining)
                            position = trace_position_of(source, t)
                            where = f" ({position})" if position is not None else ""
                            raise NonTerminationError(
                                f"{profile.name}: instruction needs "
                                f"{net:.3e} J net but the capacitor window "
                                f"holds {window:.3e} J — no "
                                "forward progress is possible; reduce the "
                                "active-column parallelism or enlarge the "
                                f"buffer{where}",
                                breakdown=b,
                                instruction_energy=net,
                                trace_position=position,
                            )
                        headroom = hc * v * v - e_off
                        if not headroom > 0.0:
                            headroom = 0.0
                        burst = int(headroom // net)
                        if burst < 1:
                            burst = 1
                        if burst > remaining:
                            burst = remaining
                    if period > base_period:
                        if net > 0.0:
                            # Cap the stretched burst at the tighten
                            # threshold so the final stretch before any
                            # outage runs at the baseline cadence.
                            slack = int(
                                (headroom - adaptive.tighten_below * window) // net
                            )
                            if slack < burst:
                                burst = slack
                        stretched = burst // base_period - burst // period
                        if burst > 0 and stretched > 0:
                            skipped += stretched
                    consumed = burst * per_instr
                    bc = burst * cycle
                    ce += burst * seg_e
                    cl += bc
                    be += burst * backup_per
                    ninstr += burst
                    remaining -= burst
                    harvested = watts * bc if watts is not None else energy(t, bc)
                    v = leak(draw(add(v, harvested), consumed, bc), bc)
                    t += bc
                    if v <= off_at and remaining > 0:
                        # Outage: recharge, restore, then re-perform the
                        # work since the last checkpoint (Dead): at most
                        # one instruction at period 1, (N-1)/2 + 1
                        # expected at period N.
                        v, t, _, _ = charge(
                            v, t, source, energy, time_to_harvest,
                            account_wait, retries, backoff,
                        )
                        nrestart += 1
                        re_ += restore_e
                        rl += restore_l
                        harvested = (
                            watts * restore_l if watts is not None
                            else energy(t, restore_l)
                        )
                        v = add(v, harvested)
                        v = leak(draw(v, restore_e, restore_l), restore_l)
                        t += restore_l
                        if period == base_period:
                            r_draw, r_e, r_be, r_l = dead, dead_e, dead_be, dead_l
                        else:
                            replayed = dead_fraction * ((period - 1) / 2.0 + 1.0)
                            r_draw = per_instr * replayed
                            r_e = seg_e * replayed
                            r_be = backup_per * replayed
                            r_l = cycle * replayed
                        harvested = watts * r_l if watts is not None else energy(t, r_l)
                        v = leak(draw(add(v, harvested), r_draw, r_l), r_l)
                        t += r_l
                        de += r_e
                        dl += r_l
                        be += r_be
                seg_index += 1
                remaining = None
        except ChargeWindowFailure as failure:
            # The failed attempts stay on the buffer and the ledger; the
            # clock stays where the charge began.  A ChargeWindowFailure
            # is the degraded taxonomy's fail-stop.
            v = failure.voltage
            degraded["fail_stop"] += 1
            flush(seg_index, remaining)
            raise
        flush(seg_index, None)
        return b


#: A segment watches for repeating loop-top voltages only when its drain
#: covers this many buffer windows, gives up after this many bursts
#: without a repeat, and folds only when the whole cycles left hold at
#: least this many bursts (fewer do not pay for the NumPy work).
_FOLD_WINDOWS = 64
_FOLD_WATCH = 32
_FOLD_BURSTS = 48
#: Rows per block of :func:`_fold_cycles`.
_FOLD_ROWS = 2048


def _cycle_rows(
    loop, cycle, seg_e, backup_per, restore_e, restore_l, dead_e, dead_l, dead_be
) -> list:
    """What one pass of ``loop`` (``(burst, wait or None)`` per burst)
    adds to the closed-form burst loop's totals ``(ce, cl, be, de, dl,
    re_, rl, chl, t)``, one row per addition to ``t``: the burst's
    latency, then for an outage the wait, Restore and the dead replay,
    with the replay's Backup the second addition to ``be``.  Every
    value is the product the loop forms."""
    rows = []
    for n, wait in loop:
        bc = n * cycle
        if wait is None:
            rows.append((n * seg_e, bc, n * backup_per, 0.0, 0.0, 0.0, 0.0, 0.0, bc))
        else:
            rows += (
                (n * seg_e, bc, n * backup_per, dead_e, dead_l,
                 restore_e, restore_l, wait, bc),
                (0.0, 0.0, dead_be, 0.0, 0.0, 0.0, 0.0, 0.0, wait),
                (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, restore_l),
                (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, dead_l),
            )
    return rows


def _fold_cycles(totals, rows, k: int) -> list:
    """``totals`` after ``k`` repeats of ``rows`` are added to them one
    row at a time, each column its own ``+=`` chain in row order.

    The repeats are stacked as ``(rows, len(totals))`` blocks of about
    ``_FOLD_ROWS`` rows at most, each block's first row carrying the
    totals so far.  ``np.add.reduce`` over the first axis of a block of
    2 or more columns adds it row by row, the order
    :func:`repro.compilejit.exec._fold_compute` relies on too; a zero
    pads what a row does not add to, and ``x + 0.0 == x``."""
    cycle = np.array(rows, dtype=np.float64)
    per_block = min(k, max(1, _FOLD_ROWS // len(rows)))
    block = np.empty((1 + per_block * len(rows), len(totals)))
    block[1:] = np.tile(cycle, (per_block, 1))
    carry = np.array(totals, dtype=np.float64)
    while k > 0:
        n = min(k, per_block)
        block[0] = carry
        carry = np.add.reduce(block[: 1 + n * len(rows)], axis=0)
        k -= n
    return carry.tolist()


def _segment_table(
    profile: InstructionProfile, period: int, dead_fraction: float
) -> list:
    """Per-segment constants at checkpoint ``period``, cached on the
    profile object: the count, energy, backup, amortised backup and
    per-instruction drain, and the dead replay's buffer draw, Dead
    energy and Backup energy at that period.

    Each entry holds the exact values the loop would otherwise derive
    per visit, so caching changes no float.  The cache is keyed by the
    period and the dead fraction, and each table is kept beside the
    segments it was built from: a profile whose segments were appended
    to or replaced since gets a fresh table.  (:class:`Segment` is
    frozen, so comparing the unchanged segments is one identity test
    each.)
    """
    tables = getattr(profile, "_segment_tables", None)
    if tables is None:
        tables = {}
        try:
            profile._segment_tables = tables
        except AttributeError:
            pass
    segments = profile.segments
    key = (period, dead_fraction)
    built = tables.get(key)
    if built is None or built[0] != segments:
        replayed = dead_fraction * ((period - 1) / 2.0 + 1.0)
        table = []
        for segment in segments:
            backup_per = segment.backup / period
            per_instr = segment.energy + backup_per
            table.append(
                (
                    segment.count,
                    segment.energy,
                    segment.backup,
                    backup_per,
                    per_instr,
                    per_instr * replayed,
                    segment.energy * replayed,
                    backup_per * replayed,
                )
            )
        built = tables[key] = (list(segments), table)
    return built[1]
