"""The pre-acceleration scalar reference paths, preserved verbatim.

These functions are the byte-identity referees: they reproduce, line
for line, hot paths as they existed before they were accelerated.
:func:`logic_op_reference` rebuilds the electrical tables per gate and
re-scans the activation mask per operation, as ``Tile.logic_op`` did
before :mod:`repro.perf`.  :func:`profile_run_reference` is the
method-call burst loop of ``ProfileRun.run`` before that loop was
hoisted onto locals: every step goes through the source's, the
buffer's and the ledger's own methods.  The equivalence tests assert
the accelerated paths match them bit-for-bit, and the bench harness
times them in the same run to report honest speedups — the "serial
baseline measured in the same run" of ``BENCH_PR9.json``.

Both stay frozen.  The simulator proper calls one of them:
``ProfileRun.run`` hands an observed run (telemetry, a profiler or a
host checkpointer) to :func:`profile_run_reference`, so the hook calls
of a profile run are written only here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.array.lines import check_logic_rows
from repro.array.tile import OpResult, Tile
from repro.energy.metrics import Breakdown, Category, EnergyLedger
from repro.harvest.intermittent import (
    NonTerminationError,
    ProfileRun,
    charge_until_ready,
)
from repro.harvest.source import trace_position_of
from repro.logic.gates import GateSpec, design_voltage, gate_energy
from repro.logic.resistance import total_path_resistance


def logic_op_reference(
    tile: Tile,
    spec: GateSpec,
    input_rows: Sequence[int],
    output_row: int,
    switch_mask: Optional[np.ndarray] = None,
) -> OpResult:
    """``Tile.logic_op`` as it existed before the cached kernels.

    Re-derives the full electrical solve — the ``r_total`` ladder, the
    per-count currents, and the ``gate_energy`` table — from scratch,
    and re-scans the boolean activation mask, exactly like the seed
    implementation.  Mutates ``tile`` with the same semantics as the
    accelerated path.
    """
    rows = list(input_rows)
    if len(rows) != spec.n_inputs:
        raise ValueError(
            f"{spec.name} takes {spec.n_inputs} input rows, got {len(rows)}"
        )
    for r in rows + [output_row]:
        tile._check_row(r)
    check_logic_rows(rows, output_row)

    active = tile.active_columns
    if not active.any():
        return OpResult(energy=0.0, n_columns=0, switched=0)

    inputs = tile.state[rows][:, active]  # (n_inputs, n_active)
    n_ones = inputs.sum(axis=0)  # per active column

    # Electrical solve, vectorised by table lookup over n_ones —
    # with the tables rebuilt on every call (the seed behaviour).
    voltage = design_voltage(tile.params, spec)
    r_total = np.array(
        [
            total_path_resistance(tile.params, spec.n_inputs, k, spec.preset)
            for k in range(spec.n_inputs + 1)
        ]
    )
    currents = voltage / r_total[n_ones]
    will_switch = currents >= tile.params.switching_current

    if switch_mask is not None:
        switch_mask = np.asarray(switch_mask, dtype=bool)
        if switch_mask.shape != (tile.cols,):
            raise ValueError("switch_mask must cover every column")
        will_switch &= switch_mask[active]

    target = bool(spec.direction.target_state)
    out = tile.state[output_row]
    active_idx = np.flatnonzero(active)
    switch_idx = active_idx[will_switch]
    before = out[switch_idx].copy()
    out[switch_idx] = target

    energy = np.array(
        [gate_energy(tile.params, spec, int(k)) for k in range(spec.n_inputs + 1)]
    )[n_ones].sum()
    return OpResult(
        energy=float(energy),
        n_columns=int(active.sum()),
        switched=int((before != target).sum()),
    )


def profile_run_reference(run: ProfileRun) -> Breakdown:
    """``ProfileRun.run`` as the method-call loop it was before the
    hoisted loop: one ``source.energy`` call per step, the buffer's
    and the ledger's methods for every transfer and charge.  Mutates
    ``run`` (cursor, time, ledger, buffer, degraded tallies) exactly
    as ``run.run()`` does, hooks and resume included."""
    from repro.obs import active

    obs = active(run.telemetry)
    if run.ledger is None:
        run.ledger = EnergyLedger()
    ledger = run.ledger
    ledger.obs = obs
    prof = run.profiler
    if prof is not None:
        ledger.prof = prof
        # Charging/restore before the first segment lands on the
        # profile's own frame.
        prof.set_scope(prof.scope_id((run.profile.name,)))
    buffer = run.config.buffer
    source = run.config.source
    cycle = run.cost.cycle_time
    vcap = obs.gauge("harvest.vcap") if obs is not None else None
    checkpointer = run.checkpointer
    nonideal = not buffer.is_ideal

    def restart() -> None:
        if obs is not None:
            obs.counter("harvest.outages").inc()
            obs.emit(
                "harvest.outage",
                run.time,
                voltage=buffer.voltage,
                instructions=ledger.breakdown.instructions,
            )
        charge_until_ready(run, ledger, obs)
        ledger.count_restart()
        restore = run.cost.restore_energy(run.profile.active_columns)
        ledger.charge(Category.RESTORE, restore, run.cost.restore_latency())
        harvested = source.energy(run.time, run.cost.restore_latency())
        run.time += run.cost.restore_latency()
        buffer.add_energy(harvested)
        if nonideal:
            buffer.draw_energy(restore, run.cost.restore_latency())
            buffer.leak(run.cost.restore_latency())
        else:
            buffer.draw_energy(restore)
        if obs is not None:
            obs.emit("harvest.restore", run.time, voltage=buffer.voltage)

    if not run._resumed:
        # Initial charge (capacitor starts discharged).
        charge_until_ready(run, ledger, obs, initial=True)
        run.seg_index = 0
        run.remaining = None
    run._resumed = False

    adaptive = run.adaptive
    base_period = run.checkpoint_period
    period = base_period
    window = buffer.window_energy
    segments = run.profile.segments
    while run.seg_index < len(segments):
        segment = segments[run.seg_index]
        if prof is not None:
            label = segment.label or segment.kind or f"segment{run.seg_index}"
            prof.set_scope(prof.scope_id((run.profile.name, label)))
        if run.remaining is None:
            run.remaining = segment.count
        # Backup is paid once per checkpoint, i.e. every `period`
        # instructions (amortised here; exact within a segment).
        backup_per_instr = segment.backup / period
        per_instr = segment.energy + backup_per_instr
        while run.remaining > 0:
            if adaptive is not None:
                # Headroom-aware cadence: stretch the simulated
                # checkpoint period when the buffer is charged, snap
                # back to the fixed baseline as the voltage sags.
                frac = buffer.headroom / window if window > 0.0 else 0.0
                period = adaptive.period_for(frac, base_period)
                backup_per_instr = segment.backup / period
                per_instr = segment.energy + backup_per_instr
            harvested_per_cycle = source.energy(run.time, cycle)
            net = per_instr - harvested_per_cycle
            if adaptive is not None and period > base_period and net > 0:
                # A stretched burst must never be the one that hits
                # the shutdown bound (its replay would then cost
                # more than the fixed baseline replays): require at
                # least one instruction of slack above the tighten
                # threshold, else run this burst at the baseline.
                slack = int(
                    (buffer.headroom - adaptive.tighten_below * window)
                    // net
                )
                if slack < 1:
                    period = base_period
                    backup_per_instr = segment.backup / period
                    per_instr = segment.energy + backup_per_instr
                    net = per_instr - harvested_per_cycle
            if net <= 0:
                # Source outruns consumption: the whole segment
                # completes without an outage.
                burst = run.remaining
            else:
                if net > buffer.window_energy:
                    position = trace_position_of(source, run.time)
                    where = (
                        f" ({position})" if position is not None else ""
                    )
                    raise NonTerminationError(
                        f"{run.profile.name}: instruction needs "
                        f"{net:.3e} J net but the capacitor window "
                        f"holds {buffer.window_energy:.3e} J — no "
                        "forward progress is possible; reduce the "
                        "active-column parallelism or enlarge the "
                        f"buffer{where}",
                        breakdown=ledger.breakdown,
                        instruction_energy=net,
                        trace_position=position,
                    )
                burst = min(
                    run.remaining, max(1, int(buffer.headroom // net))
                )
                if adaptive is not None and period > base_period:
                    # Cap the stretched burst at the tighten
                    # threshold so the final stretch before any
                    # outage runs at the baseline cadence.
                    slack = int(
                        (buffer.headroom - adaptive.tighten_below * window)
                        // net
                    )
                    burst = min(burst, slack)
            if adaptive is not None and period > base_period and burst > 0:
                skipped = burst // base_period - burst // period
                if skipped > 0:
                    run.degraded["skipped_checkpoint"] += skipped
                    if obs is not None:
                        obs.counter(
                            "env.degraded.skipped_checkpoint"
                        ).inc(skipped)
            consumed = burst * per_instr
            burst_start = run.time
            harvested = source.energy(run.time, burst * cycle)
            run.time += burst * cycle
            buffer.add_energy(harvested)
            if nonideal:
                buffer.draw_energy(consumed, burst * cycle)
                buffer.leak(burst * cycle)
            else:
                buffer.draw_energy(consumed)
            ledger.charge(
                Category.COMPUTE, burst * segment.energy, burst * cycle
            )
            ledger.charge(Category.BACKUP, burst * backup_per_instr)
            ledger.count_instructions(burst)
            run.remaining -= burst
            if obs is not None:
                obs.emit(
                    "profile.burst",
                    burst_start,
                    label=segment.label or run.profile.name,
                    count=burst,
                    energy=burst * segment.energy,
                )
                vcap.set(buffer.voltage, ts=run.time)
            if buffer.must_shut_down and run.remaining > 0:
                # Unexpected outage mid-stream: restart, re-perform
                # the work since the last checkpoint (Dead).  With
                # per-instruction checkpointing that is at most one
                # instruction; with period N, (N-1)/2 + 1 expected.
                restart()
                replayed = run.dead_fraction * ((period - 1) / 2.0 + 1.0)
                dead = per_instr * replayed
                dead_latency = cycle * replayed
                harvested = source.energy(run.time, dead_latency)
                run.time += dead_latency
                buffer.add_energy(harvested)
                if nonideal:
                    buffer.draw_energy(dead, dead_latency)
                    buffer.leak(dead_latency)
                else:
                    buffer.draw_energy(dead)
                ledger.charge(
                    Category.DEAD, segment.energy * replayed, dead_latency
                )
                ledger.charge(Category.BACKUP, backup_per_instr * replayed)
            if checkpointer is not None:
                # Burst boundary: the cursor (seg_index, remaining,
                # time, ledger, buffer voltage) fully determines the
                # rest of the run.
                checkpointer.on_profile_point(run)
        run.seg_index += 1
        run.remaining = None
    return ledger.breakdown
