"""Compiled ProfileRun: the aggregate engine's burst loop on locals.

The scalar :class:`~repro.harvest.intermittent.ProfileRun` spends its
time in Python attribute access: every burst calls ``source.energy``,
two buffer methods (each re-deriving stored energy from the voltage),
two ``ledger.charge`` validations and a handful of dataclass field
reads.  For a :class:`~repro.harvest.source.ConstantPowerSource` every
one of those is a closed form over loop locals, so this module runs the
identical float sequence — same expressions, same order, same rounding
— with everything hoisted into locals.  Breakdown, profiler tree,
cursor (``time`` / ``seg_index`` / ``remaining``), buffer voltage and
the NonTermination diagnosis are all bit-identical to the referee.

A profiler, when attached, is driven through its *real*
``set_scope`` / ``record`` / ``count_*`` methods in the exact sequence
the ledger would produce — correctness over speed on that path; the
burst count is small (one per capacitor window), so profiled runs still
win from the hoisted buffer arithmetic.
"""

from __future__ import annotations

from repro.energy.metrics import Category, EnergyLedger


def profile_eligible(run) -> bool:
    """A ProfileRun the fused loop can reproduce bit-for-bit.

    Requires: no telemetry sink, no host checkpointer, not resuming
    mid-run, no adaptive cadence, an ideal buffer, and a constant
    source — either :class:`ConstantPowerSource` or a constant-trace
    :class:`repro.env.TraceSource`, whose ``energy`` /
    ``time_to_harvest`` fast paths are the exact closed forms the loop
    inlines.  A profiler is fine.
    """
    from repro.harvest.source import ConstantPowerSource

    if run.checkpointer is not None or run._resumed:
        return False
    if getattr(run, "adaptive", None) is not None:
        return False
    if not run.config.buffer.is_ideal:
        return False
    source = run.config.source
    if type(source) is not ConstantPowerSource:
        from repro.env.trace import TraceSource

        if not (
            type(source) is TraceSource
            and source.constant_watts is not None
        ):
            return False
    return run._resolve_obs() is None


def _segment_table(profile, period, replayed, h_cycle, key):
    """Per-segment constants, computed once per (period, dead_fraction,
    watts, cycle) and cached on the profile object.

    Every entry evaluates the exact expressions the scalar engine
    evaluates per visit — caching only removes re-evaluation, never
    changes an intermediate, so the burst loop's floats are untouched.
    """
    cache = getattr(profile, "_cjit_segtab", None)
    if cache is None:
        cache = {}
        try:
            object.__setattr__(profile, "_cjit_segtab", cache)
        except (AttributeError, TypeError):
            pass
    table = cache.get(key)
    if table is None:
        table = []
        for seg_index, segment in enumerate(profile.segments):
            seg_e = segment.energy
            backup_per = segment.backup / period
            per_instr = seg_e + backup_per
            label = segment.label or segment.kind or f"segment{seg_index}"
            table.append(
                (
                    segment.count,
                    seg_e,
                    backup_per,
                    per_instr,
                    per_instr - h_cycle,
                    per_instr * replayed,
                    seg_e * replayed,
                    backup_per * replayed,
                    label,
                )
            )
        cache[key] = table
    return table


def run_profile_fused(run):
    from repro import compilejit
    from repro.harvest.intermittent import (
        NonTerminationError,
        trace_position_of,
    )

    if run.ledger is None:
        run.ledger = EnergyLedger()
    ledger = run.ledger
    ledger.obs = None
    profile = run.profile
    prof = run.profiler
    if prof is not None:
        ledger.prof = prof
        prof.set_scope(prof.scope_id((profile.name,)))

    buffer = run.config.buffer
    cost = run.cost
    cycle = cost.cycle_time
    watts = run.config.source.watts

    b = ledger.breakdown
    ce = b.compute_energy
    cl = b.compute_latency
    be = b.backup_energy
    de = b.dead_energy
    dl = b.dead_latency
    re_ = b.restore_energy
    rl = b.restore_latency
    chl = b.charging_latency
    ninstr = b.instructions
    nrestart = b.restarts
    v = buffer.voltage
    t = run.time

    cap = buffer.capacitance
    hc = 0.5 * cap
    # Exact expressions from EnergyBuffer._energy_at (left-associated).
    e_off = 0.5 * cap * buffer.v_off * buffer.v_off
    e_on = 0.5 * cap * buffer.v_on * buffer.v_on
    window = e_on - e_off
    voff_eps = buffer.v_off + 1e-15
    restore_e = cost.restore_energy(profile.active_columns)
    restore_l = cost.restore_latency()
    period = run.checkpoint_period
    replayed = run.dead_fraction * ((period - 1) / 2.0 + 1.0)
    h_cycle = watts * cycle

    def flush(seg_index, remaining) -> None:
        b.compute_energy = ce
        b.compute_latency = cl
        b.backup_energy = be
        b.dead_energy = de
        b.dead_latency = dl
        b.restore_energy = re_
        b.restore_latency = rl
        b.charging_latency = chl
        b.instructions = ninstr
        b.restarts = nrestart
        buffer.voltage = v
        run.time = t
        run.seg_index = seg_index
        run.remaining = remaining

    # Initial charge (eligibility excluded resumed runs, so this is
    # unconditional, as in the scalar engine's fresh-run branch).
    needed = e_on - hc * v * v
    wait = needed / watts if needed > 0.0 else 0.0
    v = (2.0 * (hc * v * v + watts * wait) / cap) ** 0.5
    t += wait
    chl += wait
    if prof is not None:
        prof.record(Category.CHARGING, 0.0, wait)

    table = _segment_table(
        profile, period, replayed, h_cycle,
        (period, run.dead_fraction, watts, cycle),
    )
    n_segments = len(table)
    dead_l = cycle * replayed
    seg_index = 0
    for entry in table:
        (
            remaining, seg_e, backup_per, per_instr, net,
            dead_draw, dead_e, dead_be, label,
        ) = entry
        if prof is not None:
            prof.set_scope(prof.scope_id((profile.name, label)))
        # A non-positive net drain means the whole segment is one burst
        # and the shutdown check (remaining > 0) can never fire: run the
        # burst accounting straight-line with burst = remaining.
        if net <= 0.0:
            if remaining > 0:
                burst = remaining
                consumed = burst * per_instr
                bc = burst * cycle
                harvested = watts * bc
                t += bc
                v = (2.0 * (hc * v * v + harvested) / cap) ** 0.5
                tot = hc * v * v - consumed
                if tot < 0.0:
                    tot = 0.0
                v = (2.0 * tot / cap) ** 0.5
                ce += burst * seg_e
                cl += bc
                be += burst * backup_per
                ninstr += burst
                if prof is not None:
                    prof.record(Category.COMPUTE, burst * seg_e, bc)
                    prof.record(Category.BACKUP, burst * backup_per, 0.0)
                    prof.count_instructions(burst)
            seg_index += 1
            continue
        # net > window is loop-invariant: the scalar engine raises on
        # the first burst of the segment, before any state changes.
        if net > window and remaining > 0:
            flush(seg_index, remaining)
            position = trace_position_of(run.config.source, t)
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
        while remaining > 0:
            headroom = hc * v * v - e_off
            if headroom < 0.0:
                headroom = 0.0
            burst = int(headroom // net)
            if burst < 1:
                burst = 1
            if burst > remaining:
                burst = remaining
            consumed = burst * per_instr
            bc = burst * cycle
            harvested = watts * bc
            t += bc
            v = (2.0 * (hc * v * v + harvested) / cap) ** 0.5
            tot = hc * v * v - consumed
            if tot < 0.0:
                tot = 0.0
            v = (2.0 * tot / cap) ** 0.5
            ce += burst * seg_e
            cl += bc
            be += burst * backup_per
            ninstr += burst
            if prof is not None:
                prof.record(Category.COMPUTE, burst * seg_e, bc)
                prof.record(Category.BACKUP, burst * backup_per, 0.0)
                prof.count_instructions(burst)
            remaining -= burst
            if v <= voff_eps and remaining > 0:
                # restart(): recharge, count, pay restore, harvest over
                # the restore latency, then the dead-replay penalty.
                needed = e_on - hc * v * v
                wait = needed / watts if needed > 0.0 else 0.0
                v = (2.0 * (hc * v * v + watts * wait) / cap) ** 0.5
                t += wait
                chl += wait
                nrestart += 1
                re_ += restore_e
                rl += restore_l
                if prof is not None:
                    prof.record(Category.CHARGING, 0.0, wait)
                    prof.count_restart()
                    prof.record(Category.RESTORE, restore_e, restore_l)
                harvested = watts * restore_l
                t += restore_l
                v = (2.0 * (hc * v * v + harvested) / cap) ** 0.5
                tot = hc * v * v - restore_e
                if tot < 0.0:
                    tot = 0.0
                v = (2.0 * tot / cap) ** 0.5
                harvested = watts * dead_l
                t += dead_l
                v = (2.0 * (hc * v * v + harvested) / cap) ** 0.5
                tot = hc * v * v - dead_draw
                if tot < 0.0:
                    tot = 0.0
                v = (2.0 * tot / cap) ** 0.5
                de += dead_e
                dl += dead_l
                be += dead_be
                if prof is not None:
                    prof.record(Category.DEAD, dead_e, dead_l)
                    prof.record(Category.BACKUP, dead_be, 0.0)
        seg_index += 1

    flush(n_segments, None)
    compilejit.STATS["compiled_runs"] += 1
    return b
