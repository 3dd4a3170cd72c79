"""Compiled-plan executors: continuous power, intermittent windows and
lock-step batches.

All three apply the plan's ops through one function, :func:`apply_op`,
and reproduce the scalar interpreters' ledger arithmetic bit for bit.
The key identity: for IEEE-754 doubles,

    np.add.accumulate(np.concatenate(([c0], vals)))[-1]

equals the sequential loop ``c = c0; for v in vals: c += v`` exactly
(same operation order, same rounding), and ``x += 0.0`` is the
identity for every non-negative float — so charges whose energy (or
latency) term is zero can be dropped from the chains without changing
a single bit.  Static energies in the chains were computed through the
very same cost-model methods the interpreter calls; dynamic logic
energies are produced by the same kernel-table gathers `Tile.logic_op`
performs, in the same dtype and reduction order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compilejit.plan import (
    K_ACT,
    K_HALT,
    K_L1P,
    K_L1S,
    K_LN,
    K_PRESET,
    K_READ,
    K_WRITE,
    CompiledPlan,
    plan_for,
)
from repro.core.controller import InstructionBudgetExceeded, Phase, _NONE
from repro.isa.instruction import decode_cached


def _acc(start: float, vals: np.ndarray) -> float:
    """Bit-exact equivalent of ``c = start; for v in vals: c += v``."""
    if vals.size == 0:
        return start
    arr = np.empty(vals.size + 1, dtype=np.float64)
    arr[0] = start
    arr[1:] = vals
    return float(np.add.accumulate(arr)[-1])


def _cycle_chain(plan: CompiledPlan, n: int) -> np.ndarray:
    cache = getattr(plan, "_cyc_cache", None)
    if cache is None:
        cache = plan._cyc_cache = {}
    arr = cache.get(n)
    if arr is None:
        arr = cache[n] = np.full(n, plan.cycle, dtype=np.float64)
    return arr


# ----------------------------------------------------------------------
# The op switch
# ----------------------------------------------------------------------


def _slice_gate(op, states, views):
    """A K_L1S gate over a contiguous active range; returns its array
    energy.

    Row-slice views need no index mesh.  ``out[mask] = tgt`` without the
    interpreter's ``!= tgt`` pre-filter writes the same final state (the
    store is idempotent on cells already at the target), and the energy
    gather never depends on which cells switched.
    """
    _, _, _, ti, rows_t, orow, sl, ws, en, tgt = op
    vu = views[ti]
    if len(rows_t) == 1:
        n1 = vu[..., rows_t[0], sl]
    else:
        n1 = vu[..., rows_t[0], sl] + vu[..., rows_t[1], sl]
        for r in rows_t[2:]:
            n1 += vu[..., r, sl]
    states[ti][..., orow, sl][ws.take(n1)] = tgt
    return en.take(n1).sum(axis=-1)


def _index_gate(op, states):
    """A K_L1P gate over a non-contiguous active set; returns its array
    energy."""
    _, _, _, ti, mesh, aidx, orow, ws, en, tgt = op
    st = states[ti]
    n1 = st[mesh].sum(axis=-2)
    out = st[..., orow, :]
    cells = out[..., aidx]
    cells[ws.take(n1)] = tgt
    out[..., aidx] = cells
    return en.take(n1).sum(axis=-1)


def apply_op(op, states, views, tiles, cbuf, actreg, share, oms):
    """Apply one plan op to a machine and return its EXECUTE energy.

    ``states`` / ``views`` are the data tiles' bool arrays and their
    uint8 views, shaped ``(rows, cols)`` for one machine or
    ``(batch, rows, cols)`` for a lock-step batch (every index carries
    a leading ``...`` and every reduction runs along ``axis=-1``, so
    each sample sees the serial machine's gathers and pairwise sums);
    ``cbuf`` is the transfer buffer, ``(cols,)`` or ``(batch, cols)``.
    ``actreg`` is the activate register, or None for a batch.  A logic
    op's energy comes back per sample; every other op returns the
    plan's constant.  ``share`` / ``oms`` are the plan's inlined
    peripheral-share terms.
    """
    k = op[0]
    if k == K_L1S:
        arr = _slice_gate(op, states, views)
    elif k == K_PRESET:
        for ti, row, sel in op[2]:
            states[ti][..., row, sel] = op[3]
        return op[1]
    elif k == K_L1P:
        arr = _index_gate(op, states)
    elif k == K_READ:
        cbuf[...] = states[op[2]][..., op[3], :]
        return op[1]
    elif k == K_WRITE:
        for ti in op[2]:
            states[ti][..., op[3], :] = cbuf
        return op[1]
    elif k == K_ACT:
        for ti, bulk, cols_t in op[3]:
            if bulk:
                tiles[ti].activate_column_range(*cols_t)
            else:
                tiles[ti].activate_columns(cols_t)
        if actreg is not None:
            actreg.stage(op[2])
            actreg.commit()
        return op[1]
    elif k == K_LN:
        arr = 0.0
        for gate in op[3]:
            if gate[0] == K_L1S:
                arr = arr + _slice_gate(gate, states, views)
            else:
                arr = arr + _index_gate(gate, states)
    else:  # K_HALT: no array work
        return op[1]
    return arr + (arr * share / oms + op[2])


# ----------------------------------------------------------------------
# Continuous power
# ----------------------------------------------------------------------


def try_run_continuous(mouse, max_instructions: int) -> bool:
    """Run the loaded program via its compiled plan if eligible.

    Returns False (without touching any state) when the machine or the
    program needs the scalar interpreter: telemetry/fault hooks
    attached, mid-run state, dead replay pending, non-default register
    parity, or an uncompilable program.
    """
    controller = mouse.controller
    ledger = mouse.ledger
    if (
        not controller.powered
        or controller.halted
        or controller.phase is not Phase.FETCH
        or controller._dead_replay
        or controller._faults is not None
        or controller._obs is not None
        or ledger.obs is not None
        or controller.pc.read() != 0
        or controller.pc.parity.value
        or controller.pc._staged
        or controller.sensor_pc.read() != _NONE
    ):
        return False
    prof = controller._prof
    if prof is not None and ledger.prof is not prof:
        return False
    if prof is None and ledger.prof is not None:
        return False
    plan = _mouse_plan(mouse)
    if plan is None or plan.n_instructions > max_instructions:
        return False
    _run_continuous(mouse, plan, prof)
    from repro import compilejit

    compilejit.STATS["compiled_runs"] += 1
    return True


def _mouse_plan(mouse) -> Optional[CompiledPlan]:
    bank = mouse.bank
    return plan_for(
        mouse._program, mouse.cost, len(bank.data_tiles), bank.rows, bank.cols
    )


def _run_continuous(mouse, plan: CompiledPlan, prof) -> None:
    controller = mouse.controller
    tiles = mouse.bank.data_tiles
    states = [t.state for t in tiles]
    views = [st.view(np.uint8) for st in states]
    cbuf = controller.buffer
    actreg = controller.activate_register
    vals = plan.chg_vals
    share = plan.share
    oms = plan.oms

    # --- semantic pass: array effects + dynamic logic energies --------
    for op in plan.ops:
        e = apply_op(op, states, views, tiles, cbuf, actreg, share, oms)
        if op[0] >= K_L1S:
            vals[op[1]] = e

    # --- accounting: reduce the charge table -------------------------
    n = plan.n_instructions
    b = mouse.ledger.breakdown
    b.compute_energy = _acc(b.compute_energy, vals[plan.ce_idx])
    b.compute_latency = _acc(b.compute_latency, _cycle_chain(plan, n))
    b.backup_energy = _acc(b.backup_energy, vals[plan.be_idx])
    b.instructions += n
    if prof is not None:
        _apply_prof(plan, prof, vals)

    # --- final architectural state ------------------------------------
    k = plan.n_commits
    pc = controller.pc
    if k:
        if k & 1:
            pc._values = [k - 1, k]
            pc.parity.set(True)
        else:
            pc._values = [k, k - 1]
            pc.parity.set(False)
        pc._staged = False
    controller.halted = True
    controller.phase = Phase.FETCH
    controller._word = plan.halt_word
    controller._instr = decode_cached(plan.halt_word)
    controller._executed_uncommitted = False


def _apply_prof(plan: CompiledPlan, prof, vals: np.ndarray) -> None:
    """Replay the run's charge stream into the profiler tree.

    Ancestor nodes above the program's base frame see every charge;
    within the program, each scope node sees exactly the charges whose
    pc lies in its subtree, in pc order — the same order the scalar
    controller's per-FETCH ``set_scope`` walk produces.
    """
    program = plan.program
    table = prof.index_program(program, prefix=(program.name,))
    per_sid = plan.prof_tables()
    n = plan.n_instructions
    stats = prof._stats
    base = table[0]
    for nid in prof._chains[base][:-1]:
        st = stats[nid]
        st.compute_energy = _acc(st.compute_energy, vals[plan.ce_idx])
        st.compute_latency = _acc(st.compute_latency, _cycle_chain(plan, n))
        st.backup_energy = _acc(st.backup_energy, vals[plan.be_idx])
        st.instructions += n
    for sid, (ce_ix, be_ix, n_pcs, leaf_ix, n_leaf) in per_sid.items():
        if n_pcs == 0:
            continue
        nid = table[sid]
        st = stats[nid]
        st.compute_energy = _acc(st.compute_energy, vals[ce_ix])
        st.compute_latency = _acc(st.compute_latency, _cycle_chain(plan, n_pcs))
        st.backup_energy = _acc(st.backup_energy, vals[be_ix])
        st.instructions += n_pcs
        if n_leaf:
            prof._self_energy[nid] = _acc(prof._self_energy[nid], vals[leaf_ix])
            prof._self_latency[nid] = _acc(
                prof._self_latency[nid], _cycle_chain(plan, n_leaf)
            )
    prof.set_scope(table[program.scope_ids[n - 1]])


# ----------------------------------------------------------------------
# Intermittent power (fused window loop)
# ----------------------------------------------------------------------


def intermittent_eligible(run, obs, checkpointer) -> Optional[CompiledPlan]:
    """The plan to use for a fused intermittent run, or None."""
    controller = run.mouse.controller
    ledger = run.mouse.ledger
    if (
        obs is not None
        or checkpointer is not None
        or controller._obs is not None
        or controller._prof is not None
        or controller._faults is not None
        or ledger.obs is not None
        or ledger.prof is not None
        or not controller.powered
        or controller.halted
        or controller.phase is not Phase.FETCH
        or controller.sensor_pc.read() != _NONE
    ):
        return None
    # The fused loop inlines *ideal* capacitor arithmetic; a leaky/ESR
    # buffer must run the scalar engine, which prices the losses.
    if not run.config.buffer.is_ideal:
        return None
    plan = _mouse_plan(run.mouse)
    if plan is None or not plan.replay_stable:
        return None
    pc = controller.pc.read()
    if pc is None or not 0 <= pc < plan.n_instructions:
        return None
    return plan


def run_intermittent_fused(run, plan: CompiledPlan, max_instructions: int):
    """The IntermittentRun while-loop, fused per instruction.

    Replays the interpreter's exact per-microstep buffer arithmetic —
    including the ``draw_energy(0.0)`` square-root round-trips at
    DECODE and PC_STAGE — and hands outages to the referee's own
    stall check, ``power_off``, ``charge_until_ready`` and ``power_on``,
    so restore/charging accounting, activation re-issue, and the dual-PC
    protocol are the scalar engine's code.  One instruction is applied at
    a time: speculating across an outage boundary is unsound (the PR 8
    re-execution analysis refuted window-level replay for programs with
    WAR hazards, and energy arrival decides where the window ends).
    """
    from repro import compilejit
    from repro.harvest.intermittent import charge_until_ready

    mouse = run.mouse
    controller = mouse.controller
    ledger = mouse.ledger
    b = ledger.breakdown
    buffer = run.config.buffer
    source = run.config.source
    bank = mouse.bank
    tiles = bank.data_tiles
    states = [t.state for t in tiles]
    views = [st.view(np.uint8) for st in states]
    cbuf = controller.buffer
    pcreg = controller.pc
    actreg = controller.activate_register

    ops = plan.ops
    words = plan.words
    cycle = plan.cycle
    fetch_e = plan.fetch_e
    backup_e = plan.backup_e
    act_backup_e = plan.act_backup_e
    share = plan.share
    oms = plan.oms
    cap = buffer.capacitance
    hc = 0.5 * cap
    voff_eps = buffer.v_off + 1e-15
    source_energy = source.energy

    # Locals mirrored from the ledger breakdown / run cursor; written
    # back around every interpreter call (outage path, exceptions) and
    # at the end.
    ce = b.compute_energy
    cl = b.compute_latency
    be = b.backup_energy
    de = b.dead_energy
    dl = b.dead_latency
    re_ = b.restore_energy  # read-only here; power paths update it
    ninstr = b.instructions
    v = buffer.voltage
    t = run.time
    executed = run.executed
    commits_w = run._commits_in_window
    drawn_w = run._drawn_in_window
    dead = controller._dead_replay
    # _word lives FETCH..COMMIT, _instr lives DECODE..COMMIT; power_off
    # clears both.  Mirror the lifecycle so a NonTermination /
    # budget-exceeded raise leaves the same machine state behind.
    word = controller._word
    instr = controller._instr

    def flush(phase: Phase, eu: bool) -> None:
        b.compute_energy = ce
        b.compute_latency = cl
        b.backup_energy = be
        b.dead_energy = de
        b.dead_latency = dl
        b.instructions = ninstr
        buffer.voltage = v
        run.time = t
        run.executed = executed
        run._commits_in_window = commits_w
        run._drawn_in_window = drawn_w
        controller._dead_replay = dead
        controller._executed_uncommitted = eu
        controller.phase = phase
        controller._word = word
        controller._instr = instr

    def outage(phase: Phase, eu: bool) -> None:
        nonlocal ce, cl, be, de, dl, re_, ninstr, v, t
        nonlocal executed, commits_w, drawn_w, dead, word, instr
        flush(phase, eu)
        run._check_progress()
        controller.power_off()
        charge_until_ready(run, ledger, None)
        controller.power_on()
        run._commits_in_window = 0
        run._drawn_in_window = 0.0
        # Reload: the power path charged RESTORE/CHARGING through the
        # real ledger and moved time/voltage.
        ce = b.compute_energy
        cl = b.compute_latency
        be = b.backup_energy
        de = b.dead_energy
        dl = b.dead_latency
        re_ = b.restore_energy
        ninstr = b.instructions
        v = buffer.voltage
        t = run.time
        commits_w = 0
        drawn_w = 0.0
        dead = controller._dead_replay
        word = None  # power_off cleared them
        instr = None

    while True:
        if executed >= max_instructions:
            flush(Phase.FETCH, False)
            raise InstructionBudgetExceeded(
                f"instruction budget exhausted: program did not halt "
                f"within {max_instructions} instructions"
            )
        pc = pcreg.read()
        op = ops[pc]
        k = op[0]

        # ---- FETCH: charge fetch energy, draw it ----
        # The scalar loop draws `total_energy_after - total_energy_before`
        # where total_energy is the rounded left-associated sum
        # ((ce + be) + de) + re — NOT the raw charge value.  The delta
        # differs from the charge by ulps, so replicate it exactly.
        word = words[pc]
        te = ce + be + de + re_
        if dead:
            de += fetch_e
        else:
            ce += fetch_e
        consumed = ce + be + de + re_ - te
        tot = max(0.0, hc * v * v - consumed)
        v = (2.0 * tot / cap) ** 0.5
        drawn_w += consumed
        if v <= voff_eps:
            outage(Phase.DECODE, False)
            continue

        # ---- DECODE: zero draw (square-root round-trip) ----
        instr = decode_cached(word)
        v = (2.0 * (hc * v * v) / cap) ** 0.5
        if v <= voff_eps:
            outage(Phase.EXECUTE, False)
            continue

        # ---- EXECUTE ----
        if k == K_HALT:
            if dead:
                dl += cycle
            else:
                cl += cycle
            ninstr += 1
            executed += 1
            commits_w += 1
            harvested = source_energy(t, cycle)
            t += cycle
            v = (2.0 * (hc * v * v + harvested) / cap) ** 0.5
            v = (2.0 * (hc * v * v) / cap) ** 0.5
            break

        e_exec = float(
            apply_op(op, states, views, tiles, cbuf, actreg, share, oms)
        )
        te = ce + be + de + re_
        if dead:
            de += e_exec
        else:
            ce += e_exec
        if k == K_ACT:
            be += act_backup_e
        consumed = ce + be + de + re_ - te
        tot = max(0.0, hc * v * v - consumed)
        v = (2.0 * tot / cap) ** 0.5
        drawn_w += consumed
        if v <= voff_eps:
            outage(Phase.PC_STAGE, True)
            continue

        # ---- PC_STAGE: stage pc+1, zero draw ----
        pcreg.stage(pc + 1)
        v = (2.0 * (hc * v * v) / cap) ** 0.5
        if v <= voff_eps:
            outage(Phase.COMMIT, True)
            continue

        # ---- COMMIT: publish pc, charge backup, count, harvest ----
        pcreg.commit()
        word = None
        instr = None
        te = ce + be + de + re_
        be += backup_e
        consumed = ce + be + de + re_ - te
        if dead:
            dl += cycle
        else:
            cl += cycle
        ninstr += 1
        dead = False
        executed += 1
        commits_w += 1
        harvested = source_energy(t, cycle)
        t += cycle
        v = (2.0 * (hc * v * v + harvested) / cap) ** 0.5
        tot = max(0.0, hc * v * v - consumed)
        v = (2.0 * tot / cap) ** 0.5
        drawn_w += consumed
        if v <= voff_eps:
            outage(Phase.FETCH, False)
            continue

    # HALT: final state (scalar HALT leaves the fetched word in place;
    # `word`/`instr` still hold it, and flush writes them back).
    controller.halted = True
    flush(Phase.FETCH, False)
    compilejit.STATS["compiled_runs"] += 1
    return b


# ----------------------------------------------------------------------
# Lock-step batches
# ----------------------------------------------------------------------


def try_run_batched(machine) -> bool:
    """Run a :class:`~repro.perf.batched.BatchedMouse`'s loaded program
    via the compiled plan :class:`~repro.core.accelerator.Mouse` uses,
    if it compiles; False (without touching any state) otherwise."""
    plan = plan_for(
        machine._program, machine.cost, len(machine.tiles), machine.rows,
        machine.cols,
    )
    if plan is None:
        return False
    _run_batched(machine, plan)
    from repro import compilejit

    compilejit.STATS["compiled_runs"] += 1
    return True


def _acc_each(starts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """:func:`_acc` per sample of a chain every sample shares: one fold
    per distinct starting value."""
    uniq, inverse = np.unique(starts, return_inverse=True)
    return np.array([_acc(float(s), vals) for s in uniq])[inverse]


def _run_batched(machine, plan: CompiledPlan) -> None:
    """Ledgers bit-identical to the scalar batched loop.  Only the
    compute-energy chain differs between samples (each logic op's slot
    holds that sample's energy), so it alone is built per sample; the
    backup and latency chains are the plan's constants."""
    ledger = machine.ledger
    tiles = machine.tiles
    states = [t.state for t in tiles]
    views = [st.view(np.uint8) for st in states]
    cbuf = np.zeros((machine.batch, machine.cols), dtype=bool)
    vals = plan.chg_vals
    # Row of each compute charge in ``ce``; row 0 holds the start value.
    ce_row = np.zeros(vals.size, dtype=np.intp)
    ce_row[plan.ce_idx] = np.arange(1, plan.ce_idx.size + 1)
    share = plan.share
    oms = plan.oms

    ce = np.empty((plan.ce_idx.size + 1, machine.batch), dtype=np.float64)
    ce[0] = ledger.compute_energy
    ce[1:] = vals[plan.ce_idx, None]
    for op in plan.ops:
        e = apply_op(op, states, views, tiles, cbuf, None, share, oms)
        if op[0] >= K_L1S:
            ce[ce_row[op[1]]] = e
    np.add.accumulate(ce, axis=0, out=ce)

    n = plan.n_instructions
    ledger.compute_energy = ce[-1].copy()
    ledger.compute_latency = _acc_each(
        ledger.compute_latency, _cycle_chain(plan, n)
    )
    ledger.backup_energy = _acc_each(ledger.backup_energy, vals[plan.be_idx])
    ledger.instructions += n
