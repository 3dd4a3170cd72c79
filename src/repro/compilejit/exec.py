"""Compiled-plan executors: continuous power, intermittent windows and
lock-step batches.

Every executor runs the plan's packed-row ops
(:attr:`~repro.compilejit.plan.CompiledPlan.ops`): a continuous
``Mouse`` run and a lock-step batch apply them in one pass, a
continuous run as a batch of one, and the fused intermittent loop
prices its logic ops with one such pass at its start and applies them
to the live tiles only where something reads them
(:func:`run_intermittent_fused`).  None of them writes the plan: a
run's logic energies stay in the run.  A run that a profiler,
telemetry or a fault hook observes takes none of them
(:func:`_unobserved_at_fetch`).  All three reproduce the scalar
interpreters' ledger arithmetic bit for bit.  The key identity: for
IEEE-754 doubles,

    np.add.accumulate(np.concatenate(([c0], vals)))[-1]

equals the sequential loop ``c = c0; for v in vals: c += v`` exactly
(same operation order, same rounding), and ``x += 0.0`` is the
identity for every non-negative float — so charges whose energy (or
latency) term is zero can be dropped from the chains without changing
a single bit.  Static energies in the chains were computed through the
very same cost-model methods the interpreter calls; dynamic logic
energies are produced by the same kernel-table gathers `Tile.logic_op`
performs, in the same dtype and reduction order
(:func:`_logic_energies`).
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from typing import Optional

import numpy as np

from repro.compilejit.plan import (
    P_ACT,
    P_CLR,
    P_G1,
    P_G2,
    P_GATES,
    P_HALT,
    P_PRESET,
    P_READ,
    P_SET,
    P_WRITE,
    CompiledPlan,
    _acc,
    plan_for,
)
from repro.core.controller import InstructionBudgetExceeded, Phase, _NONE
from repro.isa.instruction import decode_cached


def _zero(start: float) -> bool:
    """Whether ``start`` is 0.0 (not -0.0), as every fresh ledger."""
    return start == 0.0 and math.copysign(1.0, start) > 0.0


def _backup_total(plan: CompiledPlan, start: float) -> float:
    """``start`` plus the plan's backup chain, one charge at a time."""
    if _zero(start):
        return plan.backup_total
    return _acc(start, plan.backup_chain())


def _latency_total(plan: CompiledPlan, start: float) -> float:
    """``start`` plus one cycle per instruction, one at a time."""
    if _zero(start):
        return plan.latency_total
    return _acc(start, np.full(plan.n_instructions, plan.cycle))


# ----------------------------------------------------------------------
# Continuous power
# ----------------------------------------------------------------------


def _unobserved_at_fetch(mouse) -> bool:
    """Whether a plan run may take ``mouse`` where it stands: no
    telemetry, profiler or fault hook on its controller or ledger, and
    powered, not halted, at FETCH and outside a sensor transfer."""
    controller = mouse.controller
    ledger = mouse.ledger
    return not (
        controller._obs is not None
        or controller._prof is not None
        or controller._faults is not None
        or ledger.obs is not None
        or ledger.prof is not None
        or not controller.powered
        or controller.halted
        or controller.phase is not Phase.FETCH
        or controller.sensor_pc.read() != _NONE
    )


def start_plan(mouse) -> Optional[CompiledPlan]:
    """The plan a compiled run of ``mouse`` starts, or None when
    something observes the machine or it is not where every plan run
    begins (:func:`_unobserved_at_fetch`, and at pc 0 with default
    register parity, nothing staged and no dead replay pending), or
    its program does not compile."""
    pc = mouse.controller.pc
    if (
        not _unobserved_at_fetch(mouse)
        or mouse.controller._dead_replay
        or pc.read() != 0
        or pc.parity.value
        or pc._staged
    ):
        return None
    return mouse_plan(mouse)


def try_run_continuous(mouse, max_instructions: int) -> bool:
    """Run the loaded program via its compiled plan if eligible.

    Returns False (without touching any state) when the machine or the
    program needs the scalar interpreter (see :func:`start_plan`).
    """
    plan = start_plan(mouse)
    if plan is None or plan.n_instructions > max_instructions:
        return False
    _run_continuous(mouse, plan)
    from repro import compilejit

    compilejit.STATS["compiled_runs"] += 1
    return True


def mouse_plan(mouse) -> Optional[CompiledPlan]:
    """The cached plan of ``mouse``'s loaded program for its bank (see
    :func:`~repro.compilejit.plan.plan_for`), built on first use."""
    bank = mouse.bank
    return plan_for(
        mouse._program, mouse.cost, len(bank.data_tiles), bank.rows, bank.cols
    )


def _run_continuous(mouse, plan: CompiledPlan) -> None:
    """One machine's run as a batch of one: the packed pass from the
    transfer buffer's bits, then the compute chain folded with the
    run's logic energies (:func:`_run_execute`)."""
    controller = mouse.controller
    tiles = mouse.bank.data_tiles
    buf = controller.buffer[None, None]

    # --- semantic pass: array effects, gate log, transfer buffer ------
    log, cbuf = _packed_pass(
        plan, tiles, [t.state[None] for t in tiles], 1, pack_rows(buf)[0]
    )
    unpack_rows([cbuf], buf)
    actreg = controller.activate_register
    for _, word in plan.activates:
        actreg.stage(word)
        actreg.commit()

    # --- accounting: fold the chains ----------------------------------
    b = mouse.ledger.breakdown
    b.compute_energy = _acc(
        b.compute_energy, plan.compute_chain(_run_execute(plan, log))
    )
    b.compute_latency = _latency_total(plan, b.compute_latency)
    b.backup_energy = _backup_total(plan, b.backup_energy)
    b.instructions += plan.n_instructions

    # --- final architectural state ------------------------------------
    k = plan.n_instructions - 1  # the commits before HALT
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
    controller._word = plan.words[-1]
    controller._instr = decode_cached(plan.words[-1])
    controller._executed_uncommitted = False


# ----------------------------------------------------------------------
# Intermittent power (fused window loop)
# ----------------------------------------------------------------------


def intermittent_eligible(run, obs) -> Optional[CompiledPlan]:
    """The plan to use for a fused intermittent run, or None.

    None when the run's telemetry ``obs`` or something on the machine
    observes it per microstep, when the machine is not where a plan run
    starts (unpowered, halted, mid-instruction, or inside a sensor
    transfer; see :func:`_unobserved_at_fetch`), or when the program
    has no replay-stable plan.  Any source, buffer and checkpointer
    fuses.
    """
    if obs is not None or not _unobserved_at_fetch(run.mouse):
        return None
    plan = mouse_plan(run.mouse)
    if plan is None or not plan.replay_stable:
        return None
    pc = run.mouse.controller.pc.read()
    if pc is None or not 0 <= pc < plan.n_instructions:
        return None
    return plan


def run_intermittent_fused(run, plan: CompiledPlan, max_instructions: int):
    """The IntermittentRun while-loop, fused per instruction.

    Keeps the voltage, the ledger's categories and running total, the
    dual PC's copies, parity bit and staged flag, and the phase in
    locals, and makes the interpreter's exact per-microstep buffer
    calls through the buffer's
    :meth:`~repro.harvest.capacitor.EnergyBuffer.stepper` closures —
    every draw priced over one cycle (the ESR term), including the
    zero draws at DECODE and PC_STAGE, and every commit's harvest
    checked and leaked; a constant source's harvest per cycle is its
    ``energy`` over one cycle, computed once.  Outages go to the
    referee's own stall check, ``power_off``, ``charge_until_ready``
    and ``power_on``, so restore/charging accounting, activation
    re-issue, and the dual-PC protocol are the scalar engine's code.
    A checkpointer gets the scalar loop's hook calls in its order:
    ``on_outage`` right after ``power_off``, ``on_commit`` after every
    committed instruction (HALT included, and after the outage a
    commit ends in).  The locals are written back onto the run,
    ledger, buffer, PC register and controller before every hook and
    interpreter call and on every exit, a raise included; the fetched
    word and its decode are built only then.

    The loop does no array work per op.  Before it starts, one packed
    pass runs the plan's ops from the start pc on a copy of the tiles'
    packed rows and the transfer buffer, and prices every logic op from
    its logged inputs (:func:`_logic_energies`); each pc's EXECUTE draw
    reads that table.  A replay is idempotent, so this holds across
    outages: no gate writes one of its own input rows, a re-executed
    WRITE copies the non-volatile transfer buffer again, and a
    replay-stable plan's re-issued ACTIVATE restores every active set
    an op uses.  An op re-executed after a power cut therefore reads
    what its first execution read, and the run's per-op energies and
    array effects are the continuous run's from the same state.  This
    is not window-level replay, which the ``repro.verify`` re-execution
    analysis refutes for programs with WAR hazards: power is still cut
    at microstep granularity, and only the last instruction repeats.
    ACTIVATE latches the live tiles and stages the register in the
    loop, since ``power_off`` and ``power_on`` read them.

    The tile states and the transfer buffer catch up only where
    something reads them: the packed ops executed since the last
    catch-up are applied to the live rows and the rows they wrote are
    unpacked.  That happens on any raise and whenever a hook calls
    :meth:`~repro.harvest.intermittent.IntermittentRun.settle`, as
    :func:`~repro.durability.checkpoint.capture_intermittent` does; at
    HALT the pass's final rows are unpacked once.
    """
    from repro import compilejit
    from repro.harvest.intermittent import charge_until_ready
    from repro.harvest.source import is_constant

    mouse = run.mouse
    controller = mouse.controller
    ledger = mouse.ledger
    b = ledger.breakdown
    buffer = run.config.buffer
    source = run.config.source
    checkpointer = run.checkpointer
    tiles = mouse.bank.data_tiles
    pcreg = controller.pc
    actreg = controller.activate_register

    ops = plan.ops
    words = plan.words
    cycle = plan.cycle
    fetch_e = plan.fetch_e
    backup_e = plan.backup_e
    act_backup_e = plan.act_backup_e
    steps = buffer.stepper()
    add, draw, leak, off_at = steps.add, steps.draw, steps.leak, steps.off_at
    source_energy = source.energy
    # A constant source's harvest over a cycle never depends on when.
    h_cycle = source_energy(run.time, cycle) if is_constant(source) else None
    DECODE, EXECUTE = Phase.DECODE, Phase.EXECUTE
    PC_STAGE, COMMIT, FETCH = Phase.PC_STAGE, Phase.COMMIT, Phase.FETCH

    # Locals mirrored from the ledger breakdown / run cursor / PC
    # register; written back before every hook and interpreter call and
    # on every exit.  `tot` is the breakdown's total energy, ((ce + be)
    # + de) + re, as the scalar loop reads it around each microstep.
    ce = b.compute_energy
    cl = b.compute_latency
    be = b.backup_energy
    de = b.dead_energy
    dl = b.dead_latency
    re_ = b.restore_energy  # read-only here; power paths update it
    tot = ce + be + de + re_
    ninstr = b.instructions
    v = buffer.voltage
    t = run.time
    executed = run.executed
    commits_w = run._commits_in_window
    drawn_w = run._drawn_in_window
    dead = controller._dead_replay
    p0, p1 = pcreg._values
    par = pcreg.parity.value
    staged = pcreg._staged
    pc = pcreg.read()

    # `phase` and `eu` are the controller's phase and
    # executed-uncommitted flag after the last microstep the locals
    # hold, so a raise anywhere leaves the scalar loop's machine state.
    # `word` / `instr` are the controller's fetched word and decode at
    # the last instruction boundary (power_off and COMMIT clear both,
    # HALT leaves its own); mid-instruction, flush() rebuilds them from
    # `pc`, as FETCH and DECODE set them.
    word = controller._word
    instr = controller._instr
    phase, eu = FETCH, False
    # False while the power path owns the state: the locals are stale
    # until outage() reloads them.
    live = True

    # The pricing pass, on a copy of the rows the arrays catch up from.
    cols = plan.cols
    masks, nmasks = _spread_masks(plan, 1)
    states = [tile.state for tile in tiles]
    buf = controller.buffer[None, None]
    rows = [pack_rows(st[None]) for st in states]
    row_buf = pack_rows(buf)[0]
    final = [list(tile_rows) for tile_rows in rows]
    log = [0] * int(plan.log_at[pc])  # the ops before pc log nothing
    final_buf = _run_packed(
        ops[pc:], final, masks, nmasks, None, row_buf, log.append
    )
    exec_e = _run_execute(plan, log).tolist()
    # The arrays hold the ops before `settled`; those before `done`
    # have executed.
    settled = done = pc

    def flush() -> None:
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
        if phase is FETCH:
            controller._word = word
            controller._instr = instr
        else:
            controller._word = w = words[pc]
            controller._instr = instr if phase is DECODE else decode_cached(w)
        pcreg._values = [p0, p1]
        pcreg.parity.value = par
        pcreg._staged = staged

    def outage() -> None:
        nonlocal ce, cl, be, de, dl, re_, tot, ninstr, v, t, live
        nonlocal executed, commits_w, drawn_w, dead, word, instr, phase, eu
        nonlocal p0, p1, par, staged, pc
        flush()
        live = False
        run._check_progress()
        controller.power_off()
        if checkpointer is not None:
            checkpointer.on_outage(run)
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
        tot = ce + be + de + re_
        ninstr = b.instructions
        v = buffer.voltage
        t = run.time
        commits_w = 0
        drawn_w = 0.0
        dead = controller._dead_replay
        p0, p1 = pcreg._values
        par = pcreg.parity.value
        staged = pcreg._staged
        pc = pcreg.read()
        word = None  # power_off cleared them
        instr = None
        phase, eu = FETCH, False
        live = True

    def settle() -> None:
        """Apply the ops executed since the last catch-up to the live
        rows, then unpack the rows they wrote and the transfer buffer."""
        nonlocal settled, row_buf
        if done <= settled:
            return
        row_buf = _run_packed(
            ops[settled:done], rows, masks, nmasks, None, row_buf, [].append
        )
        _write_back(states, rows, plan.writes[settled:done], cols)
        unpack_rows([row_buf], buf)
        settled = done

    run._settle = settle
    try:
        while True:
            if executed >= max_instructions:
                raise InstructionBudgetExceeded(
                    f"instruction budget exhausted: program did not halt "
                    f"within {max_instructions} instructions"
                )
            op = ops[pc]
            k = op[0]

            # ---- FETCH: charge fetch energy, draw it ----
            # The scalar loop draws `total_energy_after -
            # total_energy_before` where total_energy is the rounded
            # left-associated sum ((ce + be) + de) + re — NOT the raw
            # charge value.  The delta differs from the charge by ulps,
            # so replicate it exactly.
            te = tot
            if dead:
                de += fetch_e
            else:
                ce += fetch_e
            tot = ce + be + de + re_
            consumed = tot - te
            phase = DECODE
            v = draw(v, consumed, cycle)
            drawn_w += consumed
            if v <= off_at:
                outage()
                continue

            # ---- DECODE: zero draw (square-root round-trip) ----
            phase = EXECUTE
            v = draw(v, 0.0, cycle)
            if v <= off_at:
                outage()
                continue

            # ---- EXECUTE ----
            if k == P_HALT:
                if dead:
                    dl += cycle
                else:
                    cl += cycle
                ninstr += 1
                controller.halted = True
                # HALT leaves its fetched word and decode in place.
                word = words[pc]
                instr = decode_cached(word)
                phase = FETCH
                executed += 1
                commits_w += 1
                harvested = source_energy(t, cycle) if h_cycle is None else h_cycle
                t += cycle
                v = leak(add(v, harvested), cycle)
                v = draw(v, 0.0, cycle)
                break

            te = tot
            if k == P_ACT:
                for ti, bulk, cols_t in op[1]:
                    if bulk:
                        tiles[ti].activate_column_range(*cols_t)
                    else:
                        tiles[ti].activate_columns(cols_t)
                actreg.stage(words[pc])
                actreg.commit()
                be += act_backup_e
            if dead:
                de += exec_e[pc]
            else:
                ce += exec_e[pc]
            done = pc + 1
            tot = ce + be + de + re_
            consumed = tot - te
            phase, eu = PC_STAGE, True
            v = draw(v, consumed, cycle)
            drawn_w += consumed
            if v <= off_at:
                outage()
                continue

            # ---- PC_STAGE: stage pc+1 in the invalid copy, zero draw ----
            if par:
                p0 = pc + 1
            else:
                p1 = pc + 1
            staged = True
            phase = COMMIT
            v = draw(v, 0.0, cycle)
            if v <= off_at:
                outage()
                continue

            # ---- COMMIT: flip the parity, charge backup, count, harvest ----
            par = not par
            staged = False
            pc += 1
            word = None
            instr = None
            te = tot
            be += backup_e
            tot = ce + be + de + re_
            consumed = tot - te
            if dead:
                dl += cycle
            else:
                cl += cycle
            ninstr += 1
            dead = False
            phase, eu = FETCH, False
            executed += 1
            commits_w += 1
            harvested = source_energy(t, cycle) if h_cycle is None else h_cycle
            t += cycle
            v = leak(add(v, harvested), cycle)
            v = draw(v, consumed, cycle)
            drawn_w += consumed
            if v <= off_at:
                outage()
            if checkpointer is not None:
                flush()
                checkpointer.on_commit(run)

        # HALT: final state.
        flush()
        for st, tile_rows in zip(states, final):
            unpack_rows(tile_rows, st[None])
        unpack_rows([final_buf], buf)
        settled = plan.n_instructions
        if checkpointer is not None:
            checkpointer.on_commit(run)
    except BaseException:
        if live:
            flush()
        settle()
        raise
    finally:
        run._settle = None
    compilejit.STATS["compiled_runs"] += 1
    return b


def _write_back(states, rows, writes, cols: int) -> None:
    """Unpack each packed row that ``writes`` names into its tile's
    ``(rows, cols)`` state."""
    touched: dict[int, set] = {}
    for pairs in writes:
        for t, r in pairs:
            touched.setdefault(t, set()).add(r)
    for t, written in touched.items():
        written = sorted(written)
        states[t][written] = _bits([rows[t][r] for r in written], cols)


# ----------------------------------------------------------------------
# Packed rows: lock-step batches, and continuous runs as a batch of one
# ----------------------------------------------------------------------


#: Bytes of unpacked operand bits and gathered energies that one step
#: of the logic-energy pass holds at most, and of the compute-energy
#: chains one step of their fold holds: small enough to stay in cache
#: (on a 2-core VM a batch-64 svm_decision run took 5.2 ms at 256 KiB
#: and 6.5 ms at 1 MiB).
_STEP_BYTES = 1 << 18


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
    run_batched(machine, plan)
    from repro import compilejit

    compilejit.STATS["compiled_runs"] += 1
    return True


def pack_rows(state: np.ndarray) -> list:
    """One Python int per row of a ``(batch, rows, cols)`` bool tile
    state, its bit ``b * cols + c`` holding ``state[b, row, c]``."""
    batch, rows, cols = state.shape
    nbits = batch * cols
    if batch == 1:
        state = state[0]
    else:
        state = state.transpose(1, 0, 2).reshape(rows, nbits)
    packed = np.packbits(state, axis=1, bitorder="little")
    if nbits <= 64:
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        return words.view("<u8").ravel().tolist()
    data = packed.tobytes()
    n = packed.shape[1]
    return [int.from_bytes(data[i : i + n], "little") for i in range(0, rows * n, n)]


def _bits(words: list, nbits: int) -> np.ndarray:
    """The low ``nbits`` bits of each packed int, ``(len(words),
    nbits)`` uint8, bit ``i`` of word ``j`` at ``[j, i]``."""
    n = (nbits + 7) // 8
    if n == 1:
        raw = np.frombuffer(bytes(words), dtype=np.uint8)
    elif n <= 8:
        raw = np.frombuffer(array("Q", words), dtype=np.uint64)
        raw = raw.astype("<u8", copy=False).view(np.uint8)
    else:
        raw = np.frombuffer(
            b"".join([w.to_bytes(n, "little") for w in words]), dtype=np.uint8
        )
    return np.unpackbits(
        raw.reshape(len(words), -1), axis=1, count=nbits, bitorder="little"
    )


def unpack_rows(words: list, state: np.ndarray) -> None:
    """Write :func:`pack_rows`' ints back into ``state``."""
    batch, rows, cols = state.shape
    bits = _bits(words, batch * cols)
    if batch == 1:
        state[0] = bits
    else:
        state[...] = bits.reshape(rows, batch, cols).transpose(1, 0, 2)


def sample_state(words: list, sample: int, cols: int) -> np.ndarray:
    """Sample ``sample``'s ``(rows, cols)`` bool state in one tile's
    packed rows."""
    shift = sample * cols
    full = (1 << cols) - 1
    return _bits([(w >> shift) & full for w in words], cols).view(bool)


def switch_cells(xs, counts, mask: int) -> int:
    """The cells of ``mask`` whose count of 1s across the packed input
    rows ``xs`` is one of ``counts``."""
    eq = [mask]  # eq[n]: the cells with n ones so far
    for x in xs:
        eq = [e & ~x | p & x for e, p in zip(eq + [0], [0] + eq)]
    cells = 0
    for n in counts:
        cells |= eq[n]
    return cells


def _gate(r: list, ins, orow: int, mask: int, counts, target: bool, log) -> None:
    """One gate on a tile's packed rows ``r`` under ``mask``, in its
    general form; ``log`` appends each input row, or is None."""
    xs = [r[i] for i in ins]
    if log is not None:
        for x in xs:
            log(x)
    cells = switch_cells(xs, counts, mask)
    if target:
        r[orow] |= cells
    else:
        r[orow] &= ~cells


def _spread_masks(plan: CompiledPlan, batch: int) -> tuple[list, list]:
    """The plan's one-row masks spread over ``batch`` samples, and their
    complements."""
    cols = plan.cols
    # Σ_b 2^(b·cols): a one-row mask times this covers every sample.
    spread = ((1 << (batch * cols)) - 1) // ((1 << cols) - 1)
    masks = [mask * spread for mask in plan.row_masks]
    return masks, [~mask for mask in masks]


def _run_packed(ops, rows, masks, nmasks, tiles, cbuf, log):
    """Apply packed ops to a batch's packed ``rows``; returns the
    transfer buffer.  ``masks`` / ``nmasks`` are the plan's row masks
    spread over the batch and their complements; ``tiles`` latch each
    ACTIVATE's columns, or are None when the caller latches them;
    ``log`` appends each gate input row as read."""
    for op in ops:
        k = op[0]
        if k == P_SET:
            _, t, row, m = op
            rows[t][row] |= masks[m]
        elif k == P_CLR:
            _, t, row, m = op
            rows[t][row] &= nmasks[m]
        elif k == P_G2:
            _, t, i0, i1, o, m, both, target = op
            r = rows[t]
            a = r[i0]
            b = r[i1]
            log(a)
            log(b)
            g = a & b if both else a | b
            if target:
                r[o] |= masks[m] & ~g
            else:
                r[o] &= g | nmasks[m]
        elif k == P_G1:
            _, t, i0, o, m, target = op
            r = rows[t]
            a = r[i0]
            log(a)
            if target:
                r[o] |= masks[m] & ~a
            else:
                r[o] &= a | nmasks[m]
        elif k == P_READ:
            cbuf = rows[op[1]][op[2]]
        elif k == P_WRITE:
            for t in op[1]:
                rows[t][op[2]] = cbuf
        elif k == P_GATES:
            for t, ins, o, m, counts, target in op[1]:
                _gate(rows[t], ins, o, masks[m], counts, target, log)
        elif k == P_PRESET:
            for t, row, m in op[1]:
                if op[2]:
                    rows[t][row] |= masks[m]
                else:
                    rows[t][row] &= nmasks[m]
        elif k == P_ACT and tiles is not None:
            for t, bulk, cols_t in op[1]:
                if bulk:
                    tiles[t].activate_column_range(*cols_t)
                else:
                    tiles[t].activate_columns(cols_t)
        # P_HALT: no array work
    return cbuf


def _packed_pass(plan, tiles, states, batch, cbuf, hooks=None):
    """Run ``plan``'s packed-row ops on the ``(batch, rows, cols)`` tile
    ``states``: each is packed once (:func:`pack_rows`) and unpacked
    once when the pass returns or raises.  ``cbuf`` is the transfer
    buffer's packed row when the pass starts; returns the gate log and
    the buffer when it ends.  ``hooks`` are :func:`run_batched`'s."""
    cols = plan.cols
    masks, nmasks = _spread_masks(plan, batch)
    ops = plan.ops
    log: list[int] = []
    rows = [pack_rows(st) for st in states]
    try:
        lo = 0
        for pc in sorted(hooks or ()):
            cbuf = _run_packed(
                ops[lo:pc + 1], rows, masks, nmasks, tiles, cbuf, log.append
            )
            hooks[pc](rows, lambda samples, pc=pc: _reissue(
                plan.gates(pc), rows, samples, cols
            ))
            lo = pc + 1
        cbuf = _run_packed(
            ops[lo:] if lo else ops, rows, masks, nmasks, tiles, cbuf, log.append
        )
    finally:
        for st, words in zip(states, rows):
            unpack_rows(words, st)
    return log, cbuf


def run_batched(machine, plan: CompiledPlan, hooks=None) -> None:
    """Run ``plan`` on a BatchedMouse, ledgers bit-identical to the
    scalar batched loop.

    Each data tile is packed once, one Python int per row
    (:func:`pack_rows`), and unpacked once when the run returns or
    raises; in between every op is a few bitwise ops on those ints
    (:attr:`CompiledPlan.ops`), whatever the batch size.  The gates
    log their input rows, and the logic energies are computed from the
    log after the pass (:func:`_logic_energies`).  Only the
    compute-energy chain differs between samples (each logic op's slot
    holds that sample's energy), so it alone is built per sample; the
    backup and latency chains are the plan's constants, and so are
    their totals from 0.0.

    ``hooks`` maps a pc to a callable run right after that pc's op is
    applied to every sample: ``hook(rows, redo)`` receives the packed
    rows, ``rows[tile][row]``, which it may rewrite, and
    ``redo(samples)``, which applies the pc's gates once more to each
    listed sample's active cells.  A fault campaign lays each trial's
    faults over its sample this way and re-issues a verified gate on
    the samples whose re-read fails (:mod:`repro.faults.campaign`); a
    re-issue is not charged to the ledgers.  The ops between two hooked
    pcs run with no per-op check."""
    ledger = machine.ledger
    tiles = machine.tiles
    log, _ = _packed_pass(
        plan, tiles, [t.state for t in tiles], machine.batch, 0, hooks
    )
    ledger.compute_energy = _fold_compute(
        ledger.compute_energy, plan.compute_chain(plan.execute),
        2 * plan.logic_pcs + 1, _logic_energies(plan, log, machine.batch),
    )
    ledger.compute_latency = _acc_each(
        ledger.compute_latency, partial(_latency_total, plan)
    )
    ledger.backup_energy = _acc_each(
        ledger.backup_energy, partial(_backup_total, plan)
    )
    ledger.instructions += plan.n_instructions


def _reissue(gates, rows, samples, cols: int) -> None:
    """Apply ``gates`` (:meth:`CompiledPlan.gates`) once more to each of
    ``samples``' active cells, unlogged."""
    for tile, ins, orow, mask, counts, target in gates:
        for s in samples:
            _gate(rows[tile], ins, orow, mask << (s * cols), counts, target, None)


def _logic_energies(plan: CompiledPlan, log, batch: int) -> np.ndarray:
    """Each logic op's EXECUTE energy per sample, ``(logic ops, batch)``
    in pc order, from the gates' logged input rows.

    Per energy group, the logged rows are unpacked, their 1s counted
    per cell, and the kernel's energies gathered by count and summed
    over the active columns: one contiguous row of ``width`` values per
    (op, sample), so each sum is NumPy's over the 1-D gather
    ``Tile.logic_op`` sums.  A broadcast op adds its gates' energies
    from 0.0 in tile order, as the controller does.  Each op's array
    energy ``arr`` then becomes ``arr + (arr * share / oms + aterm)``
    in one elementwise pass over every op (IEEE addition commutes).  A
    log that fits in ``_STEP_BYTES`` unpacked is unpacked once, and
    each group gathers its rows from it; a longer one is unpacked a
    group's step at a time."""
    cols = plan.cols
    nbits = batch * cols
    whole = _bits(log, nbits) if log and len(log) * nbits <= _STEP_BYTES else None
    get = log.__getitem__
    arrs = np.empty((plan.logic_pcs.size, batch), dtype=np.float64)
    gates = {}  # group -> its broadcast gates' energies
    for g, (energy, sel, width, k, positions, members) in enumerate(plan.groups):
        n = len(positions) // k
        if members is None:
            gates[g] = np.empty((n, batch), dtype=np.float64)
        step = max(1, _STEP_BYTES // (k * nbits + 9 * batch * width))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            at = positions[lo * k : hi * k]
            if whole is not None:
                bits = whole[at]
            else:
                bits = _bits(list(map(get, at.tolist())), nbits)
            bits = bits.reshape(hi - lo, k, batch, cols)
            if sel is not None:
                bits = bits[..., sel]
            ones = bits[:, 0]
            for i in range(1, k):
                ones = ones + bits[:, i]
            arr = energy.take(ones)
            if width > 1:
                arr = arr.reshape(-1, width).sum(axis=-1)
            arr = arr.reshape(hi - lo, batch)
            if members is None:
                gates[g][lo:hi] = arr
            else:
                arrs[members[lo:hi]] = arr
    for j, parts in plan.ln:
        arr = 0.0
        for g, i in parts:
            arr = arr + gates[g][i]
        arrs[j] = arr
    out = arrs * plan.share
    out /= plan.oms
    out += plan.aterms[:, None]
    out += arrs
    return out


def _run_execute(plan: CompiledPlan, log) -> np.ndarray:
    """Each pc's EXECUTE energy in a run of one machine whose gates
    logged ``log``: the plan's, with the run's logic energies
    (:func:`_logic_energies`) in the logic ops' places."""
    execute = plan.execute.copy()
    execute[plan.logic_pcs] = _logic_energies(plan, log, 1)[:, 0]
    return execute


def _fold_compute(starts, chain, at, energies) -> np.ndarray:
    """Each sample's compute-energy total: ``starts`` plus the plan's
    compute ``chain``, whose logic slots (at ``at``) hold the sample's
    ``energies``, added one charge at a time as the serial ledger adds
    them.  The chains are folded in steps of a bounded
    number of charges as ``(charges, batch)`` blocks carrying their sum
    into the next; ``np.add.reduce`` over the first axis of a block of 2
    or more columns adds it row by row.  Over one column it sums
    pairwise, so a batch of one folds its chain with :func:`_acc`."""
    batch = starts.size
    if batch == 1:
        chain = chain.copy()
        chain[at] = energies[:, 0]
        return np.array([_acc(float(starts[0]), chain)])
    step = max(1, _STEP_BYTES // (8 * batch))
    carry = starts
    j = 0
    for lo in range(0, chain.size, step):
        hi = min(chain.size, lo + step)
        block = np.empty((hi - lo + 1, batch), dtype=np.float64)
        block[0] = carry
        block[1:] = chain[lo:hi, None]
        k = j + int(np.searchsorted(at[j:], hi))
        block[at[j:k] - lo + 1] = energies[j:k]
        j = k
        carry = np.add.reduce(block, axis=0)
    return carry


def _acc_each(starts: np.ndarray, fold) -> np.ndarray:
    """``fold(start)`` per sample of a chain every sample shares
    (:func:`_backup_total`, :func:`_latency_total`): one fold per
    distinct starting value."""
    uniq, inverse = np.unique(starts, return_inverse=True)
    return np.array([fold(float(s)) for s in uniq])[inverse]
