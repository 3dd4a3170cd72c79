"""The MOUSE memory controller (Sections IV-B, IV-D, V-B).

The controller is the machine's only sequencer: it reads each
instruction from the instruction tiles, decodes it, broadcasts it to
the data tiles, then checkpoints — stages PC+1 into the invalid PC
register and flips the parity bit (Figure 7).  Its functionality is
"analogous to the 1st, 2nd, and 5th stages of the classic 5-stage
pipeline"; the memory itself is execute and memory-access.

The implementation is an explicit *microstep* machine::

    FETCH -> DECODE -> EXECUTE -> PC_STAGE -> COMMIT -> FETCH -> ...

so tests (and the intermittent harness) can cut power between any two
microsteps — or even mid-gate-pulse via :meth:`partial_execute` — and
verify that restart always recovers.  On restart the controller
re-issues the saved Activate Columns instruction (Restore), then
resumes from the valid PC; if the interrupted instruction had already
done its work but not committed, the re-execution is accounted as Dead
energy/latency, exactly the paper's worst case.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.array.bank import SENSOR_TILE, Bank
from repro.core.registers import DualRegister
from repro.energy.metrics import Category, EnergyLedger
from repro.energy.model import InstructionCostModel
from repro.isa.assembler import disassemble_word
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    Instruction,
    LogicInstruction,
    MemoryInstruction,
    decode_cached,
    encode,
)

#: Sentinel stored in dual registers that hold "nothing yet".
_NONE = (1 << 24) - 1


class InstructionBudgetExceeded(RuntimeError):
    """A run exceeded its ``max_instructions`` budget before HALT."""


class Phase(enum.Enum):
    OFF = "off"
    FETCH = "fetch"
    DECODE = "decode"
    EXECUTE = "execute"
    PC_STAGE = "pc_stage"
    COMMIT = "commit"


class MemoryController:
    """Fetch/decode/broadcast/commit sequencer with non-volatile state."""

    def __init__(
        self,
        bank: Bank,
        cost: Optional[InstructionCostModel] = None,
        ledger: Optional[EnergyLedger] = None,
    ) -> None:
        self.bank = bank
        self.cost = cost or InstructionCostModel(bank.params)
        self.ledger = ledger or EnergyLedger()

        # Non-volatile architectural state (Section IV-A items 3-4).
        self.pc = DualRegister("PC")
        self.pc.initialise(0)
        self.activate_register = DualRegister("ACT")
        self.activate_register.initialise(_NONE)
        self.sensor_pc = DualRegister("SENSOR_PC")
        self.sensor_pc.initialise(_NONE)
        # The 128 B transfer buffer.  Non-volatile: restart re-executes
        # only the in-flight instruction, so a WRITE interrupted after
        # its feeding READ must still find the buffered row on reboot.
        self.buffer = np.zeros(bank.cols, dtype=bool)

        # Volatile sequencing state (rebuilt on every restart).
        self.powered = True
        self.halted = False
        self.phase = Phase.FETCH
        self._word: Optional[int] = None
        self._instr: Optional[Instruction] = None
        self._executed_uncommitted = False
        self._dead_replay = False
        self._lost_work = False

        # Fault layer (repro.faults).  None = disabled: like telemetry,
        # the hot path pays one `is None` check per logic instruction.
        self._faults = None

        # Telemetry (repro.obs).  None = disabled: the hot path pays a
        # single `is None` check per microstep and allocates nothing.
        self._obs = None
        self._obs_pc = 0
        self._obs_text = ""
        self._obs_e0 = 0.0
        self._obs_t0 = 0.0
        self._obs_steps = 0
        self._obs_dead = False

        # Energy profiler (repro.obs.prof).  None = disabled: one
        # `is None` check per FETCH.  When attached, `_prof_scopes`
        # maps each pc to its compile-time profiler scope.
        self._prof = None
        self._prof_scopes: Optional[list[int]] = None

    def attach_obs(self, telemetry) -> None:
        """Attach a :class:`repro.obs.Telemetry` hub (None detaches).

        A disabled hub (no sink) is treated as detached so the
        per-microstep guard stays a single pointer comparison.
        """
        if telemetry is not None and telemetry.enabled:
            self._obs = telemetry
        else:
            self._obs = None

    def attach_prof(self, profiler, pc_scopes: Optional[list[int]]) -> None:
        """Attach an :class:`repro.obs.prof.EnergyProfiler`.

        ``pc_scopes[pc]`` is the profiler node id of the instruction at
        ``pc`` (built by :meth:`repro.core.accelerator.Mouse.
        attach_profiler` from the program's scope table).  At each
        FETCH the controller points the profiler at the fetched pc's
        scope; every subsequent ledger charge — execute, backup, dead
        replay, and the restore re-issued when power returns mid-way
        through that instruction — lands there.  Pass None to detach.
        """
        if profiler is None:
            self._prof = None
            self._prof_scopes = None
        else:
            assert pc_scopes is not None
            self._prof = profiler
            self._prof_scopes = pc_scopes

    def attach_faults(self, hook) -> None:
        """Attach a fault hook (e.g. :class:`repro.faults.ControllerFaultHook`).

        The hook's ``after_logic(controller, instr)`` runs at the end of
        every *complete* logic execution — the injection point for
        gate-output faults and the verify-and-retry recovery layer.
        Pass None to detach.
        """
        self._faults = hook

    @property
    def current_instruction(self) -> Optional[Instruction]:
        """The decoded in-flight instruction (DECODE..COMMIT), else None."""
        return self._instr

    # ------------------------------------------------------------------
    # Microstep execution
    # ------------------------------------------------------------------

    def step(self) -> Phase:
        """Advance one microstep; returns the phase that just ran."""
        if not self.powered:
            raise RuntimeError("controller is powered off")
        if self.halted:
            raise RuntimeError("program has halted")
        phase = self.phase
        handler = {
            Phase.FETCH: self._do_fetch,
            Phase.DECODE: self._do_decode,
            Phase.EXECUTE: self._do_execute,
            Phase.PC_STAGE: self._do_pc_stage,
            Phase.COMMIT: self._do_commit,
        }[phase]
        if self._obs is None:
            handler()
        else:
            if phase is Phase.FETCH:
                self._obs_begin()
            handler()
            self._obs_after(phase)
        return phase

    def step_instruction(self) -> None:
        """Run microsteps until one instruction commits (or halts)."""
        start_halted = self.halted
        if start_halted:
            raise RuntimeError("program has halted")
        while not self.halted:
            phase = self.step()
            if phase is Phase.COMMIT:
                break

    def run(self, max_instructions: int = 10_000_000) -> None:
        """Run to HALT under continuous power."""
        executed = 0
        while not self.halted:
            if executed >= max_instructions:
                raise InstructionBudgetExceeded(
                    f"program did not halt within {max_instructions} instructions"
                )
            self.step_instruction()
            executed += 1

    # ------------------------------------------------------------------
    # Telemetry (only reached when a hub with a live sink is attached)
    # ------------------------------------------------------------------

    def _obs_begin(self) -> None:
        """Snapshot per-instruction state at the start of FETCH."""
        b = self.ledger.breakdown
        self._obs_pc = self.pc.read()
        self._obs_e0 = b.total_energy
        self._obs_t0 = b.total_latency
        self._obs_steps = 0
        self._obs_dead = self._dead_replay

    def _obs_after(self, phase: Phase) -> None:
        """Count the microstep; emit ``instr.commit`` when it retires."""
        self._obs_steps += 1
        if phase is Phase.DECODE:
            # _word is still live at DECODE; the text cache is keyed by
            # the encoded word so replayed loops cost one dict hit.
            self._obs_text = disassemble_word(self._word)
        if phase is Phase.COMMIT or self.halted:
            b = self.ledger.breakdown
            self._obs.emit(
                "instr.commit",
                self._obs_t0,
                pc=self._obs_pc,
                text=self._obs_text,
                energy=b.total_energy - self._obs_e0,
                latency=b.total_latency - self._obs_t0,
                microsteps=self._obs_steps,
                dead=self._obs_dead,
            )

    # ------------------------------------------------------------------
    # Microstep handlers
    # ------------------------------------------------------------------

    def _charge(self, energy: float, latency: float = 0.0) -> None:
        category = Category.DEAD if self._dead_replay else Category.COMPUTE
        self.ledger.charge(category, energy, latency)

    def _do_fetch(self) -> None:
        pc = self.pc.read()
        if self._prof is not None:
            self._prof.set_scope(self._prof_scopes[pc])
        self._word = self.bank.fetch_word(pc)
        self._charge(self.cost.fetch_energy())
        self.phase = Phase.DECODE

    def _do_decode(self) -> None:
        assert self._word is not None
        self._instr = decode_cached(self._word)
        self.phase = Phase.EXECUTE

    def _do_execute(self) -> None:
        instr = self._instr
        assert instr is not None
        if isinstance(instr, HaltInstruction):
            # HALT does not advance the PC: a restart lands back on HALT
            # and halts again (idempotent program end).
            self._charge(0.0, self.cost.cycle_time)
            self.ledger.count_instruction()
            self.halted = True
            self.phase = Phase.FETCH
            return
        if isinstance(instr, ActivateColumnsInstruction):
            self._execute_activate(instr)
        elif isinstance(instr, MemoryInstruction):
            self._execute_memory(instr)
        elif isinstance(instr, LogicInstruction):
            self._execute_logic(instr)
        else:  # pragma: no cover - decode produces only the above
            raise TypeError(f"cannot execute {type(instr).__name__}")
        self._executed_uncommitted = True
        self.phase = Phase.PC_STAGE

    def _do_pc_stage(self) -> None:
        self.pc.stage(self.pc.read() + 1)
        self.phase = Phase.COMMIT

    def _do_commit(self) -> None:
        self.pc.commit()
        # Backup: the PC checkpoint happens every cycle, same-cycle with
        # the instruction (no latency).
        self.ledger.charge(Category.BACKUP, self.cost.backup_energy())
        self._charge(0.0, self.cost.cycle_time)
        self.ledger.count_instruction()
        self._executed_uncommitted = False
        self._dead_replay = False
        self._word = None
        self._instr = None
        self.phase = Phase.FETCH

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------

    def _execute_activate(self, instr: ActivateColumnsInstruction) -> None:
        tiles = self.bank.target_tiles(instr.tile)
        for tile in tiles:
            if instr.bulk:
                tile.activate_column_range(*instr.columns)
            else:
                tile.activate_columns(instr.columns)
        self._charge(self.cost.activate_energy(instr.column_count))
        # Backup: keep the instruction in its duplicated non-volatile
        # register so restart can re-issue it (Section IV-D).
        self.activate_register.stage(encode(instr))
        self.activate_register.commit()
        self.ledger.charge(Category.BACKUP, self.cost.activate_backup_energy())
        self._leave_sensor_region()

    def _execute_memory(self, instr: MemoryInstruction) -> None:
        op = instr.op.upper()
        if op == "READ":
            if instr.tile == SENSOR_TILE:
                self._enter_sensor_region()
                self.buffer[:] = self.bank.sensor.read_row(instr.row)
            else:
                self.buffer[:] = self.bank.data_tile(instr.tile).read_row(instr.row)
                self._leave_sensor_region()
            self._charge(self.cost.row_read_energy(self.bank.cols))
            return
        if op == "WRITE":
            tiles = self.bank.target_tiles(instr.tile)
            for tile in tiles:
                tile.write_row(instr.row, self.buffer)
            self._charge(self.cost.row_write_energy(self.bank.cols) * len(tiles))
            # WRITEs inside a sensor transfer keep the region open.
            return
        # PRESET0 / PRESET1
        value = op == "PRESET1"
        n_columns = 0
        for tile in self.bank.target_tiles(instr.tile):
            result = tile.preset_row(instr.row, value)
            n_columns += result.n_columns
        self._charge(self.cost.preset_energy(max(n_columns, 1)))
        self._leave_sensor_region()

    def _execute_logic(
        self, instr: LogicInstruction, switch_mask: Optional[np.ndarray] = None
    ) -> None:
        spec = instr.spec
        array_energy = 0.0
        for tile in self.bank.target_tiles(instr.tile):
            result = tile.logic_op(
                spec, instr.input_rows, instr.output_row, switch_mask=switch_mask
            )
            array_energy += result.energy
        total = self.cost.logic_energy_measured(array_energy, spec.n_inputs + 1)
        self._charge(total)
        self._leave_sensor_region()
        # Partial pulses model interrupted work; faults apply only to
        # operations the controller believes completed.
        if self._faults is not None and switch_mask is None:
            self._faults.after_logic(self, instr)

    # ------------------------------------------------------------------
    # Sensor-read orchestration (Section IV-E)
    # ------------------------------------------------------------------

    def _enter_sensor_region(self) -> None:
        if self.sensor_pc.read() == _NONE:
            self.sensor_pc.update(self.pc.read())

    def _leave_sensor_region(self) -> None:
        if self.sensor_pc.read() != _NONE:
            self.sensor_pc.update(_NONE)

    # ------------------------------------------------------------------
    # Power events
    # ------------------------------------------------------------------

    def partial_execute(self, switch_mask: np.ndarray) -> None:
        """Model power dying mid-pulse of the current logic instruction.

        Columns in ``switch_mask`` had accumulated enough fluence to
        complete their output switch before the outage; others had not.
        The controller does *not* advance: the instruction is considered
        un-executed and will be fully re-performed on restart — which,
        by gate idempotency, converges to the same result.
        """
        if self.phase is not Phase.EXECUTE:
            raise RuntimeError("no instruction is mid-execute")
        instr = self._instr
        if not isinstance(instr, LogicInstruction):
            raise RuntimeError("partial execution applies to logic instructions")
        spec = instr.spec
        for tile in self.bank.target_tiles(instr.tile):
            tile.logic_op(
                spec, instr.input_rows, instr.output_row, switch_mask=switch_mask
            )
        # Energy of the partial pulse was drawn but bought no committed
        # work; charge it as Dead (it will be re-performed).
        self.ledger.charge(
            Category.DEAD, self.cost.logic_energy(spec, int(switch_mask.sum()))
        )

    def power_off(self) -> None:
        """Unexpected power loss: volatile state evaporates.

        Safe at any microstep boundary by construction (Section V).
        """
        if not self.powered:
            return
        interrupted = self.phase
        self._lost_work = self._executed_uncommitted
        self.powered = False
        self.phase = Phase.OFF
        self.bank.power_off()  # column latches are volatile peripherals
        self._word = None
        self._instr = None
        self._executed_uncommitted = False
        if self._obs is not None:
            self._obs.emit(
                "power.off",
                self.ledger.breakdown.total_latency,
                phase=interrupted.value,
                lost_work=self._lost_work,
            )

    def power_on(self) -> None:
        """Restart: restore active columns, resume from the valid PC."""
        if self.powered:
            raise RuntimeError("already powered")
        self.powered = True
        self.halted = False
        self.ledger.count_restart()

        # Restore: re-issue the most recent Activate Columns (first
        # action on restart, Section IV-D).
        saved = self.activate_register.read()
        if saved is not None and saved != _NONE:
            instr = decode_cached(saved)
            assert isinstance(instr, ActivateColumnsInstruction)
            tiles = self.bank.target_tiles(instr.tile)
            for tile in tiles:
                if instr.bulk:
                    tile.activate_column_range(*instr.columns)
                else:
                    tile.activate_columns(instr.columns)
            self.ledger.charge(
                Category.RESTORE,
                self.cost.prices.restore[instr.column_count],
                self.cost.restore_latency(),
            )

        # Sensor-corruption check: if we were mid-transfer and the
        # sensor's valid bit is down, go back to the transfer's start.
        if self.sensor_pc.read() != _NONE and not self.bank.sensor.valid:
            self.pc.update(self.sensor_pc.read())

        # If the in-flight instruction had done its work but not
        # committed, re-performing it is Dead energy (paper worst case);
        # otherwise the re-execution is ordinary forward progress.
        self._dead_replay = self._lost_work
        self._lost_work = False
        self.phase = Phase.FETCH
        if self._obs is not None:
            self._obs.emit(
                "power.restore",
                self.ledger.breakdown.total_latency,
                pc=self.pc.read(),
                dead_replay=self._dead_replay,
            )
