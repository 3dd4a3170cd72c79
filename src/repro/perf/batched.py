"""Lock-step batched inference: many samples, one instruction stream.

MOUSE programs are straight-line (the ISA has no branches) and their
control flow is input-independent: every sample of a classification
batch executes exactly the same instruction sequence, differing only in
array *contents*.  The serial simulator therefore spends its time in
per-sample Python microstep overhead, not in physics.  This engine
exploits the structure the paper itself exploits — one shared
instruction stream — by carrying a ``(batch, rows, cols)`` state tensor
through a single pass over the program, vectorising every tile
operation over the batch axis.

Byte-identity contract (the whole point): per-sample array states,
per-sample read-outs, and per-sample energy ledgers are **bit-for-bit
equal** to running each sample alone on the serial
:class:`~repro.core.accelerator.Mouse`.  The engine replicates the
serial controller's exact charge sequence per instruction —

* FETCH     — Compute ``fetch_energy()`` (no latency)
* EXECUTE   — the instruction's energy (ACTIVATE additionally charges
  ``activate_backup_energy()`` to Backup; HALT charges one cycle of
  latency, counts the instruction, and stops without a commit)
* COMMIT    — Backup ``backup_energy()``, then one ``cycle_time`` of
  Compute latency, then the instruction count

— with every accumulation done elementwise on ``(batch,)`` float64
vectors, so each sample sees the identical IEEE addition sequence the
scalar ledger performs.  Data-dependent logic energy goes through the
same frozen kernels (:mod:`repro.perf.kernels`) and the *same*
``InstructionCostModel.logic_energy_measured`` (pure elementwise
arithmetic, so an array input yields each sample's scalar result
exactly).

That scalar loop is the referee.  By default :meth:`BatchedMouse.run`
executes the compiled plan :class:`~repro.core.accelerator.Mouse`
runs — the same ``CompiledPlan``, from the same per-Program cache —
on packed rows: each tile row of the batch becomes one Python int, one
bit per (sample, column), for the length of the run, and every op a
few bitwise ops on those ints (:func:`repro.compilejit.exec.
run_batched`); the loop runs when compiled execution is switched off
or the program does not compile.

Scope: continuous power only.  Intermittent execution and sensor
reads are inherently per-sample/per-outage serial semantics — use the
serial machine for those (see ``docs/PERFORMANCE.md``).  A fault
campaign that does not mix gate flips with other faults draws every
trial's faults up front and runs its trials as the samples of one
compiled batch, its hooks working on the packed rows
(:mod:`repro.faults.campaign`); a mixed campaign is serial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# NOTE: leaf imports only — ``repro.array.tile`` imports
# repro.perf.kernels, which initialises this package, so anything that
# reaches back into repro.array / repro.core at module load would be
# circular.  ``Program`` is imported lazily in :meth:`BatchedMouse.load`.
from repro.array.lines import check_logic_rows
from repro.devices.parameters import DeviceParameters
from repro.energy.metrics import Breakdown
from repro.energy.model import InstructionCostModel
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
)
from repro.perf.kernels import electrical_kernel

#: Sensor/broadcast tile addresses (mirrors repro.array.bank, which we
#: cannot import here — see the module note above).
_SENSOR_TILE = 510
_BROADCAST_TILE = 511


class BatchedUnsupported(RuntimeError):
    """The batched engine met semantics it cannot vectorise."""


class BatchedLedger:
    """Per-sample energy accounting for a continuous-power batch.

    Holds ``(batch,)`` float64 accumulators for the categories a
    continuous-power run can touch (Compute energy/latency, Backup
    energy).  Every charge is an elementwise ``+=`` of the exact values
    the scalar :class:`~repro.energy.metrics.EnergyLedger` would add to
    each sample, in the same order — float addition is deterministic,
    so sample ``i``'s totals are bit-equal to a serial run of sample
    ``i`` alone.
    """

    def __init__(self, batch: int) -> None:
        if batch < 1:
            raise ValueError("batch must be at least 1")
        self.batch = batch
        self.compute_energy = np.zeros(batch, dtype=np.float64)
        self.backup_energy = np.zeros(batch, dtype=np.float64)
        self.compute_latency = np.zeros(batch, dtype=np.float64)
        self.instructions = 0

    def charge_compute(self, energy, latency: float = 0.0) -> None:
        """Compute charge; ``energy`` is a scalar or a ``(batch,)`` vector."""
        self.compute_energy += energy
        if latency:
            self.compute_latency += latency

    def charge_backup(self, energy: float) -> None:
        self.backup_energy += energy

    def count_instruction(self) -> None:
        self.instructions += 1

    def breakdown(self, sample: int) -> Breakdown:
        """Sample ``i``'s ledger as a standard :class:`Breakdown`."""
        return Breakdown(
            compute_energy=float(self.compute_energy[sample]),
            backup_energy=float(self.backup_energy[sample]),
            compute_latency=float(self.compute_latency[sample]),
            instructions=self.instructions,
        )

    def breakdowns(self) -> list[Breakdown]:
        return [self.breakdown(i) for i in range(self.batch)]


class BatchedTile:
    """One tile replicated over the batch axis: ``(batch, rows, cols)``.

    Column activation is *shared* across the batch (it is set by the
    instruction stream, which is input-independent), so the active-index
    bookkeeping is a single sorted vector, exactly like the serial
    tile's incremental tracking.
    """

    def __init__(
        self, params: DeviceParameters, batch: int, rows: int, cols: int
    ) -> None:
        if rows < 2 or cols < 1:
            raise ValueError("tile needs at least 2 rows and 1 column")
        self.params = params
        self.batch = batch
        self.rows = rows
        self.cols = cols
        self.state = np.zeros((batch, rows, cols), dtype=bool)
        self._active_idx = np.empty(0, dtype=np.intp)
        self._n_active = 0

    # -- activation (shared across the batch) ---------------------------

    def activate_columns(self, columns: Sequence[int]) -> int:
        cols = list(columns)
        for c in cols:
            if not 0 <= c < self.cols:
                raise IndexError(f"column {c} out of range 0..{self.cols - 1}")
        self._active_idx = np.unique(np.asarray(cols, dtype=np.intp))
        self._n_active = len(self._active_idx)
        return len(set(cols))

    def activate_column_range(self, first: int, last: int) -> int:
        if not 0 <= first <= last < self.cols:
            raise IndexError(f"bad column range {first}..{last}")
        self._active_idx = np.arange(first, last + 1, dtype=np.intp)
        self._n_active = last - first + 1
        return self._n_active

    @property
    def n_active(self) -> int:
        return self._n_active

    # -- memory ---------------------------------------------------------

    def read_row(self, row: int) -> np.ndarray:
        """All samples' copies of one row: ``(batch, cols)``."""
        self._check_row(row)
        return self.state[:, row, :].copy()

    def write_row(self, row: int, values: np.ndarray) -> None:
        """Write one row in every sample from a ``(batch, cols)`` buffer."""
        self._check_row(row)
        self.state[:, row, :] = values

    def preset_row(self, row: int, value: bool) -> int:
        self._check_row(row)
        self.state[:, row, self._active_idx] = value
        return self._n_active

    # -- logic ----------------------------------------------------------

    def logic_op(
        self, spec, input_rows: Sequence[int], output_row: int
    ) -> np.ndarray:
        """One gate in every active column of every sample.

        Returns the per-sample array energy, ``(batch,)`` float64 — each
        entry bit-equal to the serial :meth:`Tile.logic_op` energy for
        that sample's state (same kernel tables, same gather, and
        ``sum(axis=1)`` uses the same pairwise reduction per row as a
        1-D ``sum``).
        """
        rows = list(input_rows)
        if len(rows) != spec.n_inputs:
            raise ValueError(
                f"{spec.name} takes {spec.n_inputs} input rows, got {len(rows)}"
            )
        for r in rows + [output_row]:
            self._check_row(r)
        check_logic_rows(rows, output_row)

        if self._n_active == 0:
            return np.zeros(self.batch, dtype=np.float64)

        idx = self._active_idx
        # (batch, n_inputs, n_active) gather, summed over inputs.
        inputs = self.state[np.ix_(np.arange(self.batch), rows, idx)]
        n_ones = inputs.sum(axis=1)  # (batch, n_active)

        kern = electrical_kernel(self.params, spec)
        will_switch = kern.will_switch[n_ones]  # (batch, n_active)

        out = self.state[:, output_row, :]  # view (batch, cols)
        sample_i, col_pos = np.nonzero(will_switch)
        out[sample_i, idx[col_pos]] = kern.target

        return kern.energy[n_ones].sum(axis=1)

    # -- helpers --------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")

    def get_bit(self, sample: int, row: int, col: int) -> int:
        return int(self.state[sample, row, col])

    def set_bit(self, sample: int, row: int, col: int, value: int) -> None:
        self.state[sample, row, col] = bool(value)

    def set_bit_all(self, row: int, col: int, value: int) -> None:
        """Bake shared model data into every sample at once."""
        self.state[:, row, col] = bool(value)


class BatchedMouse:
    """A bank of :class:`BatchedTile` driven by one instruction stream.

    The run loop walks the decoded program linearly (the ISA is
    branch-free), replicating the serial five-microstep machine's charge
    sequence per instruction — see the module docstring for the exact
    order.  The transfer buffer is per-sample (``(batch, cols)``), since
    READ contents are data.
    """

    def __init__(
        self,
        params: DeviceParameters,
        batch: int,
        n_data_tiles: int = 1,
        rows: int = 1024,
        cols: int = 1024,
    ) -> None:
        self.params = params
        self.batch = batch
        self.rows = rows
        self.cols = cols
        self.tiles = [
            BatchedTile(params, batch, rows, cols) for _ in range(n_data_tiles)
        ]
        self.cost = InstructionCostModel(params)
        self.ledger = BatchedLedger(batch)
        self._program = None

    def tile(self, index: int) -> BatchedTile:
        return self.tiles[index]

    def _target_tiles(self, address: int) -> list[BatchedTile]:
        if address == _BROADCAST_TILE:
            return list(self.tiles)
        if address == _SENSOR_TILE:
            raise BatchedUnsupported(
                "sensor reads are inherently serial; use the serial machine"
            )
        return [self.tiles[address]]

    def load(self, program) -> None:
        """Validate the program exactly like the serial machine."""
        from repro.core.program import Program

        if not isinstance(program, Program):
            program = Program(list(program))
        program.ensure_halt()
        program.validate(
            n_data_tiles=len(self.tiles), rows=self.rows, cols=self.cols
        )
        self._program = program

    # ------------------------------------------------------------------

    def run(self) -> BatchedLedger:
        """Execute the loaded program once for the whole batch: on the
        compiled plan when it compiles, else on the referee loop."""
        if self._program is None:
            raise RuntimeError("no program loaded")
        from repro import compilejit

        if compilejit.enabled():
            from repro.compilejit.exec import try_run_batched

            if try_run_batched(self):
                return self.ledger
            compilejit.STATS["fallback_runs"] += 1
        cost = self.cost
        ledger = self.ledger
        fetch = cost.fetch_energy()
        backup = cost.backup_energy()
        cycle = cost.cycle_time
        buffer = np.zeros((self.batch, self.cols), dtype=bool)

        for instr in self._program.instructions:
            # FETCH (the word itself is known; the energy is not).
            ledger.charge_compute(fetch)
            # EXECUTE
            if isinstance(instr, HaltInstruction):
                ledger.charge_compute(0.0, cycle)
                ledger.count_instruction()
                return ledger
            if isinstance(instr, ActivateColumnsInstruction):
                for tile in self._target_tiles(instr.tile):
                    if instr.bulk:
                        tile.activate_column_range(*instr.columns)
                    else:
                        tile.activate_columns(instr.columns)
                ledger.charge_compute(cost.activate_energy(instr.column_count))
                ledger.charge_backup(cost.activate_backup_energy())
            elif isinstance(instr, MemoryInstruction):
                self._execute_memory(instr, buffer)
            elif isinstance(instr, LogicInstruction):
                spec = instr.spec
                array_energy = np.zeros(self.batch, dtype=np.float64)
                for tile in self._target_tiles(instr.tile):
                    array_energy += tile.logic_op(
                        spec, instr.input_rows, instr.output_row
                    )
                ledger.charge_compute(
                    cost.logic_energy_measured(array_energy, spec.n_inputs + 1)
                )
            else:  # pragma: no cover - validate() admits only the above
                raise TypeError(f"cannot execute {type(instr).__name__}")
            # COMMIT
            ledger.charge_backup(backup)
            ledger.charge_compute(0.0, cycle)
            ledger.count_instruction()
        raise RuntimeError("program ended without HALT")  # pragma: no cover

    def _execute_memory(self, instr: MemoryInstruction, buffer: np.ndarray) -> None:
        op = instr.op.upper()
        cost = self.cost
        if op == "READ":
            tiles = self._target_tiles(instr.tile)
            buffer[:, :] = tiles[0].read_row(instr.row)
            self.ledger.charge_compute(cost.row_read_energy(self.cols))
            return
        if op == "WRITE":
            tiles = self._target_tiles(instr.tile)
            for tile in tiles:
                tile.write_row(instr.row, buffer)
            self.ledger.charge_compute(cost.row_write_energy(self.cols) * len(tiles))
            return
        value = op == "PRESET1"
        n_columns = 0
        for tile in self._target_tiles(instr.tile):
            n_columns += tile.preset_row(instr.row, value)
        self.ledger.charge_compute(cost.preset_energy(max(n_columns, 1)))

    # -- host-side data access (mirrors Mouse.write_value/read_value) ---

    def write_value(
        self, tile: int, row: int, col: int, bits: int, value: int, sample: int
    ) -> None:
        if value < 0 or value >= 1 << bits:
            raise ValueError(f"value {value} does not fit in {bits} bits")
        t = self.tile(tile)
        for b in range(bits):
            t.set_bit(sample, row + 2 * b, col, (value >> b) & 1)

    def read_value(
        self, tile: int, row: int, col: int, bits: int, sample: int
    ) -> int:
        t = self.tile(tile)
        out = 0
        for b in range(bits):
            out |= t.get_bit(sample, row + 2 * b, col) << b
        return out


__all__ = [
    "BatchedLedger",
    "BatchedMouse",
    "BatchedTile",
    "BatchedUnsupported",
]
