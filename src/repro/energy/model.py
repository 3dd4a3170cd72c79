"""Per-instruction energy and latency cost model.

The controller waits a fixed, conservative interval per instruction —
long enough for the slowest instruction — so every instruction takes
exactly one *cycle* (Section IV-B): 33 ns at 30.3 MHz for modern MTJs,
11 ns at 90.9 MHz for projected ones.

Energy per instruction = array energy (from the electrical gate model,
scaled by active-column count) + peripheral share + the per-address
decoder costs.  The same model instance serves both the cycle-accurate
functional simulator (which passes in *measured* array energy) and the
aggregate workload profiles (which use input-averaged gate energy).

Each model carries one memo, :attr:`InstructionCostModel.prices`, of
its fixed energies and of its column-count-keyed ones, every value the
model's own method's result computed once (see :class:`CostMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.devices.parameters import DeviceParameters
from repro.energy.peripheral import PeripheralModel
from repro.logic.gates import GateSpec, mean_gate_energy, read_energy, write_energy
from repro.logic.library import gate_by_name


@dataclass(frozen=True)
class InstructionCostModel:
    """Energy/latency of each instruction kind for one technology."""

    params: DeviceParameters
    peripheral: PeripheralModel = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.peripheral is None:
            object.__setattr__(self, "peripheral", PeripheralModel(self.params))

    @cached_property
    def prices(self) -> "CostMemo":
        """This model's energy memo (built on first read; not a field,
        so equality, hashing and ``repr`` see only the parameters)."""
        return CostMemo(self)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    @property
    def cycle_time(self) -> float:
        """Seconds per instruction (fixed, conservative issue interval)."""
        return self.params.cycle_time

    # ------------------------------------------------------------------
    # Instruction energies (averaged over data; joules)
    # ------------------------------------------------------------------

    def logic_energy(self, gate: str | GateSpec, n_columns: int) -> float:
        """One logic instruction across ``n_columns`` active columns."""
        spec = gate_by_name(gate) if isinstance(gate, str) else gate
        array = mean_gate_energy(self.params, spec) * n_columns
        n_addresses = spec.n_inputs + 1
        return self.peripheral.with_array_energy(array, n_addresses)

    def logic_energy_measured(self, array_energy: float, n_addresses: int) -> float:
        """Total energy given array energy measured by the tile simulator."""
        return self.peripheral.with_array_energy(array_energy, n_addresses)

    def preset_energy(self, n_columns: int) -> float:
        """PRESET0/PRESET1: one cell write per active column."""
        array = write_energy(self.params) * n_columns
        return self.peripheral.with_array_energy(array, n_addresses=1)

    def row_read_energy(self, n_columns: int) -> float:
        """READ: sense a full row into the controller buffer."""
        array = read_energy(self.params) * n_columns
        total = self.peripheral.with_array_energy(array, n_addresses=1)
        return total + self.peripheral.buffer_transfer_energy(n_columns)

    def row_write_energy(self, n_columns: int) -> float:
        """WRITE: drive the buffer into a full row."""
        array = write_energy(self.params) * n_columns
        return self.peripheral.with_array_energy(array, n_addresses=1)

    def activate_energy(self, n_columns: int) -> float:
        """Activate Columns: decoder + latch, plus the non-volatile copy
        of the instruction into its register (part of Backup, reported
        separately by :meth:`activate_backup_energy`)."""
        return self.peripheral.activate_issue_energy(n_columns)

    def fetch_energy(self) -> float:
        """Per-instruction fetch from the instruction tiles."""
        return self.peripheral.instruction_fetch_energy()

    # ------------------------------------------------------------------
    # Intermittency overheads
    # ------------------------------------------------------------------

    def backup_energy(self) -> float:
        """Per-instruction checkpoint: PC write + parity-bit flip."""
        return self.peripheral.pc_checkpoint_energy()

    def activate_backup_energy(self) -> float:
        """Extra backup on Activate Columns: the duplicated register."""
        return self.peripheral.activate_register_energy()

    def restore_energy(self, n_columns: int) -> float:
        """Re-issue of the saved Activate Columns on restart."""
        return self.peripheral.restore_energy(n_columns)

    def restore_latency(self) -> float:
        """Restart re-activation takes one instruction cycle."""
        return self.cycle_time

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def instruction_power(self, gate: str, n_columns: int) -> float:
        """Average power draw while streaming one logic gate per cycle,
        used for the paper's power-budget parallelism arguments
        (Section IV-C: a 60 uW budget allows ~4 columns on Modern STT)."""
        per_cycle = (
            self.logic_energy(gate, n_columns)
            + self.fetch_energy()
            + self.backup_energy()
        )
        return per_cycle / self.cycle_time


class _ByColumns(dict):
    """``n_columns -> method(n_columns)``, each value computed on its
    first lookup."""

    __slots__ = ("_method",)

    def __init__(self, method: Callable[[int], float]) -> None:
        super().__init__()
        self._method = method

    def __missing__(self, n_columns: int) -> float:
        value = self[n_columns] = self._method(n_columns)
        return value


class CostMemo:
    """The energies of one :class:`InstructionCostModel`, each computed
    once by the model's own method, so a reader gets the same float the
    method returns.

    ``fetch``, ``backup`` and ``activate_backup`` are the fixed
    energies; ``preset``, ``row_read``, ``row_write``, ``activate`` and
    ``restore`` map a column count to the method's result at that
    count (``memo.row_write[cols] == model.row_write_energy(cols)``).

    The static cost pass, :func:`repro.harden.overhead_summary`,
    :class:`repro.compilejit.plan.CompiledPlan`,
    :class:`repro.harvest.intermittent.ProfileRun` and the restore
    charge of :meth:`repro.core.controller.MemoryController.power_on`
    read it; the other interpreter-side charge sites call the methods
    (see ``docs/PERFORMANCE.md``).
    """

    __slots__ = (
        "fetch",
        "backup",
        "activate_backup",
        "preset",
        "row_read",
        "row_write",
        "activate",
        "restore",
    )

    def __init__(self, cost: InstructionCostModel) -> None:
        self.fetch = cost.fetch_energy()
        self.backup = cost.backup_energy()
        self.activate_backup = cost.activate_backup_energy()
        self.preset = _ByColumns(cost.preset_energy)
        self.row_read = _ByColumns(cost.row_read_energy)
        self.row_write = _ByColumns(cost.row_write_energy)
        self.activate = _ByColumns(cost.activate_energy)
        self.restore = _ByColumns(cost.restore_energy)
