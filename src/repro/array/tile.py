"""One MOUSE tile: a 1024x1024 CRAM array with column-parallel logic.

The tile is the unit of storage and compute.  Its simulator is
vectorised over columns with NumPy but is electrically faithful: for
every active column the actual resistor network (input cells in
parallel, output cell in series) is solved against the designed gate
voltage, and the output switches only if the resulting current clears
the device's critical current *and* the switch direction allows it.
The threshold never disagrees with the ideal truth table — that is the
point of the gate design — but computing it electrically means tests
can perturb device parameters and watch gates fail for physical
reasons.

Interruption semantics: a logic operation may be executed *partially*
(`switch_mask`), modelling a power cut mid-pulse where some columns'
output MTJs had already accumulated enough fluence to switch and others
had not (paper Table I).  Re-performing the operation always converges
to the uninterrupted result because switching is unidirectional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.devices.parameters import DeviceParameters
from repro.logic.gates import GateSpec, write_energy
from repro.array.lines import check_logic_rows
from repro.perf.kernels import electrical_kernel

TILE_ROWS = 1024
TILE_COLS = 1024
ROW_BYTES = TILE_COLS // 8  # 128 B — the controller buffer size


@lru_cache(maxsize=16384)
def _validate_logic_rows(
    rows: tuple, output_row: int, n_inputs: int, gate_name: str, tile_rows: int
) -> None:
    """Arity/range/parity checks for one gate placement.

    Memoised on the full argument tuple: a program replays the same few
    placements millions of times, and only successful validations are
    cached (lru_cache does not cache raised exceptions).
    """
    if len(rows) != n_inputs:
        raise ValueError(
            f"{gate_name} takes {n_inputs} input rows, got {len(rows)}"
        )
    for r in rows + (output_row,):
        if not 0 <= r < tile_rows:
            raise IndexError(f"row {r} out of range 0..{tile_rows - 1}")
    check_logic_rows(rows, output_row)


@dataclass(frozen=True)
class OpResult:
    """Outcome of one tile-level operation, for the energy ledger."""

    energy: float  # joules consumed in this tile
    n_columns: int  # columns the operation touched
    switched: int  # output cells that changed state


class Tile:
    """A single CRAM tile.

    Parameters
    ----------
    params:
        Device technology point (resistances, thresholds, cell kind).
    rows, cols:
        Array geometry; defaults to the paper's 1024x1024 (128 KB).
    """

    def __init__(
        self,
        params: DeviceParameters,
        rows: int = TILE_ROWS,
        cols: int = TILE_COLS,
    ) -> None:
        if rows < 2 or cols < 1:
            raise ValueError("tile needs at least 2 rows and 1 column")
        self.params = params
        self.rows = rows
        self.cols = cols
        self.state = np.zeros((rows, cols), dtype=bool)
        # Column-activation latch (Section IV-B): set by Activate Columns,
        # held across instructions, non-volatile *only* via the
        # controller's duplicated Activate-Columns register — the latch
        # itself is peripheral circuitry and is lost on power-off.
        self.active_columns = np.zeros(cols, dtype=bool)
        # Incrementally tracked views of the latch, refreshed only when
        # the activation set changes (activate/deactivate), so the logic
        # hot path never re-scans the mask per operation.
        self._active_idx = np.empty(0, dtype=np.intp)
        self._n_active = 0

    # ------------------------------------------------------------------
    # Column activation
    # ------------------------------------------------------------------

    def activate_columns(self, columns: Sequence[int]) -> OpResult:
        """Latch a new set of active columns (replaces the previous set)."""
        cols = list(columns)
        for c in cols:
            if not 0 <= c < self.cols:
                raise IndexError(f"column {c} out of range 0..{self.cols - 1}")
        self.active_columns[:] = False
        self.active_columns[cols] = True
        self._refresh_active_index()
        # Peripheral-only action: decoder + latch energy, charged by the
        # controller's energy model; the tile reports zero array energy.
        return OpResult(energy=0.0, n_columns=len(set(cols)), switched=0)

    def activate_column_range(self, first: int, last: int) -> OpResult:
        """Bulk activation of an inclusive column range (Section IV-B)."""
        if not 0 <= first <= last < self.cols:
            raise IndexError(f"bad column range {first}..{last}")
        self.active_columns[:] = False
        self.active_columns[first : last + 1] = True
        self._active_idx = np.arange(first, last + 1, dtype=np.intp)
        self._n_active = last - first + 1
        return OpResult(energy=0.0, n_columns=last - first + 1, switched=0)

    def deactivate_all(self) -> None:
        """Power-off: the volatile peripheral latch clears."""
        self.active_columns[:] = False
        self._active_idx = np.empty(0, dtype=np.intp)
        self._n_active = 0

    def _refresh_active_index(self) -> None:
        self._active_idx = np.flatnonzero(self.active_columns)
        self._n_active = len(self._active_idx)

    @property
    def n_active(self) -> int:
        return self._n_active

    @property
    def active_idx(self) -> np.ndarray:
        """Sorted indices of the active columns (do not mutate)."""
        return self._active_idx

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def read_row(self, row: int) -> np.ndarray:
        """Read a full row into the (controller's) buffer. Non-destructive."""
        self._check_row(row)
        return self.state[row].copy()

    def write_row(self, row: int, values: np.ndarray) -> OpResult:
        """Write a full row from the buffer."""
        self._check_row(row)
        values = np.asarray(values, dtype=bool)
        if values.shape != (self.cols,):
            raise ValueError(f"row write needs {self.cols} bits, got {values.shape}")
        self.state[row] = values
        return OpResult(
            energy=write_energy(self.params) * self.cols,
            n_columns=self.cols,
            switched=self.cols,
        )

    def preset_row(self, row: int, value: bool) -> OpResult:
        """Write ``value`` into ``row`` in the *active* columns only.

        This is the gate-output preset step (paper Figure 8 discussion:
        presets "consist only of write instructions").
        """
        self._check_row(row)
        n = self._n_active
        self.state[row, self._active_idx] = value
        return OpResult(
            energy=write_energy(self.params) * n, n_columns=n, switched=n
        )

    def get_bit(self, row: int, col: int) -> int:
        self._check_row(row)
        return int(self.state[row, col])

    def set_bit(self, row: int, col: int, value: int) -> None:
        """Test/setup convenience; not reachable through the ISA."""
        self._check_row(row)
        self.state[row, col] = bool(value)

    def flip_bit(self, row: int, col: int) -> None:
        """Invert one cell in place — a transient disturb (read disturb,
        thermal upset), for fault injection.  Unlike a gate operation it
        ignores active columns and switch direction: external upsets are
        not bound by the unidirectional-switching discipline."""
        self._check_row(row)
        if not 0 <= col < self.cols:
            raise IndexError(f"column {col} out of range 0..{self.cols - 1}")
        self.state[row, col] = not self.state[row, col]

    # ------------------------------------------------------------------
    # Logic operations
    # ------------------------------------------------------------------

    def logic_op(
        self,
        spec: GateSpec,
        input_rows: Sequence[int],
        output_row: int,
        switch_mask: Optional[np.ndarray] = None,
    ) -> OpResult:
        """Execute one gate in every active column.

        Parameters
        ----------
        spec:
            Gate from the library (fixes preset, direction, threshold).
        input_rows:
            2 or 3 input rows, all one parity.
        output_row:
            Output row, opposite parity.  Must have been preset.
        switch_mask:
            Optional boolean per-column mask modelling an interrupted
            pulse: only columns where the mask is True complete their
            switching.  ``None`` (default) = uninterrupted operation.

        Returns
        -------
        OpResult
            Energy across active columns and the number of outputs that
            switched.
        """
        rows = tuple(input_rows)
        _validate_logic_rows(rows, output_row, spec.n_inputs, spec.name, self.rows)

        active_idx = self._active_idx
        if self._n_active == 0:
            return OpResult(energy=0.0, n_columns=0, switched=0)

        # Electrical solve: the per-n_ones tables (resistance ladder,
        # currents, switch thresholds, energies) are frozen per
        # (params, spec) in repro.perf.kernels; gathering them by n_ones
        # is bit-identical to rebuilding them here.
        kern = electrical_kernel(self.params, spec)

        all_active = self._n_active == self.cols
        if all_active:
            # Row views + uint8 addition: no column gather at all.
            v = self.state.view(np.uint8)
            acc = v[rows[0]].copy() if len(rows) == 1 else v[rows[0]] + v[rows[1]]
            for r in rows[2:]:
                acc += v[r]
            n_ones = acc.astype(np.intp)  # table gathers are fastest by intp
        else:
            inputs = self.state[np.ix_(rows, active_idx)]  # (n_inputs, n_active)
            n_ones = inputs.sum(axis=0)  # per active column

        will_switch = kern.will_switch.take(n_ones)

        if switch_mask is not None:
            switch_mask = np.asarray(switch_mask, dtype=bool)
            if switch_mask.shape != (self.cols,):
                raise ValueError("switch_mask must cover every column")
            will_switch &= switch_mask if all_active else switch_mask[active_idx]

        target = kern.target
        out = self.state[output_row]
        # Unidirectional switching: cells already at the target state
        # stay there; cells at the preset move to the target.  A cell at
        # the target can never be moved back by this current direction.
        # Only cells that actually change are written, which skips the
        # store entirely once an output row has saturated at the target.
        changed = will_switch & (
            (out != target) if all_active else (out[active_idx] != target)
        )
        switched = int(np.count_nonzero(changed))
        if switched:
            if all_active:
                out[changed] = target
            else:
                out[active_idx[changed]] = target

        energy = kern.energy.take(n_ones).sum()
        return OpResult(
            energy=float(energy), n_columns=self._n_active, switched=switched
        )

    # ------------------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")

    def snapshot(self) -> np.ndarray:
        """Copy of the full non-volatile array state."""
        return self.state.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tile({self.params.name}, {self.rows}x{self.cols}, "
            f"{self.n_active} active cols)"
        )
