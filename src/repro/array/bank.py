"""The multi-tile MOUSE bank: instruction tiles, data tiles, sensor buffer.

MOUSE is a tiled architecture (Figure 5).  A subset of tiles hold the
program (written before deployment); the rest hold data and perform all
computation.  The memory controller fetches 64-bit instruction words
from the instruction tiles and broadcasts commands to the data tiles.
The bank also exposes the sensor's non-volatile input buffer, which is
"assigned a tile address and treated as one of the tiles"
(Section IV-E).
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.array.tile import TILE_COLS, TILE_ROWS, Tile
from repro.devices.parameters import DeviceParameters

INSTRUCTION_BITS = 64
#: Tile-address value that broadcasts an operation to every data tile
#: (tile addresses are 9 bits; 511 is reserved).
BROADCAST_TILE = 511
#: Tile-address value assigned to the sensor's input buffer.
SENSOR_TILE = 510


@dataclass
class SensorBuffer:
    """Non-volatile input staging buffer inside the sensor (Section IV-E).

    Holds one input sample as rows of bits plus a non-volatile *valid*
    bit.  The valid bit stays zero while the sensor is (re)filling the
    buffer, so MOUSE can detect input corrupted by an outage and restart
    the transfer.
    """

    rows: int = 64
    cols: int = TILE_COLS
    valid: bool = False
    data: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.data is None:
            self.data = np.zeros((self.rows, self.cols), dtype=bool)

    def fill(self, bits: np.ndarray) -> None:
        """Sensor-side: deposit a new sample and raise the valid bit."""
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[1] != self.cols or bits.shape[0] > self.rows:
            raise ValueError(f"sample shape {bits.shape} does not fit buffer")
        self.valid = False  # invalid while the transfer is in flight
        self.data[: bits.shape[0]] = bits
        self.valid = True

    def invalidate(self) -> None:
        self.valid = False

    def read_row(self, row: int) -> np.ndarray:
        if not 0 <= row < self.rows:
            raise IndexError(f"sensor row {row} out of range")
        return self.data[row].copy()


class Bank:
    """All MOUSE tiles plus the sensor buffer, behind tile addressing.

    Parameters
    ----------
    params:
        Device technology point, shared by every tile.
    n_data_tiles:
        Number of data/compute tiles.
    n_instruction_tiles:
        Number of tiles dedicated to the program (instruction and data
        tiles are homogeneous in design, Section IV-B).
    rows, cols:
        Tile geometry (default 1024x1024 = 128 KB per tile).
    """

    def __init__(
        self,
        params: DeviceParameters,
        n_data_tiles: int = 1,
        n_instruction_tiles: int = 1,
        rows: int = TILE_ROWS,
        cols: int = TILE_COLS,
    ) -> None:
        if n_data_tiles < 1 or n_instruction_tiles < 1:
            raise ValueError("need at least one data and one instruction tile")
        total = n_data_tiles + n_instruction_tiles
        if total > SENSOR_TILE:
            raise ValueError(f"at most {SENSOR_TILE} tiles are addressable")
        self.params = params
        self.rows = rows
        self.cols = cols
        self.n_instruction_tiles = n_instruction_tiles
        # Instruction tiles must hold whole 64-bit words; when tests use
        # narrow data tiles, instruction tiles keep the paper's full
        # 1024-bit width so even small banks fit realistic programs.
        icols = max(cols, TILE_COLS)
        icols -= icols % INSTRUCTION_BITS
        self._icols = icols
        self.instruction_tiles = [
            Tile(params, rows, icols) for _ in range(n_instruction_tiles)
        ]
        self.data_tiles = [Tile(params, rows, cols) for _ in range(n_data_tiles)]
        self.sensor = SensorBuffer(cols=cols)
        self._instr_per_row = icols // INSTRUCTION_BITS
        self._program_length = 0

    # ------------------------------------------------------------------
    # Tile addressing
    # ------------------------------------------------------------------

    def data_tile(self, address: int) -> Tile:
        """Resolve a data-tile address (0-based over the data tiles)."""
        if not 0 <= address < len(self.data_tiles):
            raise IndexError(
                f"data tile {address} out of range 0..{len(self.data_tiles) - 1}"
            )
        return self.data_tiles[address]

    def target_tiles(self, address: int) -> list[Tile]:
        """Tiles an instruction with tile-address ``address`` acts on."""
        if address == BROADCAST_TILE:
            return list(self.data_tiles)
        return [self.data_tile(address)]

    # ------------------------------------------------------------------
    # Program storage
    # ------------------------------------------------------------------

    @property
    def instruction_capacity(self) -> int:
        return self.n_instruction_tiles * self.rows * self._instr_per_row

    @property
    def program_length(self) -> int:
        return self._program_length

    def load_program(self, words: Sequence[int]) -> None:
        """Write encoded 64-bit instruction words into the instruction
        tiles (done once, before deployment).

        Bit ``b`` of word ``i`` lands at ``state[row, slot * 64 + b]`` of
        the tile, row and slot :meth:`_locate` gives ``i``; cells past
        the last word keep their previous contents.  Every word must be
        an integer in ``0 .. 2**64 - 1``: others raise ``TypeError`` or
        ``ValueError`` naming the first offending index.
        """
        if len(words) > self.instruction_capacity:
            raise ValueError(
                f"program of {len(words)} instructions exceeds capacity "
                f"{self.instruction_capacity}"
            )
        try:
            # array("Q") converts through __index__ only, so floats and
            # strings are rejected rather than coerced.
            vector = np.frombuffer(array("Q", words), dtype=np.uint64)
        except (TypeError, OverflowError):
            for index, word in enumerate(words):
                try:
                    value = operator.index(word)
                except TypeError:
                    raise TypeError(
                        f"instruction {index} is not an integer word: {word!r}"
                    ) from None
                if not 0 <= value < 2**INSTRUCTION_BITS:
                    raise ValueError(
                        f"instruction {index} is not a 64-bit word"
                    ) from None
            raise
        bits = np.unpackbits(
            vector.astype("<u8", copy=False).view(np.uint8), bitorder="little"
        ).view(bool)
        # Word i's bits follow word i-1's in row-major tile order, so each
        # tile takes one contiguous run of the bit vector.
        tile_bits = self.rows * self._icols
        for tile, start in zip(self.instruction_tiles, range(0, bits.size, tile_bits)):
            chunk = bits[start : start + tile_bits]
            full, tail = divmod(chunk.size, self._icols)
            tile.state[:full] = chunk[: full * self._icols].reshape(full, self._icols)
            if tail:
                tile.state[full, :tail] = chunk[full * self._icols :]
        self._program_length = len(words)

    def fetch_word(self, index: int) -> int:
        """Read the 64-bit instruction word at program index ``index``."""
        if not 0 <= index < self._program_length:
            raise IndexError(
                f"PC {index} outside loaded program of {self._program_length}"
            )
        tile, row, slot = self._locate(index)
        lo = slot * INSTRUCTION_BITS
        bits = self.instruction_tiles[tile].state[row, lo : lo + INSTRUCTION_BITS]
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def _locate(self, index: int) -> tuple[int, int, int]:
        per_tile = self.rows * self._instr_per_row
        tile = index // per_tile
        within = index % per_tile
        return tile, within // self._instr_per_row, within % self._instr_per_row

    # ------------------------------------------------------------------
    # Power events
    # ------------------------------------------------------------------

    def power_off(self) -> None:
        """Drop everything volatile: the column-activation latches.

        Array contents (MTJ states) are non-volatile and survive.
        """
        for tile in self.data_tiles + self.instruction_tiles:
            tile.deactivate_all()

    def snapshot(self) -> list[np.ndarray]:
        """Copies of every data tile's state, for equivalence checks."""
        return [t.snapshot() for t in self.data_tiles]

    @property
    def capacity_bytes(self) -> int:
        n = len(self.data_tiles) + self.n_instruction_tiles
        return n * self.rows * self.cols // 8
