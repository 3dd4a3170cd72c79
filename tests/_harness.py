"""Shared harness: run compiler emissions bit-exactly on the machine.

Each active column is one test vector (the SIMD dimension), so a single
program execution checks many operand combinations at once.  Also
builds the small polynomial-SVM kernel machine and the tiny-window
harvester the telemetry and profiler tests run under outages.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compile import arith
from repro.compile.builder import Bit, ProgramBuilder, Word
from repro.compile.dot import emit_dot_product
from repro.core.accelerator import Mouse
from repro.devices.parameters import DeviceParameters, MODERN_STT
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import HarvestingConfig
from repro.harvest.source import ConstantPowerSource


class ColumnHarness:
    """Builds a program over vertical operands and runs it per-column."""

    def __init__(
        self,
        n_columns: int,
        rows: int = 1024,
        reserved_rows: int = 64,
        tech: DeviceParameters = MODERN_STT,
    ) -> None:
        self.tech = tech
        self.rows = rows
        self.cols = n_columns
        self.builder = ProgramBuilder(
            tile=0, rows=rows, cols=n_columns, reserved_rows=reserved_rows
        )
        self.builder.activate_range(0, n_columns - 1)
        self._next_reserved = 0
        self._inputs: list[tuple[Word, Sequence[int]]] = []

    def input_word(self, n_bits: int, values: Sequence[int]) -> Word:
        """Reserve rows for an n-bit operand; ``values[c]`` goes to
        column c (little-endian, two's-complement-wrapped)."""
        if len(values) != self.cols:
            raise ValueError("one value per column required")
        rows = []
        for _ in range(n_bits):
            if self._next_reserved + 2 > 64:
                raise MemoryError("out of reserved input rows")
            rows.append(self._next_reserved)
            self._next_reserved += 2
        word = self.builder.word_at(rows)
        self._inputs.append((word, values))
        return word

    def input_bit(self, values: Sequence[int]) -> Bit:
        return self.input_word(1, values)[0]

    def run(self) -> Mouse:
        program = self.builder.finish()
        mouse = Mouse(self.tech, rows=self.rows, cols=self.cols)
        for word, values in self._inputs:
            for col, value in enumerate(values):
                masked = value & ((1 << len(word)) - 1)
                for index, bit in enumerate(word):
                    mouse.tile(0).set_bit(bit.row, col, (masked >> index) & 1)
        mouse.load(program)
        mouse.run(max_instructions=20_000_000)
        return mouse

    @staticmethod
    def read_word(mouse: Mouse, word: Word, column: int, signed: bool = False) -> int:
        value = 0
        for index, bit in enumerate(word):
            value |= mouse.tile(0).get_bit(bit.row, column) << index
        if signed and value >= 1 << (len(word) - 1):
            value -= 1 << len(word)
        return value

    @staticmethod
    def read_bit(mouse: Mouse, bit: Bit, column: int) -> int:
        return mouse.tile(0).get_bit(bit.row, column)


def build_kernel_machine(bits: int = 3):
    """Compile ``(x . sv + offset)^2`` for small fixed inputs.

    Returns the loaded machine, the result word and the Python
    reference value.
    """
    rng = np.random.default_rng(0)
    x = rng.integers(1, 1 << bits, size=2)
    sv = rng.integers(1, 1 << bits, size=2)
    offset = 2

    builder = ProgramBuilder(tile=0, rows=2048, cols=1, reserved_rows=64)
    builder.activate((0,))
    rows = iter(range(0, 64, 2))
    xs = [builder.word_at([next(rows) for _ in range(bits)]) for _ in x]
    ws = [builder.word_at([next(rows) for _ in range(bits)]) for _ in sv]
    off = builder.word_at([next(rows) for _ in range(2)])
    dot = emit_dot_product(builder, xs, ws)
    shifted = arith.ripple_add(builder, dot, off)
    kernel = arith.square(builder, shifted)
    program = builder.finish()

    machine = Mouse(MODERN_STT, rows=2048, cols=1)
    for word, value in zip(xs + ws + [off], list(x) + list(sv) + [offset]):
        for i, bit in enumerate(word):
            machine.tile(0).set_bit(bit.row, 0, (int(value) >> i) & 1)
    machine.load(program)
    expected = (int(np.dot(x, sv)) + offset) ** 2
    return machine, kernel, expected


def harvesting_config() -> HarvestingConfig:
    """A window barely bigger than the costliest instruction: plenty of
    outages in a short program, exercising every power-event path."""
    return HarvestingConfig(
        source=ConstantPowerSource(2e-9),
        buffer=EnergyBuffer(capacitance=100e-6, v_off=0.00030, v_on=0.00034),
    )
