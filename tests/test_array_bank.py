"""Bank: tile addressing, program storage, sensor buffer, power events."""

import numpy as np
import pytest

from repro.array.bank import BROADCAST_TILE, SENSOR_TILE, Bank, SensorBuffer
from repro.devices.parameters import MODERN_STT
from repro.isa.instruction import HaltInstruction, LogicInstruction, encode


def make_bank(n_data=2, rows=16, cols=8) -> Bank:
    return Bank(MODERN_STT, n_data_tiles=n_data, rows=rows, cols=cols)


class TestAddressing:
    def test_data_tile_lookup(self):
        bank = make_bank()
        assert bank.data_tile(0) is bank.data_tiles[0]
        with pytest.raises(IndexError):
            bank.data_tile(2)

    def test_broadcast_targets_all_data_tiles(self):
        bank = make_bank()
        assert bank.target_tiles(BROADCAST_TILE) == bank.data_tiles

    def test_single_target(self):
        bank = make_bank()
        assert bank.target_tiles(1) == [bank.data_tiles[1]]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Bank(MODERN_STT, n_data_tiles=0)
        with pytest.raises(ValueError):
            Bank(MODERN_STT, n_data_tiles=SENSOR_TILE, n_instruction_tiles=1)


class TestProgramStorage:
    def test_load_and_fetch_round_trip(self):
        bank = make_bank()
        words = [
            encode(LogicInstruction("NAND", 0, (0, 2), 1)),
            encode(HaltInstruction()),
        ]
        bank.load_program(words)
        assert bank.program_length == 2
        assert [bank.fetch_word(i) for i in range(2)] == words

    def test_many_instructions_cross_rows(self):
        bank = make_bank()
        words = [encode(LogicInstruction("NOT", 0, (i % 1024,), (i % 1024) ^ 1)) for i in range(40)]
        bank.load_program(words)
        assert [bank.fetch_word(i) for i in range(40)] == words

    def test_fetch_out_of_range(self):
        bank = make_bank()
        bank.load_program([encode(HaltInstruction())])
        with pytest.raises(IndexError):
            bank.fetch_word(1)

    def test_capacity_enforced(self):
        bank = Bank(MODERN_STT, n_data_tiles=1, rows=2, cols=8)
        too_many = [encode(HaltInstruction())] * (bank.instruction_capacity + 1)
        with pytest.raises(ValueError):
            bank.load_program(too_many)

    def test_non_word_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError):
            bank.load_program([2**64])

    def test_capacity_bytes(self):
        bank = make_bank(n_data=2, rows=16, cols=8)
        # 2 data tiles of 16x8 bits + 1 instruction tile of 16x1024.
        assert bank.capacity_bytes == 3 * 16 * 8 // 8


def scalar_load(bank: Bank, words) -> None:
    """Reference writer: one word at a time, one bit at a time."""
    for index, word in enumerate(words):
        tile, row, slot = bank._locate(index)
        for b in range(64):
            bank.instruction_tiles[tile].state[row, slot * 64 + b] = (word >> b) & 1


def instruction_image(bank: Bank) -> list[np.ndarray]:
    return [tile.state.copy() for tile in bank.instruction_tiles]


class TestInstructionImage:
    """The vectorised writer and reader keep the bit-per-cell layout."""

    def test_bit_layout_pinned_per_locate(self):
        bank = make_bank(rows=4)  # 16 words per row, 64 per tile
        rng = np.random.default_rng(7)
        words = [int(w) for w in rng.integers(0, 2**63, size=40)]
        words[17] = 0b1011
        bank.load_program(words)
        assert bank._locate(17) == (0, 1, 1)
        state = bank.instruction_tiles[0].state
        assert state[1, 64:68].tolist() == [True, True, False, True]
        assert not state[1, 68:128].any()
        for index, word in enumerate(words):
            tile, row, slot = bank._locate(index)
            cells = bank.instruction_tiles[tile].state[row, slot * 64 : slot * 64 + 64]
            assert cells.tolist() == [bool((word >> b) & 1) for b in range(64)]

    @pytest.mark.parametrize("missing", [0, 5], ids=["exact-capacity", "partial-row"])
    def test_high_words_round_trip_across_two_tiles(self, missing):
        def two_tile_bank() -> Bank:
            return Bank(MODERN_STT, n_data_tiles=1, n_instruction_tiles=2, rows=2)

        bank = two_tile_bank()
        assert bank.instruction_capacity == 64
        rng = np.random.default_rng(11 + missing)
        high = rng.integers(2**63, 2**64, size=64 - missing, dtype=np.uint64)
        words = [int(w) for w in high]
        words[0] = 2**64 - 1
        words[-1] = 2**63
        bank.load_program(words)
        assert bank.program_length == len(words)
        assert [bank.fetch_word(i) for i in range(len(words))] == words
        reference = two_tile_bank()
        scalar_load(reference, words)
        for got, want in zip(instruction_image(bank), instruction_image(reference)):
            assert np.array_equal(got, want)

    def test_numpy_integer_words_accepted(self):
        bank = make_bank()
        bank.load_program([np.uint64(2**64 - 1), np.int64(5), True])
        assert [bank.fetch_word(i) for i in range(3)] == [2**64 - 1, 5, 1]

    def test_shorter_reload_keeps_scalar_writer_tail(self):
        rng = np.random.default_rng(3)
        long = [int(w) for w in rng.integers(0, 2**64, size=50, dtype=np.uint64)]
        short = [int(w) for w in rng.integers(0, 2**64, size=21, dtype=np.uint64)]
        bank, reference = make_bank(rows=4), make_bank(rows=4)
        bank.load_program(long)
        bank.load_program(short)
        scalar_load(reference, long)
        scalar_load(reference, short)
        for got, want in zip(instruction_image(bank), instruction_image(reference)):
            assert np.array_equal(got, want)
        assert bank.program_length == 21
        with pytest.raises(IndexError):
            bank.fetch_word(21)

    @pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
    def test_out_of_range_word_names_its_index(self, bad):
        bank = make_bank()
        with pytest.raises(ValueError, match="instruction 2 is not a 64-bit word"):
            bank.load_program([0, 1, bad, 3])

    @pytest.mark.parametrize(
        "bad", [1.0, 2.5, np.float64(3.0), "5", None], ids=repr
    )
    def test_non_integer_word_is_a_type_error(self, bad):
        bank = make_bank()
        with pytest.raises(TypeError, match="instruction 1 "):
            bank.load_program([7, bad])
        assert not any(tile.state.any() for tile in bank.instruction_tiles)
        assert bank.program_length == 0


class TestSensorBuffer:
    def test_fill_sets_valid(self):
        sensor = SensorBuffer(rows=4, cols=8)
        assert not sensor.valid
        sensor.fill(np.ones((2, 8), dtype=bool))
        assert sensor.valid
        assert sensor.read_row(0).all()

    def test_invalidate(self):
        sensor = SensorBuffer(rows=4, cols=8)
        sensor.fill(np.ones((1, 8), dtype=bool))
        sensor.invalidate()
        assert not sensor.valid

    def test_shape_checked(self):
        sensor = SensorBuffer(rows=2, cols=8)
        with pytest.raises(ValueError):
            sensor.fill(np.ones((3, 8), dtype=bool))
        with pytest.raises(IndexError):
            sensor.read_row(5)


class TestPowerEvents:
    def test_power_off_clears_latches_keeps_data(self):
        bank = make_bank()
        bank.data_tiles[0].activate_columns([0, 1])
        bank.data_tiles[0].set_bit(0, 0, 1)
        bank.power_off()
        assert bank.data_tiles[0].n_active == 0
        assert bank.data_tiles[0].get_bit(0, 0) == 1

    def test_snapshot_copies(self):
        bank = make_bank()
        snaps = bank.snapshot()
        snaps[0][:] = True
        assert not bank.data_tiles[0].state.any()
