"""Program container: validation, encoding, statistics."""

import pytest

from repro.core.program import Program
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    HaltInstruction,
    LogicInstruction,
    MemoryInstruction,
    decode,
    encode,
)


def demo_program() -> Program:
    return Program(
        [
            ActivateColumnsInstruction(0, (0, 1)),
            MemoryInstruction("PRESET0", 0, 1),
            LogicInstruction("NAND", 0, (0, 2), 1),
            HaltInstruction(),
        ],
        name="demo",
    )


class TestBasics:
    def test_len_iter_getitem(self):
        p = demo_program()
        assert len(p) == 4
        assert list(p)[0] == p[0]

    def test_ensure_halt_appends_once(self):
        p = Program([MemoryInstruction("READ", 0, 0)])
        p.ensure_halt()
        p.ensure_halt()
        assert len(p) == 2
        assert p.halts

    def test_words_round_trip(self):
        p = demo_program()
        assert [decode(w) for w in p.words()] == p.instructions

    def test_counts(self):
        counts = demo_program().counts()
        assert counts == {
            "logic": 1,
            "memory": 0,
            "preset": 1,
            "activate": 1,
            "halt": 1,
        }


class TestValidation:
    def test_valid_program_passes(self):
        demo_program().validate(n_data_tiles=1, rows=16, cols=8)

    def test_missing_halt(self):
        p = Program([MemoryInstruction("READ", 0, 0)])
        with pytest.raises(ValueError, match="HALT"):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_tile_out_of_range(self):
        p = Program([MemoryInstruction("READ", 3, 0)]).ensure_halt()
        with pytest.raises(ValueError, match="instruction 0"):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_row_out_of_range(self):
        p = Program([LogicInstruction("NAND", 0, (0, 2), 17)]).ensure_halt()
        with pytest.raises(ValueError):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_parity_violation_caught_statically(self):
        p = Program([LogicInstruction("NAND", 0, (0, 3), 2)]).ensure_halt()
        with pytest.raises(ValueError, match="parity"):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_column_out_of_range(self):
        p = Program([ActivateColumnsInstruction(0, (9,))]).ensure_halt()
        with pytest.raises(ValueError):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_broadcast_read_rejected(self):
        from repro.array.bank import BROADCAST_TILE

        p = Program([MemoryInstruction("READ", BROADCAST_TILE, 0)]).ensure_halt()
        with pytest.raises(ValueError, match="broadcast"):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_sensor_read_allowed(self):
        from repro.array.bank import SENSOR_TILE

        p = Program([MemoryInstruction("READ", SENSOR_TILE, 0)]).ensure_halt()
        p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_sensor_write_rejected(self):
        from repro.array.bank import SENSOR_TILE

        p = Program([MemoryInstruction("WRITE", SENSOR_TILE, 0)]).ensure_halt()
        with pytest.raises(ValueError):
            p.validate(n_data_tiles=1, rows=16, cols=8)


class TestLoadMemo:
    """A program is encoded and validated once per geometry; adding
    instructions through append/extend drops the memo."""

    def test_second_load_does_not_encode_or_validate(self, monkeypatch):
        import repro.core.program as program_module
        from repro.core.accelerator import Mouse
        from repro.devices.parameters import MODERN_STT

        calls = {"encode": 0, "validate_one": 0}
        real_encode = program_module.encode
        real_validate_one = Program._validate_one

        def counting_encode(instr):
            calls["encode"] += 1
            return real_encode(instr)

        def counting_validate_one(*args):
            calls["validate_one"] += 1
            return real_validate_one(*args)

        monkeypatch.setattr(program_module, "encode", counting_encode)
        monkeypatch.setattr(
            Program, "_validate_one", staticmethod(counting_validate_one)
        )
        p = demo_program()
        first = Mouse(MODERN_STT, rows=16, cols=8)
        first.load(p)
        assert calls == {"encode": 4, "validate_one": 4}
        calls.update(encode=0, validate_one=0)
        second = Mouse(MODERN_STT, rows=16, cols=8)
        second.load(p)
        assert calls == {"encode": 0, "validate_one": 0}
        assert [second.bank.fetch_word(pc) for pc in range(4)] == p.words()

    def test_append_after_words_is_seen(self):
        p = Program([MemoryInstruction("READ", 0, 0)])
        before = p.words()
        p.ensure_halt()
        assert p.words() == before + [encode(HaltInstruction())]
        p.extend([MemoryInstruction("WRITE", 0, 1)])
        assert p.words() == [encode(i) for i in p]

    def test_append_after_validate_is_checked(self):
        p = demo_program()
        p.validate(n_data_tiles=1, rows=16, cols=8)
        p.append(MemoryInstruction("READ", 3, 0))
        with pytest.raises(ValueError, match="instruction 4"):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_append_drops_compiled_plans(self):
        from repro.core.accelerator import Mouse
        from repro.devices.parameters import MODERN_STT

        p = demo_program()
        mouse = Mouse(MODERN_STT, rows=16, cols=8)
        mouse.load(p)
        mouse.run()
        assert vars(p).get("_cjit_plans")
        p.append(HaltInstruction())
        assert "_cjit_plans" not in vars(p)

    def test_words_returns_a_copy(self):
        p = demo_program()
        words = p.words()
        words[0] = 0
        words.append(1)
        assert p.words() == [encode(i) for i in p]

    def test_accepted_geometry_does_not_cover_smaller_banks(self):
        p = Program([LogicInstruction("NAND", 0, (0, 2), 17)]).ensure_halt()
        p.validate(n_data_tiles=1, rows=1024, cols=8)
        p.validate(n_data_tiles=1, rows=1024, cols=8)
        with pytest.raises(ValueError, match="row 17 out of range"):
            p.validate(n_data_tiles=1, rows=16, cols=8)

    def test_hardened_words_match_fresh_encoding(self):
        from repro.compile.builder import ProgramBuilder
        from repro.harden import HardenPolicy, harden_program
        from repro.lint import LintConfig

        b = ProgramBuilder(tile=0, rows=128, cols=4, reserved_rows=8)
        b.activate_range(0, 3)
        word = b.word_at([0, 2])
        b.gate("NOT", b.gate("NAND", word.bits[0], word.bits[1]))
        program = b.finish()
        hardened = harden_program(
            program,
            {"NAND": 0.05, "NOT": 0.02, "MIN3": 0.01},
            LintConfig(n_data_tiles=1, rows=128, cols=4),
            HardenPolicy(level=1.0, tmr_share=1.0),
        )
        # The TMR rewrite patches an earlier preset's polarity.
        assert hardened.harden_meta["tmr_groups"]
        assert hardened.words() == [encode(i) for i in hardened]
        assert len(hardened.scope_ids) == len(hardened)
