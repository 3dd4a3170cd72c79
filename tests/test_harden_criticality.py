"""Criticality analysis: masking, fan-out, scores, determinism."""

from repro.compile.builder import ProgramBuilder
from repro.harden import analyse, criticality
from repro.lint import LintConfig

CONFIG = LintConfig(n_data_tiles=1, rows=64, cols=4)


def builder(rows=64, cols=4):
    b = ProgramBuilder(tile=0, rows=rows, cols=cols, reserved_rows=8)
    b.activate_range(0, cols - 1)
    return b


class TestDataflow:
    def test_chain_fanout_and_consumers(self):
        b = builder()
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        g2 = b.gate("NOT", g1)
        g3 = b.gate("NOT", g2)
        program = b.finish()
        report = analyse(program, {"NAND": 0.1, "NOT": 0.1}, CONFIG)
        assert len(report.records) == 3
        r1, r2, r3 = report.records
        # g1 poisons g2 and transitively g3; g3 reaches nothing.
        assert r1.fanout == 2
        assert r2.fanout == 1
        assert r3.fanout == 0
        assert r2.index in r1.consumers
        assert r3.consumers == ()
        # g3's output survives in the final image: critical, not masked.
        assert not r3.masked
        assert not r1.masked  # consumed

    def test_dead_and_redefined_output_is_masked(self):
        b = builder()
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        b.release(g1)
        # Same parity demand: the allocator reuses g1's row, so the next
        # preset redefines it — g1's flip is architecturally invisible.
        g2 = b.gate("NAND", word.bits[0], word.bits[1])
        program = b.finish()
        report = analyse(program, {"NAND": 0.1}, CONFIG)
        by_pc = report.by_pc()
        r1 = min(by_pc.values(), key=lambda r: r.index)
        r2 = max(by_pc.values(), key=lambda r: r.index)
        assert r1.output_row == r2.output_row  # the reuse the test needs
        assert r1.masked
        assert r1.redefined and not r1.consumers
        assert not r2.masked
        assert report.critical() == [r2]

    def test_memory_read_counts_as_consumer(self):
        from repro.isa.instruction import MemoryInstruction

        b = builder()
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        program = b.finish()
        program.instructions.insert(
            len(program.instructions) - 1,
            MemoryInstruction(op="READ", tile=0, row=g1.row),
        )
        program.scope_ids.insert(len(program.scope_ids) - 1, 0)
        report = analyse(program, {}, CONFIG)
        (record,) = report.records
        assert record.consumers  # the READ
        assert not record.masked


class TestScores:
    def test_p_flip_is_columns_times_rate_clamped(self):
        b = builder(cols=4)
        word = b.word_at([0, 2])
        b.gate("NAND", word.bits[0], word.bits[1])
        program = b.finish()
        low = analyse(program, {"NAND": 0.01}, CONFIG).records[0]
        assert low.n_columns == 4
        assert low.p_flip == 4 * 0.01
        high = analyse(program, {"NAND": 0.4}, CONFIG).records[0]
        assert high.p_flip == 1.0  # union bound clamps

    def test_score_weighs_fanout(self):
        b = builder()
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        b.gate("NOT", g1)
        program = b.finish()
        report = analyse(program, {"NAND": 0.1, "NOT": 0.1}, CONFIG)
        r1, r2 = report.records
        # Equal p_flip, but g1 reaches one more gate.
        assert r1.p_flip == r2.p_flip
        assert r1.score > r2.score
        assert report.ranked()[0] is r1

    def test_missing_gate_rate_means_zero(self):
        b = builder()
        word = b.word_at([0, 2])
        b.gate("NAND", word.bits[0], word.bits[1])
        program = b.finish()
        record = analyse(program, {}, CONFIG).records[0]
        assert record.flip_rate == 0.0
        assert record.p_flip == 0.0
        # Classification is rate-independent.
        assert not record.masked

    def test_deterministic(self):
        b = builder()
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        b.gate("NOT", g1)
        program = b.finish()
        rates = {"NAND": 0.03, "NOT": 0.02}
        first = analyse(program, rates, CONFIG)
        second = analyse(program, rates, CONFIG)
        assert first == second
        assert [r.index for r in first.ranked()] == [
            r.index for r in second.ranked()
        ]

    def test_total_flip_mass_sums_critical_only(self):
        b = builder()
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        b.release(g1)
        b.gate("NAND", word.bits[0], word.bits[1])  # masks g1
        program = b.finish()
        report = analyse(program, {"NAND": 0.05}, CONFIG)
        assert report.total_flip_mass == report.critical()[0].p_flip


class TestMemo:
    """The def-use and fan-out pass runs once per program and lint
    config; the flip rates are applied on every call."""

    @staticmethod
    def _program():
        b = builder(cols=4)
        word = b.word_at([0, 2])
        g1 = b.gate("NAND", word.bits[0], word.bits[1])
        b.gate("NOT", g1)
        return b.finish()

    def test_keyed_by_lint_config(self, monkeypatch):
        calls = []
        real = criticality._def_use

        def spy(program, config):
            calls.append(config)
            return real(program, config)

        monkeypatch.setattr(criticality, "_def_use", spy)
        program = self._program()
        narrow = LintConfig(n_data_tiles=1, rows=64, cols=2)
        rates = {"NAND": 0.1, "NOT": 0.1}
        reports = [analyse(program, rates, config) for config in (CONFIG, narrow)]
        again = [analyse(program, rates, config) for config in (CONFIG, narrow)]
        assert calls == [CONFIG, narrow]
        assert again == reports
        assert [r.n_columns for r in reports[0].records] == [4, 4]
        assert [r.n_columns for r in reports[1].records] == [2, 2]
        assert set(program.__dict__["_criticality"]) == {CONFIG, narrow}

    def test_rate_dependent_fields_are_recomputed(self):
        program = self._program()
        low = analyse(program, {"NAND": 0.01, "NOT": 0.02}, CONFIG)
        high = analyse(program, {"NAND": 0.3, "NOT": 0.05}, CONFIG)
        assert high == analyse(self._program(), {"NAND": 0.3, "NOT": 0.05}, CONFIG)
        assert [r.flip_rate for r in low.records] == [0.01, 0.02]
        assert [r.flip_rate for r in high.records] == [0.3, 0.05]
        assert [r.p_flip for r in low.records] == [4 * 0.01, 4 * 0.02]
        assert [r.p_flip for r in high.records] == [1.0, 4 * 0.05]
        assert [r.score for r in high.records] == [2.0, 4 * 0.05]
        assert [r.fanout for r in low.records] == [r.fanout for r in high.records]

    def test_append_drops_the_memo(self):
        from repro.isa.instruction import MemoryInstruction

        program = self._program()
        before = analyse(program, {}, CONFIG)
        assert CONFIG in program.__dict__["_criticality"]
        halt = program.instructions.pop()
        program.scope_ids.pop()
        program.append(MemoryInstruction(op="READ", tile=0, row=before.records[1].output_row))
        program.append(halt)
        assert "_criticality" not in program.__dict__
        after = analyse(program, {}, CONFIG)
        assert before.records[1].consumers == ()
        assert after.records[1].consumers == (len(program) - 2,)
