"""Instruction tracing."""

import pytest

from repro.devices.parameters import MODERN_STT
from repro.isa.assembler import assemble
from repro.obs import TraceRecorder
from tests.conftest import make_mouse

SOURCE = """
ACTIVATE t0 cols 0,1
PRESET0  t0 row 1
NAND     t0 in 0,2 out 1
PRESET1  t0 row 3
AND      t0 in 0,2 out 3
HALT
"""


def traced_machine():
    m = make_mouse(MODERN_STT, rows=16, cols=8)
    m.load(assemble(SOURCE))
    return m


class TestTraceRecorder:
    def test_records_every_instruction(self):
        recorder = TraceRecorder(traced_machine())
        records = recorder.run()
        assert len(records) == 6
        assert records[0].text.startswith("ACTIVATE")
        assert records[-1].text == "HALT"
        assert [r.pc for r in records] == list(range(6))

    def test_energy_deltas_positive(self):
        recorder = TraceRecorder(traced_machine())
        for record in recorder.run():
            assert record.energy >= 0
        # Gates cost more than HALT.
        by_pc = {r.pc: r for r in recorder.records}
        assert by_pc[2].energy > by_pc[5].energy

    def test_limit_caps_records_not_execution(self):
        m = traced_machine()
        recorder = TraceRecorder(m, limit=2)
        records = recorder.run()
        assert len(records) == 2
        assert m.controller.halted  # the run still completed

    def test_render(self):
        recorder = TraceRecorder(traced_machine())
        recorder.run()
        text = recorder.render(head=2, tail=1)
        assert "omitted" in text
        assert "ACTIVATE" in text

    def test_energy_by_mnemonic(self):
        recorder = TraceRecorder(traced_machine())
        recorder.run()
        grouped = recorder.energy_by_mnemonic()
        assert set(grouped) == {"ACTIVATE", "PRESET0", "PRESET1", "NAND", "AND", "HALT"}
        assert grouped["NAND"] > 0

    def test_hottest(self):
        recorder = TraceRecorder(traced_machine())
        recorder.run()
        hottest = recorder.hottest(2)
        assert len(hottest) == 2
        assert hottest[0].energy >= hottest[1].energy

    def test_budget_exceeded(self):
        recorder = TraceRecorder(traced_machine())
        with pytest.raises(RuntimeError):
            recorder.run(max_instructions=2)


class TestTraceBudgetExceeded:
    def test_carries_partial_records(self):
        from repro.obs import TraceBudgetExceeded

        recorder = TraceRecorder(traced_machine())
        with pytest.raises(TraceBudgetExceeded) as exc:
            recorder.run(max_instructions=3)
        records = exc.value.records
        assert len(records) == 3
        assert records[0].text.startswith("ACTIVATE")
        assert [r.pc for r in records] == [0, 1, 2]
        # the recorder keeps them too, for post-mortem inspection
        assert recorder.records == records

    def test_is_a_runtime_error(self):
        """Old callers catching RuntimeError keep working."""
        from repro.obs import TraceBudgetExceeded

        assert issubclass(TraceBudgetExceeded, RuntimeError)

    def test_limit_applies_to_partial_records(self):
        from repro.obs import TraceBudgetExceeded

        recorder = TraceRecorder(traced_machine(), limit=1)
        with pytest.raises(TraceBudgetExceeded) as exc:
            recorder.run(max_instructions=3)
        assert len(exc.value.records) == 1

