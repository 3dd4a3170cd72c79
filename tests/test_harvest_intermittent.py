"""Intermittent engines: correctness, conservation, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import arith
from repro.compile.builder import ProgramBuilder
from repro.core.accelerator import Mouse
from repro.devices.parameters import MODERN_STT, PROJECTED_STT
from repro.energy.model import InstructionCostModel
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import (
    HarvestingConfig,
    InstructionProfile,
    IntermittentRun,
    NonTerminationError,
    ProfileRun,
    Segment,
)
from repro.harvest.source import ConstantPowerSource


def adder_machine(tech=MODERN_STT):
    b = ProgramBuilder(tile=0, rows=256, cols=8, reserved_rows=16)
    b.activate((0, 1, 2))
    x = b.word_at([0, 2, 4, 6])
    y = b.word_at([8, 10, 12, 14])
    total = arith.ripple_add(b, x, y)
    program = b.finish()
    m = Mouse(tech, rows=256, cols=8)
    for col, (a, c) in enumerate([(3, 5), (15, 15), (0, 7)]):
        m.write_value(0, 0, col, 4, a)
        m.write_value(0, 8, col, 4, c)
    m.load(program)
    return m, total


def tiny_window_config(power=1e-9):
    return HarvestingConfig(
        source=ConstantPowerSource(power),
        buffer=EnergyBuffer(capacitance=100e-6, v_off=0.00030, v_on=0.00034),
    )


class TestIntermittentRunCorrectness:
    def test_final_state_equals_continuous(self):
        m1, _ = adder_machine()
        m1.run()
        reference = m1.bank.snapshot()

        m2, total = adder_machine()
        breakdown = IntermittentRun(m2, tiny_window_config()).run()
        assert breakdown.restarts > 10
        assert all(
            np.array_equal(a, b) for a, b in zip(m2.bank.snapshot(), reference)
        )
        # Results are readable: 3+5, 15+15, 0+7.
        values = []
        for col in range(3):
            v = 0
            for i, bit in enumerate(total.bits):
                v |= m2.tile(0).get_bit(bit.row, col) << i
            values.append(v)
        assert values == [8, 30, 7]

    def test_metrics_populated(self):
        m, _ = adder_machine()
        b = IntermittentRun(m, tiny_window_config()).run()
        assert b.charging_latency > 0
        assert b.restore_energy > 0
        assert b.backup_energy > 0
        assert b.total_energy > 0
        assert b.instructions == 102

    def test_initial_charge_always_paid(self):
        """Benchmarks start with a discharged capacitor (Section VIII)."""
        m, _ = adder_machine()
        config = HarvestingConfig(
            source=ConstantPowerSource(1e-3),
            buffer=EnergyBuffer(capacitance=100e-6, v_off=0.32, v_on=0.34),
        )
        b = IntermittentRun(m, config).run()
        assert b.charging_latency >= 0.34**2 * 0.5 * 100e-6 / 1e-3 * 0.99

    @settings(max_examples=10, deadline=None)
    @given(power=st.floats(5e-10, 1e-7))
    def test_state_correct_for_any_power_level(self, power):
        m1, _ = adder_machine()
        m1.run()
        reference = m1.bank.snapshot()
        m2, _ = adder_machine()
        IntermittentRun(m2, tiny_window_config(power)).run()
        assert all(
            np.array_equal(a, b) for a, b in zip(m2.bank.snapshot(), reference)
        )


class TestNonTerminationDiagnosis:
    def undersized_config(self):
        # A window far smaller than one instruction's draw: no commit
        # can ever happen, which the run must diagnose, not loop on.
        return HarvestingConfig(
            source=ConstantPowerSource(1e-9),
            buffer=EnergyBuffer(capacitance=1e-9, v_off=0.001, v_on=0.0011),
        )

    def test_intermittent_run_diagnoses_stuck_instruction(self):
        m, _ = adder_machine()
        with pytest.raises(NonTerminationError) as info:
            IntermittentRun(m, self.undersized_config()).run()
        # The error carries the run's breakdown-so-far and the stuck
        # instruction's energy draw, for actionable reporting.
        assert info.value.breakdown is not None
        assert info.value.breakdown.restarts >= 1
        assert info.value.instruction_energy is not None
        assert info.value.instruction_energy > 0
        assert "pc" in str(info.value)

    def test_budget_exhaustion_is_typed(self):
        from repro.core.controller import InstructionBudgetExceeded

        m, _ = adder_machine()
        with pytest.raises(InstructionBudgetExceeded) as info:
            IntermittentRun(m, tiny_window_config()).run(max_instructions=1)
        assert isinstance(info.value, RuntimeError)  # back-compat
        assert "did not halt" in str(info.value)

    def test_healthy_run_never_trips_the_guard(self):
        """A window that fits single instructions but forces many
        restarts must complete, not be misdiagnosed as stuck."""
        m, _ = adder_machine()
        b = IntermittentRun(m, tiny_window_config()).run()
        assert b.restarts > 10
        assert b.instructions == 102


def profile_of(n=1000, energy=1e-12, backup=1e-13, columns=8):
    p = InstructionProfile(name="test", active_columns=columns)
    p.add(n, energy, backup, "body")
    return p


class TestProfileRun:
    def cost(self):
        return InstructionCostModel(MODERN_STT)

    def test_ample_power_means_no_restarts(self):
        config = HarvestingConfig(
            source=ConstantPowerSource(1.0),
            buffer=EnergyBuffer(capacitance=100e-6, v_off=0.32, v_on=0.34),
        )
        b = ProfileRun(profile_of(), self.cost(), config).run()
        assert b.restarts == 0
        assert b.dead_energy == 0
        assert b.restore_energy == 0
        assert b.instructions == 1000

    def test_scarce_power_restarts_and_adds_overheads(self):
        config = HarvestingConfig(
            source=ConstantPowerSource(1e-6),
            buffer=EnergyBuffer(capacitance=1e-6, v_off=0.010, v_on=0.011),
        )
        b = ProfileRun(
            profile_of(n=20_000, energy=1e-11), self.cost(), config
        ).run()
        assert b.restarts > 0
        assert b.dead_energy > 0
        assert b.restore_energy > 0
        assert b.charging_latency > 0

    def test_latency_monotone_in_power(self):
        latencies = []
        for power in (1e-6, 1e-5, 1e-4, 1e-3):
            config = HarvestingConfig(
                source=ConstantPowerSource(power),
                buffer=EnergyBuffer(capacitance=1e-6, v_off=0.010, v_on=0.011),
            )
            b = ProfileRun(
                profile_of(n=20_000, energy=1e-11), self.cost(), config
            ).run()
            latencies.append(b.total_latency)
        assert latencies == sorted(latencies, reverse=True)

    def test_compute_energy_independent_of_power(self):
        """'Energy consumption is nearly independent of the power
        supply' (Section IX)."""
        energies = []
        for power in (1e-6, 1e-4):
            config = HarvestingConfig(
                source=ConstantPowerSource(power),
                buffer=EnergyBuffer(capacitance=1e-6, v_off=0.010, v_on=0.011),
            )
            b = ProfileRun(
                profile_of(n=20_000, energy=1e-11), self.cost(), config
            ).run()
            energies.append(b.compute_energy)
        # Forward-progress energy is identical; only the (small) Dead /
        # Restore overheads vary with the number of outages.
        assert energies[0] == pytest.approx(energies[1], rel=1e-9)

    def test_non_termination_detected(self):
        config = HarvestingConfig(
            source=ConstantPowerSource(1e-9),
            buffer=EnergyBuffer(capacitance=1e-9, v_off=0.001, v_on=0.0011),
        )
        huge = profile_of(n=10, energy=1e-3)
        with pytest.raises(NonTerminationError) as info:
            ProfileRun(huge, self.cost(), config).run()
        assert info.value.breakdown is not None
        assert info.value.instruction_energy is not None
        assert info.value.instruction_energy > config.buffer.window_energy

    def test_dead_fraction_validation(self):
        config = HarvestingConfig(
            source=ConstantPowerSource(1e-6),
            buffer=EnergyBuffer(capacitance=1e-6, v_off=0.01, v_on=0.011),
        )
        with pytest.raises(ValueError):
            ProfileRun(profile_of(), self.cost(), config, dead_fraction=1.5)

    def test_dead_scales_with_dead_fraction(self):
        def run(fraction):
            config = HarvestingConfig(
                source=ConstantPowerSource(1e-6),
                buffer=EnergyBuffer(capacitance=1e-6, v_off=0.010, v_on=0.011),
            )
            return ProfileRun(
                profile_of(n=20_000, energy=1e-11),
                self.cost(),
                config,
                dead_fraction=fraction,
            ).run()

        full = run(1.0)
        half = run(0.5)
        assert half.dead_energy < full.dead_energy

    def test_energy_conservation(self):
        """Harvested energy = consumed + still stored (within epsilon)."""
        power = 2e-6
        config = HarvestingConfig(
            source=ConstantPowerSource(power),
            buffer=EnergyBuffer(capacitance=1e-6, v_off=0.010, v_on=0.011),
        )
        b = ProfileRun(
            profile_of(n=5_000, energy=1e-11), self.cost(), config
        ).run()
        harvested = power * b.total_latency
        stored = config.buffer.energy
        assert harvested == pytest.approx(b.total_energy + stored, rel=1e-6)

    def test_replaced_segment_is_priced_anew(self):
        """A segment replaced in place after a run (same segment count)
        prices the new segment, as a fresh profile does: the per-profile
        segment table is kept beside the segments it was built from."""

        def run(profile):
            config = HarvestingConfig.paper(MODERN_STT, 100e-6)
            return ProfileRun(profile, self.cost(), config).run()

        profile = InstructionProfile([Segment(1000, 1e-12, 1e-13)])
        assert run(profile).compute_energy == 1000 * 1e-12
        profile.segments[0] = Segment(1000, 5e-12, 1e-13)
        fresh = run(InstructionProfile([Segment(1000, 5e-12, 1e-13)]))
        assert run(profile) == fresh
        assert fresh.compute_energy == 1000 * 5e-12


class TestInstructionProfile:
    def test_add_skips_empty_segments(self):
        p = InstructionProfile()
        p.add(0, 1e-12, 1e-13)
        assert p.instructions == 0
        p.add(5, 1e-12, 1e-13)
        assert p.instructions == 5

    def test_total_energy(self):
        p = profile_of(n=10, energy=2e-12, backup=1e-12)
        assert p.total_energy == pytest.approx(10 * 3e-12)

    def test_peak_energy(self):
        p = InstructionProfile()
        p.add(1, 1e-12, 0.0)
        p.add(1, 5e-12, 1e-12)
        assert p.peak_instruction_energy() == pytest.approx(6e-12)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(-1, 1e-12, 0.0)
        with pytest.raises(ValueError):
            Segment(1, -1e-12, 0.0)
