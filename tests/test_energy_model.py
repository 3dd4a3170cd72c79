"""Instruction cost model and peripheral shares."""

import pytest

from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT, PROJECTED_SHE, PROJECTED_STT
from repro.energy.model import InstructionCostModel
from repro.energy.peripheral import PeripheralModel


class TestCycleTiming:
    def test_cycle_times_match_clocks(self):
        assert InstructionCostModel(MODERN_STT).cycle_time == pytest.approx(
            1 / 30.3e6
        )
        assert InstructionCostModel(PROJECTED_STT).cycle_time == pytest.approx(
            1 / 90.9e6
        )


class TestEnergies:
    def test_logic_energy_scales_with_columns(self, tech):
        cost = InstructionCostModel(tech)
        one = cost.logic_energy("NAND", 1)
        many = cost.logic_energy("NAND", 1024)
        assert many > one
        # array part scales linearly; peripheral per-address part fixed
        assert many < 1024 * one

    def test_all_instruction_kinds_positive(self, tech):
        cost = InstructionCostModel(tech)
        assert cost.logic_energy("NAND", 16) > 0
        assert cost.preset_energy(16) > 0
        assert cost.row_read_energy(1024) > 0
        assert cost.row_write_energy(1024) > 0
        assert cost.activate_energy(16) > 0
        assert cost.fetch_energy() > 0
        assert cost.backup_energy() > 0
        assert cost.activate_backup_energy() > 0
        assert cost.restore_energy(16) > 0
        assert cost.restore_latency() == cost.cycle_time

    def test_technology_energy_ordering(self):
        """Modern > Projected STT > SHE per instruction (Section IX)."""
        energies = [
            InstructionCostModel(t).logic_energy("NAND", 1024)
            for t in (MODERN_STT, PROJECTED_STT, PROJECTED_SHE)
        ]
        assert energies[0] > energies[1] > energies[2]

    def test_backup_is_cheap_relative_to_wide_logic(self, tech):
        """Checkpointing costs 'far less energy than a typical logic
        instruction' (Section IV-D)."""
        cost = InstructionCostModel(tech)
        assert cost.backup_energy() < cost.logic_energy("NAND", 1024) / 10

    def test_measured_energy_wrapper(self):
        cost = InstructionCostModel(MODERN_STT)
        assert cost.logic_energy_measured(1e-12, 3) > 1e-12


class TestPowerBudget:
    def test_parallelism_power_tradeoff(self):
        """Section IV-C: power draw is tuned by column parallelism; a
        60 uW budget supports only a handful of columns on the least
        efficient configuration, while full 1024-column operation draws
        milliwatts."""
        cost = InstructionCostModel(MODERN_STT)
        assert cost.instruction_power("NAND", 1024) > 1e-3
        few = cost.instruction_power("NAND", 4)
        assert few < 300e-6

    def test_power_monotone_in_columns(self, tech):
        cost = InstructionCostModel(tech)
        powers = [cost.instruction_power("NAND", n) for n in (1, 8, 64, 512)]
        assert powers == sorted(powers)


class TestPeripheralModel:
    def test_share_bounds(self):
        with pytest.raises(ValueError):
            PeripheralModel(MODERN_STT, energy_share=1.0)
        with pytest.raises(ValueError):
            PeripheralModel(MODERN_STT, energy_share=-0.1)

    def test_with_array_energy_share(self):
        p = PeripheralModel(MODERN_STT, energy_share=0.5, address_energy=0.0)
        assert p.with_array_energy(1e-12) == pytest.approx(2e-12)

    def test_register_writes_cheaper_than_array(self):
        from repro.logic.gates import write_energy

        p = PeripheralModel(MODERN_STT)
        assert p.register_bit_energy() < write_energy(MODERN_STT)

    def test_restore_scales_with_columns(self):
        p = PeripheralModel(MODERN_STT)
        assert p.restore_energy(1024) > p.restore_energy(1)

    def test_buffer_transfer(self):
        p = PeripheralModel(MODERN_STT)
        assert p.buffer_transfer_energy(1024) == pytest.approx(
            1024 * p.buffer_transfer_energy(1)
        )


class TestPriceMemo:
    def test_memo_values_are_the_methods_results(self, tech):
        custom = PeripheralModel(tech, energy_share=0.3, address_energy=0.4)
        for cost in (InstructionCostModel(tech), InstructionCostModel(tech, custom)):
            prices = cost.prices
            assert prices is cost.prices  # built once per instance
            assert prices.fetch == cost.fetch_energy()
            assert prices.backup == cost.backup_energy()
            assert prices.activate_backup == cost.activate_backup_energy()
            for n in (0, 1, 5, 8, 1024):
                assert prices.preset[n] == cost.preset_energy(n)
                assert prices.row_read[n] == cost.row_read_energy(n)
                assert prices.row_write[n] == cost.row_write_energy(n)
                assert prices.activate[n] == cost.activate_energy(n)
                assert prices.restore[n] == cost.restore_energy(n)

    def test_memo_is_not_a_field(self):
        """Reading the memo changes neither equality, hashing nor repr,
        so plan caches keyed by the model keep hitting."""
        read = InstructionCostModel(MODERN_STT)
        unread = InstructionCostModel(MODERN_STT)
        before = repr(read)
        read.prices.row_write[64]
        assert read == unread and hash(read) == hash(unread)
        assert repr(read) == before
        assert {read: 1}[unread] == 1
        assert read.prices is not unread.prices
