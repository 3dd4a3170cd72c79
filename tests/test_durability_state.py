"""Bit-exact capture/restore of simulator state."""

import numpy as np
import pytest

from repro.core.accelerator import Mouse
from repro.devices.parameters import MODERN_STT, PROJECTED_SHE, PROJECTED_STT
from repro.durability.state import (
    StateCaptureError,
    capture_machine,
    decode_bool_array,
    decode_config,
    encode_bool_array,
    encode_config,
    restore_machine,
)
from repro.faults.campaign import adder_workload, bnn_workload, svm_workload
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import HarvestingConfig
from repro.harvest.source import ConstantPowerSource, SolarProfileSource

WORKLOADS = [
    pytest.param(adder_workload, id="adder"),
    pytest.param(svm_workload, id="svm"),
    pytest.param(bnn_workload, id="bnn"),
]


class TestBoolArrays:
    @pytest.mark.parametrize("shape", [(3,), (4, 5), (2, 3, 7), (0,)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        array = rng.random(shape) < 0.5
        restored = decode_bool_array(encode_bool_array(array))
        assert restored.dtype == bool
        assert np.array_equal(restored, array)


class TestConfigCodec:
    def test_constant_source_round_trip(self):
        config = HarvestingConfig(
            source=ConstantPowerSource(3.5e-9),
            buffer=EnergyBuffer(capacitance=2e-10, v_off=0.30, v_on=0.34),
        )
        config.buffer.voltage = 0.3123456789012345
        restored = decode_config(encode_config(config))
        assert restored.source.watts == config.source.watts
        assert restored.buffer.voltage == config.buffer.voltage
        assert restored.buffer.capacitance == config.buffer.capacitance

    def test_solar_source_round_trip(self):
        config = HarvestingConfig(
            source=SolarProfileSource(1e-8, depth=0.7, period=0.125),
            buffer=EnergyBuffer(capacitance=1e-9, v_off=0.30, v_on=0.34),
        )
        restored = decode_config(encode_config(config))
        assert restored.source.mean_watts == 1e-8
        assert restored.source.depth == 0.7
        assert restored.source.period == 0.125

    def test_exotic_source_rejected(self):
        class Weird:
            pass

        with pytest.raises(StateCaptureError):
            encode_config(
                HarvestingConfig(
                    source=Weird(),
                    buffer=EnergyBuffer(
                        capacitance=1e-9, v_off=0.30, v_on=0.34
                    ),
                )
            )


class TestMachineCapture:
    @pytest.mark.parametrize("tech", [MODERN_STT, PROJECTED_STT, PROJECTED_SHE])
    @pytest.mark.parametrize("factory", WORKLOADS)
    def test_halted_workload_round_trips(self, tech, factory):
        """Run each campaign workload to HALT, capture, restore: the
        readout, memory, and energy ledger must be bit-identical."""
        workload = factory(tech)
        mouse = workload.build()
        mouse.run()
        snapshot = capture_machine(mouse)

        restored = restore_machine(snapshot)
        assert workload.readout(restored) == workload.readout(mouse)
        for a, b in zip(restored.bank.snapshot(), mouse.bank.snapshot()):
            assert np.array_equal(a, b)
        assert restored.ledger.breakdown == mouse.ledger.breakdown
        assert restored.controller.halted
        # A second capture of the restored machine is byte-identical.
        assert capture_machine(restored) == snapshot

    def test_registers_round_trip(self):
        workload = adder_workload(MODERN_STT)
        mouse = workload.build()
        mouse.run()
        restored = restore_machine(capture_machine(mouse))
        for name in ("pc", "activate_register", "sensor_pc"):
            original = getattr(mouse.controller, name)
            copy = getattr(restored.controller, name)
            assert copy._values == original._values
            assert copy.parity.value == original.parity.value
            assert copy._staged == original._staged

    def test_mid_instruction_capture_rejected(self):
        workload = adder_workload(MODERN_STT)
        mouse = workload.build()
        mouse.controller.step()  # fetch: an instruction is now in flight
        with pytest.raises(StateCaptureError):
            capture_machine(mouse)

    def test_restored_machine_continues_identically(self):
        """Capture at power-on (before any step), then let both copies
        run to HALT: identical breakdown and readout."""
        workload = svm_workload(MODERN_STT)
        original = workload.build()
        clone = restore_machine(capture_machine(original))
        original.run()
        clone.run()
        assert workload.readout(clone) == workload.readout(original)
        assert clone.ledger.breakdown == original.ledger.breakdown


class TestRestoreRejectsMalformedProgram:
    """A captured program is restored only if capture could have
    written it: JSON integers that decode into a program passing
    ``Program.validate`` on the captured geometry."""

    @staticmethod
    def adder_payload() -> dict:
        return capture_machine(adder_workload(MODERN_STT).build())

    def test_unmodified_payload_restores(self):
        payload = self.adder_payload()
        assert capture_machine(restore_machine(payload)) == payload

    def test_float_word_rejected(self):
        payload = self.adder_payload()
        payload["program"][1] = payload["program"][1] + 0.5
        with pytest.raises(StateCaptureError, match="word 1 is a float"):
            restore_machine(payload)

    def test_numeric_string_word_rejected(self):
        payload = self.adder_payload()
        payload["program"][2] = str(payload["program"][2])
        with pytest.raises(StateCaptureError, match="word 2 is a str"):
            restore_machine(payload)

    def test_bool_word_rejected(self):
        # True would otherwise decode as word 1, WRITE t0 row 0.
        payload = self.adder_payload()
        payload["program"][0] = True
        with pytest.raises(StateCaptureError, match="word 0 is a bool"):
            restore_machine(payload)

    def test_missing_halt_rejected(self):
        payload = self.adder_payload()
        payload["program"] = payload["program"][:-1]
        with pytest.raises(StateCaptureError, match="does not end in HALT"):
            restore_machine(payload)

    def test_out_of_range_tile_rejected(self):
        from repro.isa.instruction import LogicInstruction, encode

        payload = self.adder_payload()
        assert payload["geometry"]["n_data_tiles"] == 1
        payload["program"].insert(
            -1, encode(LogicInstruction("NOT", 5, (0,), 1))
        )
        with pytest.raises(StateCaptureError, match="tile 5 out of range"):
            restore_machine(payload)
