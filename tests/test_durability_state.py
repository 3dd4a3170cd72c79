"""Bit-exact capture/restore of simulator state, and the image readers
that resume runs from it."""

import gc
import json
from functools import lru_cache

import numpy as np
import pytest

from repro import compilejit
from repro.compilejit.exec import mouse_plan
from repro.core.accelerator import Mouse
from repro.devices.parameters import MODERN_STT, PROJECTED_SHE, PROJECTED_STT
from repro.durability import Checkpointer, CheckpointPolicy, NVImageStore
from repro.durability.checkpoint import (
    capture_intermittent,
    capture_profile,
    resume_intermittent,
    resume_profile,
)
from repro.durability.state import (
    StateCaptureError,
    capture_machine,
    decode_bool_array,
    decode_config,
    encode_bool_array,
    encode_config,
    restore_machine,
)
from repro.energy.model import InstructionCostModel
from repro.env import AdaptivePolicy
from repro.env.trace import solar_diurnal
from repro.faults.campaign import adder_workload, bnn_workload, svm_workload
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import (
    HarvestingConfig,
    IntermittentRun,
    ProfileRun,
    Segment,
)
from repro.harvest.source import ConstantPowerSource, SolarProfileSource
from repro.ml.benchmarks import SVM_ADULT

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


    def test_restores_share_one_program_and_its_plan(self):
        """Machines restored from equal words share one Program, so a
        resumed run lints and plans nothing a sibling already did."""
        gc.collect()  # drop restored machines earlier tests left in cycles
        snapshot = capture_machine(bnn_workload(PROJECTED_SHE).build())
        before = compilejit.stats_snapshot()["plans_compiled"]
        first = restore_machine(snapshot)
        second = restore_machine(snapshot)
        assert first.program is second.program
        assert mouse_plan(first) is mouse_plan(second) is not None
        assert compilejit.stats_snapshot()["plans_compiled"] == before + 1


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


def _two_tile_payload() -> dict:
    """A small two-tile machine with seeded tile contents and transfer
    buffer, loaded and not yet run."""
    from repro.core.program import Program
    from repro.isa.instruction import (
        ActivateColumnsInstruction,
        HaltInstruction,
        LogicInstruction,
        MemoryInstruction,
    )

    rng = np.random.default_rng(11)
    mouse = Mouse(MODERN_STT, n_data_tiles=2, rows=16, cols=8)
    for tile in mouse.bank.data_tiles:
        tile.state[...] = rng.integers(0, 2, size=tile.state.shape)
    mouse.controller.buffer[...] = rng.integers(0, 2, size=8)
    mouse.load(Program([
        ActivateColumnsInstruction(1, (0, 7), bulk=True),
        MemoryInstruction("PRESET0", 1, 3),
        LogicInstruction("NAND", 1, (0, 2), 3),
        MemoryInstruction("WRITE", 0, 5),
        HaltInstruction(),
    ]))
    return capture_machine(mouse)


class TestRestoreRejectsMalformedMachine:
    """Everything but the program: a field missing, a list short, a
    bit array of another shape or a register under another name is
    something capture never writes, and restore refuses it rather than
    truncate, broadcast or raise a bare ``KeyError``."""

    def test_unmodified_payload_restores(self):
        payload = _two_tile_payload()
        assert capture_machine(restore_machine(payload)) == payload

    def test_short_tile_list_rejected(self):
        payload = _two_tile_payload()
        payload["data_tiles"] = payload["data_tiles"][:1]
        with pytest.raises(StateCaptureError, match="must hold 2 data tiles"):
            restore_machine(payload)

    def test_one_row_tile_state_rejected(self):
        payload = _two_tile_payload()
        state = decode_bool_array(payload["data_tiles"][1]["state"])
        payload["data_tiles"][1]["state"] = encode_bool_array(state[:1])
        with pytest.raises(StateCaptureError, match="data tile 1 state has shape"):
            restore_machine(payload)

    def test_one_cell_buffer_rejected(self):
        payload = _two_tile_payload()
        buffer = decode_bool_array(payload["controller"]["buffer"])
        payload["controller"]["buffer"] = encode_bool_array(buffer[:1])
        with pytest.raises(StateCaptureError, match="transfer buffer has shape"):
            restore_machine(payload)

    def test_short_bits_rejected(self):
        payload = _two_tile_payload()
        payload["data_tiles"][0]["active_columns"]["bits"] = ""
        with pytest.raises(StateCaptureError, match="do not encode 8 cells"):
            restore_machine(payload)

    @pytest.mark.parametrize(
        "path",
        [
            ("ledger",),
            ("ledger", "restarts"),
            ("controller", "phase"),
            ("registers", "act"),
            ("registers", "pc", "staged"),
            ("sensor", "valid"),
            ("geometry", "cols"),
            ("params", "clock_hz"),
        ],
    )
    def test_missing_field_rejected(self, path):
        payload = _two_tile_payload()
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(StateCaptureError, match=repr(path[-1])):
            restore_machine(payload)

    def test_activate_register_holding_a_gate_rejected(self):
        # power_on would otherwise fail its ACTIVATE assertion on resume.
        from repro.isa.instruction import LogicInstruction, encode

        payload = _two_tile_payload()
        word = encode(LogicInstruction("NOT", 0, (0,), 1))
        payload["registers"]["act"]["values"] = [word, word]
        with pytest.raises(StateCaptureError, match="not an ACTIVATE"):
            restore_machine(payload)

    def test_pc_past_the_program_rejected(self):
        payload = _two_tile_payload()
        payload["registers"]["pc"]["values"][1] = len(payload["program"])
        with pytest.raises(StateCaptureError, match="past the program's 5"):
            restore_machine(payload)

    def test_register_under_another_name_rejected(self):
        payload = _two_tile_payload()
        payload["registers"]["pc"], payload["registers"]["act"] = (
            payload["registers"]["act"], payload["registers"]["pc"],
        )
        with pytest.raises(StateCaptureError, match="captured as 'ACT'"):
            restore_machine(payload)


#: Seeds of the restore fuzzer, and mutations per seed and base.
RESTORE_FUZZ_SEEDS = 8
RESTORE_FUZZ_CASES = 40
#: Values a mutation puts where a field was.
_RETYPES = (
    None, 0, 5, -1, 1.5, "x", "", [], [1], {}, {"a": 1}, True, False,
    float("nan"), float("inf"),
)


def _fuzz_bases() -> list:
    workload = adder_workload(MODERN_STT)
    halted = workload.build()
    halted.run()
    return [capture_machine(halted), _two_tile_payload()]


def _paths(obj, prefix=()):
    """Every path to a value inside a JSON tree."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _mutated(rng, payload: dict) -> dict:
    """``payload`` with one field deleted, retyped or cut short, or one
    bit array (if it holds any) re-encoded as its first row or cell."""
    import copy

    payload = copy.deepcopy(payload)
    paths = _paths(payload)
    arrays = [p for p in paths if p[-1] == "bits"]
    path = paths[rng.randrange(len(paths))]
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    choice = rng.randrange(4 if arrays else 3)
    if choice == 0:
        del parent[path[-1]]
    elif choice == 1:
        parent[path[-1]] = _RETYPES[rng.randrange(len(_RETYPES))]
    elif choice == 2 and isinstance(value, (list, str)) and value:
        parent[path[-1]] = value[: rng.randrange(len(value))]
    elif arrays:
        parent = payload
        for key in arrays[rng.randrange(len(arrays))][:-1]:
            parent = parent[key]
        cells = decode_bool_array(parent)
        parent.update(encode_bool_array(cells[:1]))
    return payload


def _restore_or_refuse(payload) -> bool:
    """True if ``payload`` restores, to a machine that captures back to
    it exactly; False if restore refuses it with StateCaptureError."""
    import json

    try:
        mouse = restore_machine(payload)
    except StateCaptureError:
        return False
    text = json.dumps(payload, sort_keys=True)
    assert json.dumps(capture_machine(mouse), sort_keys=True) == text
    return True


@pytest.mark.parametrize("seed", range(RESTORE_FUZZ_SEEDS))
def test_fuzzed_machines_restore_exactly_or_refuse(seed):
    """A mutated capture either restores to a machine whose capture is
    the mutated payload, byte for byte in JSON, or is refused with
    StateCaptureError: no other exception, and nothing truncated,
    broadcast or coerced on the way.  Mutated JSON text is fed the same
    way when it still parses."""
    import json
    import random

    rng = random.Random(seed)
    refused = 0
    for base in _fuzz_bases():
        for _ in range(RESTORE_FUZZ_CASES):
            refused += not _restore_or_refuse(_mutated(rng, base))
            data = bytearray(json.dumps(base).encode())
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                payload = json.loads(data)
            except ValueError:
                continue
            refused += not _restore_or_refuse(payload)
    assert refused > RESTORE_FUZZ_CASES  # the mutations reach the refusals


# ----------------------------------------------------------------------
# Resume readers: the run-level fields of profile and intermittent images
# ----------------------------------------------------------------------


class _Stop(Exception):
    pass


class _Images(NVImageStore):
    """Keeps each payload committed to it as JSON returns it, and stops
    the run after ``keep`` of them; ``load()`` returns ``payload``."""

    def __init__(self, keep: int = 1_000_000, payload=None) -> None:
        self.payloads: list = []
        self.keep = keep
        self.payload = payload
        self.fallbacks = 0

    def commit(self, payload: dict) -> int:
        self.payloads.append(json.loads(json.dumps(payload)))
        if len(self.payloads) >= self.keep:
            raise _Stop
        return len(self.payloads)

    def load(self) -> tuple:
        return self.payload, 1


def _first_profile_image(config, **options) -> dict:
    """The first image of a checkpointed SVM ADULT profile run."""
    cost = InstructionCostModel(MODERN_STT)
    store = _Images(keep=1)
    with pytest.raises(_Stop):
        ProfileRun(
            SVM_ADULT.profile(cost), cost, config,
            checkpointer=Checkpointer(store, CheckpointPolicy(period=1)),
            **options,
        ).run()
    return store.payloads[0]


@lru_cache(maxsize=None)
def _image_bases() -> dict:
    """Images capture writes: SVM ADULT at 100 uW from its first burst
    boundary (the uninterrupted run commits 61,669 instructions); an
    adaptive SVM ADULT run on a solar trace into a leaky buffer; and the
    first outage and the first mid-run powered image of a checkpointed
    adder run on a lossy buffer."""
    store = _Images()
    IntermittentRun(
        adder_workload(MODERN_STT).build(),
        HarvestingConfig(
            ConstantPowerSource(5e-6),
            EnergyBuffer(
                capacitance=2e-10, v_off=0.30, v_on=0.34,
                leakage_amps=1e-6, esr_ohms=50.0,
            ),
        ),
        checkpointer=Checkpointer(store, CheckpointPolicy(period=8)),
    ).run()
    phases = [payload["phase"] for payload in store.payloads]
    trace = solar_diurnal(seed=1, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2)
    return {
        "profile": _first_profile_image(HarvestingConfig.paper(MODERN_STT, 100e-6)),
        "adaptive": _first_profile_image(
            HarvestingConfig.from_trace(MODERN_STT, trace, leakage_amps=5e-5),
            checkpoint_period=2, adaptive=AdaptivePolicy(),
        ),
        "outage": store.payloads[phases.index("outage")],
        "powered": store.payloads[phases.index("powered")],
    }


def _resume(payload):
    """The run ``payload`` resumes to, and that run captured again."""
    if isinstance(payload, dict) and payload.get("kind") == "profile":
        run = resume_profile(_Images(payload=payload))
        return run, capture_profile(run)
    run = resume_intermittent(_Images(payload=payload))
    return run, capture_intermittent(run, run._resume_phase)


def test_images_resume_and_capture_as_themselves():
    """Each base image resumes to a run that captures as the image."""
    bases = _image_bases()
    assert bases["adaptive"]["adaptive"] is not None
    assert "leakage_amps" in bases["outage"]["config"]["buffer"]
    for name, payload in bases.items():
        _, again = _resume(payload)
        assert json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True), name
    assert resume_profile(_Images(payload=bases["profile"])).ledger.breakdown.instructions == 2


_DELETE = object()


@pytest.mark.parametrize(
    "base, path, value, match",
    [
        ("profile", ("profile", "segments", 0, "count"), 2.5, "'count'"),
        ("profile", ("profile", "segments", 0, "count"), True, "'count'"),
        ("profile", ("profile", "segments", 3, "energy"), float("nan"), "'energy'"),
        ("profile", ("profile", "segments", 3, "backup"), float("inf"), "'backup'"),
        ("profile", ("profile", "segments", 3, "label"), 7, "'label'"),
        ("profile", ("profile", "segments", 3, "addresses"), 6, "segment 3 is invalid"),
        ("profile", ("profile", "segments"), _DELETE, "'segments'"),
        ("profile", ("profile", "segments"), {}, "'segments'"),
        ("profile", ("profile", "active_columns"), -1, "'active_columns'"),
        ("profile", ("profile", "active_columns"), 0, "'active_columns'"),
        ("profile", ("profile", "name"), None, "'name'"),
        ("profile", ("seg_index",), 10**6, "'seg_index'"),
        ("profile", ("seg_index",), -5, "'seg_index'"),
        ("profile", ("remaining",), -1, "'remaining'"),
        ("profile", ("remaining",), 2.5, "'remaining'"),
        ("profile", ("checkpoint_period",), 2.7, "'checkpoint_period'"),
        ("profile", ("checkpoint_period",), 0, "'checkpoint_period'"),
        ("profile", ("dead_fraction",), 1.5, "'dead_fraction'"),
        ("profile", ("time",), float("nan"), "'time'"),
        ("profile", ("time",), -1.0, "'time'"),
        ("profile", ("degraded", "fail_stop"), _DELETE, "degraded tallies"),
        ("profile", ("degraded",), _DELETE, "'degraded'"),
        ("profile", ("ledger", "instructions"), 2.5, "'instructions'"),
        ("profile", ("config", "source", "watts"), 0, "constant source is invalid"),
        ("profile", ("config", "source", "type"), "wind", "unknown power-source"),
        ("profile", ("config", "buffer", "voltage"), float("nan"), "'voltage'"),
        ("profile", ("config", "buffer", "leakage_amps"), 0.0, "'leakage_amps'"),
        ("profile", ("config", "spare"), 1, "harvesting config"),
        ("profile", ("kind",), "replay", "'replay' run, not an intermittent"),
        ("adaptive", ("adaptive", "charge_backoff"), float("nan"), "'charge_backoff'"),
        ("adaptive", ("adaptive", "max_period"), 0, "adaptive policy is invalid"),
        ("adaptive", ("config", "source", "trace", "family"), _DELETE, "trace"),
        ("outage", ("phase",), "paused", "unknown resume phase"),
        ("outage", ("phase",), "powered", "phase 'powered'"),
        ("powered", ("phase",), "outage", "phase 'outage'"),
        ("outage", ("executed",), 2.5, "'executed'"),
        ("outage", ("commits_in_window",), 2.5, "'commits_in_window'"),
        ("outage", ("vcap_sample_period",), 2.5, "'vcap_sample_period'"),
        ("outage", ("vcap_sample_period",), 0, "'vcap_sample_period'"),
        ("outage", ("drawn_in_window",), -1.0, "'drawn_in_window'"),
        ("outage", ("time",), float("inf"), "'time'"),
        ("outage", ("stalled_pc",), 10**6, "'stalled_pc'"),
        ("outage", ("stalled_pc",), 1.0, "'stalled_pc'"),
        ("outage", ("config", "buffer", "esr_ohms"), -1.0, "'esr_ohms'"),
        ("outage", ("machine",), _DELETE, "'machine'"),
        ("powered", ("kind",), _DELETE, "None run, not an intermittent"),
    ],
)
def test_malformed_image_is_refused(base, path, value, match):
    """A field capture cannot write is refused with StateCaptureError
    naming it, where the readers used to coerce it with ``int()``,
    accept a NaN, or raise a bare KeyError."""
    import copy

    payload = copy.deepcopy(_image_bases()[base])
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(StateCaptureError, match=match):
        _resume(payload)


def test_image_of_the_other_kind_is_refused():
    bases = _image_bases()
    with pytest.raises(StateCaptureError, match="'profile' run, not an intermittent"):
        resume_intermittent(_Images(payload=bases["profile"]))
    with pytest.raises(StateCaptureError, match="'intermittent' run, not a profile"):
        resume_profile(_Images(payload=bases["powered"]))


def test_profile_image_without_policy_and_tallies_needs_both_gone():
    """An image from before the cadence policy and the degraded tallies
    were stored holds neither; one without the other is refused."""
    import copy

    payload = copy.deepcopy(_image_bases()["profile"])
    del payload["adaptive"], payload["degraded"]
    run = resume_profile(_Images(payload=payload))
    assert run.adaptive is None and not any(run.degraded.values())
    del payload["checkpoint_period"]
    with pytest.raises(StateCaptureError, match="checkpoint_period"):
        resume_profile(_Images(payload=payload))


@pytest.mark.parametrize("energy, backup", [(float("nan"), 0.0), (0.0, float("inf"))])
def test_segment_rejects_non_finite_energies(energy, backup):
    with pytest.raises(ValueError, match="finite"):
        Segment(1, energy, backup)


#: Seeds of the image fuzzer, and mutations per seed and base.
IMAGE_FUZZ_SEEDS = 6
IMAGE_FUZZ_CASES = 40


def _nudged(rng, payload: dict) -> dict:
    """``payload`` with one number moved: by a half, past zero, or far
    out of range."""
    import copy

    payload = copy.deepcopy(payload)
    numbers = []
    for path in _paths(payload):
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if type(value) in (int, float):
            numbers.append((parent, path[-1], value))
    parent, key, value = numbers[rng.randrange(len(numbers))]
    parent[key] = rng.choice((value + 0.5, -1 - value, value * 10**6 + 10**6))
    return payload


def _resume_or_refuse(payload) -> bool:
    """True if ``payload`` resumes to a run that captures back to it
    exactly; False if the reader refuses it with StateCaptureError."""
    try:
        _, again = _resume(payload)
    except StateCaptureError:
        return False
    assert json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True)
    return True


@pytest.mark.parametrize("seed", range(IMAGE_FUZZ_SEEDS))
def test_fuzzed_images_resume_exactly_or_refuse(seed):
    """A mutated profile or intermittent image either resumes to a run
    whose capture is the mutated payload, byte for byte in JSON, or is
    refused with StateCaptureError: no other exception, and nothing
    coerced, clamped or defaulted on the way.  Mutated JSON text is fed
    the same way when it still parses."""
    import random

    rng = random.Random(seed)
    refused = 0
    for base in _image_bases().values():
        for _ in range(IMAGE_FUZZ_CASES):
            mutate = _nudged if rng.random() < 0.3 else _mutated
            refused += not _resume_or_refuse(mutate(rng, base))
            data = bytearray(json.dumps(base).encode())
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            try:
                payload = json.loads(data)
            except ValueError:
                continue
            refused += not _resume_or_refuse(payload)
    assert refused > IMAGE_FUZZ_CASES  # the mutations reach the refusals
