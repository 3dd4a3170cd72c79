"""Bit-exact capture and restore of simulator state.

Everything here round-trips **exactly** through JSON:

* bool arrays (MTJ matrices, activation latches, the transfer buffer,
  the sensor buffer) are bit-packed and base64-encoded;
* floats rely on Python's shortest-round-trip ``repr`` (the JSON
  encoder), so every energy/latency/voltage value restores to the
  identical IEEE-754 double;
* dual non-volatile registers serialise both copies, the parity bit,
  and the stage handshake.

Capture is only legal at an **instruction boundary** (no in-flight
word), which is exactly where the checkpoint hooks fire — so a
restored machine re-enters the run loop indistinguishable from one
that never stopped, and a resumed run's final report is byte-identical
to the uninterrupted run's.
"""

from __future__ import annotations

import base64
import dataclasses
from typing import Any

import numpy as np

from repro.core.accelerator import Mouse
from repro.core.controller import MemoryController, Phase
from repro.core.program import Program
from repro.core.registers import DualRegister
from repro.devices.parameters import CellKind, DeviceParameters
from repro.energy.metrics import Breakdown
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import (
    HarvestingConfig,
    InstructionProfile,
    Segment,
)
from repro.harvest.source import ConstantPowerSource, SolarProfileSource
from repro.isa.instruction import decode_cached


class StateCaptureError(RuntimeError):
    """The object is not in a capturable state (e.g. mid-instruction),
    or a captured payload holds something capture cannot produce."""


# ----------------------------------------------------------------------
# Primitive codecs
# ----------------------------------------------------------------------


def encode_bool_array(array: np.ndarray) -> dict:
    array = np.asarray(array, dtype=bool)
    packed = np.packbits(array.reshape(-1))
    return {
        "shape": list(array.shape),
        "bits": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def decode_bool_array(obj: dict) -> np.ndarray:
    shape = tuple(int(s) for s in obj["shape"])
    count = int(np.prod(shape)) if shape else 1
    packed = np.frombuffer(base64.b64decode(obj["bits"]), dtype=np.uint8)
    return np.unpackbits(packed, count=count).astype(bool).reshape(shape)


def encode_params(params: DeviceParameters) -> dict:
    out = dataclasses.asdict(params)
    out["cell_kind"] = params.cell_kind.value
    return out


def decode_params(obj: dict) -> DeviceParameters:
    fields = dict(obj)
    fields["cell_kind"] = CellKind(fields["cell_kind"])
    return DeviceParameters(**fields)


def encode_register(register: DualRegister) -> dict:
    return {
        "name": register.name,
        "values": list(register._values),
        "parity": register.parity.value,
        "staged": register._staged,
    }


def decode_register(register: DualRegister, obj: dict) -> None:
    register._values = [
        None if v is None else int(v) for v in obj["values"]
    ]
    register.parity.set(bool(obj["parity"]))
    register._staged = bool(obj["staged"])


def encode_breakdown(breakdown: Breakdown) -> dict:
    return dataclasses.asdict(breakdown)


def decode_breakdown(obj: dict) -> Breakdown:
    return Breakdown(**obj)


def encode_buffer(buffer: EnergyBuffer) -> dict:
    out = {
        "capacitance": buffer.capacitance,
        "v_off": buffer.v_off,
        "v_on": buffer.v_on,
        "voltage": buffer.voltage,
    }
    # Non-ideality knobs travel only when set, so ideal-buffer payloads
    # are byte-identical to those of earlier image generations.
    if buffer.leakage_amps:
        out["leakage_amps"] = buffer.leakage_amps
    if buffer.esr_ohms:
        out["esr_ohms"] = buffer.esr_ohms
    return out


def decode_buffer(obj: dict) -> EnergyBuffer:
    return EnergyBuffer(**obj)


def encode_source(source) -> dict:
    if isinstance(source, ConstantPowerSource):
        return {"type": "constant", "watts": source.watts}
    if isinstance(source, SolarProfileSource):
        return {
            "type": "solar",
            "mean_watts": source.mean_watts,
            "depth": source.depth,
            "period": source.period,
        }
    from repro.env.trace import HarvestTrace, TraceSource

    if isinstance(source, TraceSource):
        return {"type": "trace", "trace": source.trace.to_json_obj()}
    raise StateCaptureError(
        f"power source {type(source).__name__} is not serialisable; "
        "use ConstantPowerSource, SolarProfileSource or TraceSource "
        "for resumable runs"
    )


def decode_source(obj: dict):
    kind = obj.get("type")
    if kind == "constant":
        return ConstantPowerSource(obj["watts"])
    if kind == "solar":
        return SolarProfileSource(
            obj["mean_watts"], depth=obj["depth"], period=obj["period"]
        )
    if kind == "trace":
        from repro.env.trace import HarvestTrace, TraceSource

        return TraceSource(HarvestTrace.from_json_obj(obj["trace"]))
    raise ValueError(f"unknown power-source type {kind!r}")


def encode_config(config: HarvestingConfig) -> dict:
    return {
        "source": encode_source(config.source),
        "buffer": encode_buffer(config.buffer),
    }


def decode_config(obj: dict) -> HarvestingConfig:
    return HarvestingConfig(
        source=decode_source(obj["source"]),
        buffer=decode_buffer(obj["buffer"]),
    )


def encode_profile(profile: InstructionProfile) -> dict:
    return {
        "name": profile.name,
        "active_columns": profile.active_columns,
        "segments": [dataclasses.asdict(s) for s in profile.segments],
    }


def decode_profile(obj: dict) -> InstructionProfile:
    return InstructionProfile(
        segments=[Segment(**s) for s in obj["segments"]],
        name=obj["name"],
        active_columns=obj["active_columns"],
    )


# ----------------------------------------------------------------------
# Machine capture/restore
# ----------------------------------------------------------------------


def capture_machine(mouse: Mouse) -> dict[str, Any]:
    """Snapshot a machine at an instruction boundary.

    Captures the architectural non-volatile state the paper enumerates
    (per-tile MTJ matrices, the dual PC + parity, the duplicated
    Activate-Columns and sensor-PC registers, the transfer buffer) plus
    the volatile-but-boundary-stable peripherals (column-activation
    latches) and the energy ledger.
    """
    controller = mouse.controller
    if not controller.halted and (
        controller._word is not None or controller._instr is not None
    ):
        # A halted machine legitimately retains its final HALT word;
        # restore_machine leaves the in-flight slots empty, which is
        # fine because a halted controller never steps again.
        raise StateCaptureError(
            "machine has an in-flight instruction; capture only at "
            "instruction boundaries"
        )
    bank = mouse.bank
    return {
        "params": encode_params(mouse.params),
        "geometry": {
            "n_data_tiles": len(bank.data_tiles),
            "n_instruction_tiles": bank.n_instruction_tiles,
            "rows": bank.rows,
            "cols": bank.cols,
        },
        "program": mouse.program.words(),
        "data_tiles": [
            {
                "state": encode_bool_array(tile.state),
                "active_columns": encode_bool_array(tile.active_columns),
            }
            for tile in bank.data_tiles
        ],
        "sensor": {
            "valid": bank.sensor.valid,
            "data": encode_bool_array(bank.sensor.data),
        },
        "registers": {
            "pc": encode_register(controller.pc),
            "act": encode_register(controller.activate_register),
            "sensor_pc": encode_register(controller.sensor_pc),
        },
        "controller": {
            "buffer": encode_bool_array(controller.buffer),
            "powered": controller.powered,
            "halted": controller.halted,
            "phase": controller.phase.value,
            "dead_replay": controller._dead_replay,
            "lost_work": controller._lost_work,
            "executed_uncommitted": controller._executed_uncommitted,
        },
        "ledger": encode_breakdown(mouse.ledger.breakdown),
    }


def restore_machine(payload: dict[str, Any]) -> Mouse:
    """Rebuild a machine from :func:`capture_machine` output, bit-exact."""
    geometry = payload["geometry"]
    mouse = Mouse(
        decode_params(payload["params"]),
        n_data_tiles=geometry["n_data_tiles"],
        n_instruction_tiles=geometry["n_instruction_tiles"],
        rows=geometry["rows"],
        cols=geometry["cols"],
    )
    _restore_program(mouse, payload["program"])

    for tile, saved in zip(mouse.bank.data_tiles, payload["data_tiles"]):
        tile.state[:] = decode_bool_array(saved["state"])
        tile.active_columns[:] = decode_bool_array(saved["active_columns"])
        tile._refresh_active_index()
    mouse.bank.sensor.data[:] = decode_bool_array(payload["sensor"]["data"])
    mouse.bank.sensor.valid = bool(payload["sensor"]["valid"])

    controller: MemoryController = mouse.controller
    registers = payload["registers"]
    decode_register(controller.pc, registers["pc"])
    decode_register(controller.activate_register, registers["act"])
    decode_register(controller.sensor_pc, registers["sensor_pc"])

    saved = payload["controller"]
    controller.buffer[:] = decode_bool_array(saved["buffer"])
    controller.powered = bool(saved["powered"])
    controller.halted = bool(saved["halted"])
    controller.phase = Phase(saved["phase"])
    controller._dead_replay = bool(saved["dead_replay"])
    controller._lost_work = bool(saved["lost_work"])
    controller._executed_uncommitted = bool(saved["executed_uncommitted"])

    mouse.ledger.breakdown = decode_breakdown(payload["ledger"])
    return mouse


def _restore_program(mouse: Mouse, words: Any) -> None:
    """Load a captured program back into a freshly built machine.

    Rejects what capture never writes: words that are not JSON integers
    (floats, strings, booleans), words that do not decode, and programs
    that fail :meth:`Program.validate` against the machine's geometry
    (a missing HALT included) or overflow its instruction tiles.
    """
    if not isinstance(words, list):
        raise StateCaptureError("captured program is not a list of words")
    instructions = []
    for index, word in enumerate(words):
        if type(word) is not int:
            raise StateCaptureError(
                f"program word {index} is a {type(word).__name__}, not an int"
            )
        try:
            instructions.append(decode_cached(word))
        except ValueError as exc:
            raise StateCaptureError(
                f"program word {index} does not decode: {exc}"
            ) from exc
    program = Program(instructions)
    bank = mouse.bank
    try:
        program.validate(len(bank.data_tiles), rows=bank.rows, cols=bank.cols)
        bank.load_program(words)
    except ValueError as exc:
        raise StateCaptureError(f"captured program is invalid: {exc}") from exc
    mouse._program = program
