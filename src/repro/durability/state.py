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
import json
import math
import weakref
from typing import Any, get_type_hints

import numpy as np

from repro.core.accelerator import Mouse
from repro.core.controller import _NONE, MemoryController, Phase
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
from repro.isa.instruction import (
    ActivateColumnsInstruction,
    decode_cached,
    encode,
)


class StateCaptureError(RuntimeError, ValueError):
    """The object is not in a capturable state (e.g. mid-instruction),
    or a captured payload holds something capture cannot produce (a
    bad value, so also a ``ValueError``)."""


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


def decode_bool_array(
    obj: dict, shape=None, where: str = "bit array"
) -> np.ndarray:
    """Inverse of :func:`encode_bool_array`, of the encoded shape or,
    when given, of ``shape``; :class:`StateCaptureError` for anything
    the encoder cannot write (another shape, bits that are not the
    canonical base64 of exactly that many cells, a set padding bit)."""
    _fields(obj, ("shape", "bits"), where)
    encoded = obj["shape"]
    if not (
        isinstance(encoded, list)
        and all(type(n) is int and n >= 0 for n in encoded)
        and (shape is None or encoded == list(shape))
    ):
        wanted = "" if shape is None else f", not {list(shape)}"
        raise StateCaptureError(f"{where} has shape {encoded!r}{wanted}")
    count = math.prod(encoded)
    bits = obj["bits"]
    try:
        packed = base64.b64decode(bits, validate=True)
    except (TypeError, ValueError):
        packed = None
    if (
        packed is None
        or len(packed) != (count + 7) // 8
        or base64.b64encode(packed).decode("ascii") != bits
    ):
        raise StateCaptureError(f"{where} bits do not encode {count} cells")
    cells = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    if cells[count:].any():
        raise StateCaptureError(f"{where} bits set past its last cell")
    return cells[:count].astype(bool).reshape(encoded)


def encode_params(params: DeviceParameters) -> dict:
    out = dataclasses.asdict(params)
    out["cell_kind"] = params.cell_kind.value
    return out


def decode_params(obj: dict) -> DeviceParameters:
    """Inverse of :func:`encode_params`; :class:`StateCaptureError` for
    a missing or extra field, a name that is not a string, an unknown
    cell kind or a quantity that is not a finite number (positive where
    the model divides by it)."""
    names = [f.name for f in dataclasses.fields(DeviceParameters)]
    fields = dict(_fields(obj, names, "device parameters"))
    if type(fields["name"]) is not str:
        raise StateCaptureError("device parameters' name is not a string")
    try:
        fields["cell_kind"] = CellKind(fields["cell_kind"])
    except (TypeError, ValueError):
        raise StateCaptureError(
            f"unknown cell kind {fields['cell_kind']!r}"
        ) from None
    for name in names:
        if name not in ("name", "cell_kind"):
            _real(fields, name, "device parameters", positive=name in _DIVISORS)
    return DeviceParameters(**fields)


#: The device quantities the energy model divides by.
_DIVISORS = frozenset({"r_p", "clock_hz"})


def encode_register(register: DualRegister) -> dict:
    return {
        "name": register.name,
        "values": list(register._values),
        "parity": register.parity.value,
        "staged": register._staged,
    }


def decode_register(register: DualRegister, obj: dict) -> None:
    """Inverse of :func:`encode_register`: ``obj`` must name
    ``register`` and hold two copies, each None or a word."""
    where = f"register {register.name!r}"
    _fields(obj, ("name", "values", "parity", "staged"), where)
    if obj["name"] != register.name:
        raise StateCaptureError(f"{where} is captured as {obj['name']!r}")
    values = obj["values"]
    if not isinstance(values, list) or len(values) != 2 or not all(
        v is None or (type(v) is int and v >= 0) for v in values
    ):
        raise StateCaptureError(
            f"{where} must hold two copies, each null or an integer >= 0"
        )
    register._values = list(values)
    register.parity.set(_flag(obj, "parity", where))
    register._staged = _flag(obj, "staged", where)


def encode_breakdown(breakdown: Breakdown) -> dict:
    return dataclasses.asdict(breakdown)


def decode_breakdown(obj: dict) -> Breakdown:
    """Inverse of :func:`encode_breakdown`; :class:`StateCaptureError`
    unless ``obj`` holds every ledger field and no other, the counts as
    non-negative integers and the energies and latencies as finite
    non-negative numbers."""
    hints = get_type_hints(Breakdown)
    names = [f.name for f in dataclasses.fields(Breakdown)]
    _fields(obj, names, "ledger")
    for name in names:
        if hints[name] is int:
            _count(obj, name, "ledger", low=0)
        else:
            _real(obj, name, "ledger", low=0.0)
    return Breakdown(**obj)


def _fields(obj, names, where: str) -> dict:
    """``obj`` if it is an object with exactly the fields ``names``."""
    if not isinstance(obj, dict) or set(obj) != set(names):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise StateCaptureError(
            f"{where} must hold the fields {sorted(names)}, got {got}"
        )
    return obj


def _flag(obj: dict, name: str, where: str) -> bool:
    value = obj[name]
    if type(value) is not bool:
        raise StateCaptureError(f"{where} field {name!r} is not a boolean")
    return value


def _string(obj: dict, name: str, where: str) -> str:
    value = obj[name]
    if type(value) is not str:
        raise StateCaptureError(f"{where} field {name!r} is not a string")
    return value


def _count(obj: dict, name: str, where: str, low: int) -> int:
    value = obj[name]
    if type(value) is not int or value < low:
        raise StateCaptureError(
            f"{where} field {name!r} is not an integer >= {low}"
        )
    return value


def _real(
    obj: dict, name: str, where: str, low: float = -math.inf,
    positive: bool = False,
) -> float:
    value = obj[name]
    if (
        type(value) not in (int, float)
        or not math.isfinite(value)
        or value < low
        or (positive and value <= 0)
    ):
        bound = " > 0" if positive else (f" >= {low}" if low > -math.inf else "")
        raise StateCaptureError(
            f"{where} field {name!r} is not a finite number{bound}"
        )
    return value


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


#: The fields of a captured buffer, and the non-ideality knobs it holds
#: only when they are set.
_BUFFER_FIELDS = ("capacitance", "v_off", "v_on", "voltage")
_BUFFER_KNOBS = ("leakage_amps", "esr_ohms")


def decode_buffer(obj: dict) -> EnergyBuffer:
    """Inverse of :func:`encode_buffer`; :class:`StateCaptureError`
    unless ``obj`` holds the four fields, and a knob only when it is
    positive, as finite numbers that make a valid buffer."""
    knobs = tuple(k for k in _BUFFER_KNOBS if isinstance(obj, dict) and k in obj)
    _fields(obj, _BUFFER_FIELDS + knobs, "buffer")
    for name in _BUFFER_FIELDS:
        _real(obj, name, "buffer", low=0.0)
    for name in knobs:
        _real(obj, name, "buffer", positive=True)
    return _valid("buffer", EnergyBuffer, **obj)


def _valid(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with its ``ValueError`` raised as a
    :class:`StateCaptureError` naming ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise StateCaptureError(f"{where} is invalid: {exc}") from None


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


#: The fields of each captured power source, by its ``type``.
_SOURCE_FIELDS = {
    "constant": ("type", "watts"),
    "solar": ("type", "mean_watts", "depth", "period"),
    "trace": ("type", "trace"),
}


def decode_source(obj: dict):
    """Inverse of :func:`encode_source`; :class:`StateCaptureError` for
    an unknown type, a missing or extra field, or a value that makes
    no source."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _SOURCE_FIELDS:
        raise StateCaptureError(f"unknown power-source type {kind!r}")
    where = f"{kind} source"
    _fields(obj, _SOURCE_FIELDS[kind], where)
    if kind == "trace":
        from repro.env.trace import HarvestTrace, TraceSource

        trace = _valid(where, HarvestTrace.from_json_obj, obj["trace"])
        # The trace reader fills in defaults; an image holds them all.
        if json.dumps(trace.to_json_obj(), sort_keys=True) != json.dumps(
            obj["trace"], sort_keys=True
        ):
            raise StateCaptureError(f"{where} holds a trace capture cannot write")
        return TraceSource(trace)
    args = [_real(obj, name, where) for name in _SOURCE_FIELDS[kind][1:]]
    make = ConstantPowerSource if kind == "constant" else SolarProfileSource
    return _valid(where, make, *args)


def encode_config(config: HarvestingConfig) -> dict:
    return {
        "source": encode_source(config.source),
        "buffer": encode_buffer(config.buffer),
    }


def decode_config(obj: dict) -> HarvestingConfig:
    """Inverse of :func:`encode_config` (see :func:`decode_source` and
    :func:`decode_buffer`)."""
    _fields(obj, ("source", "buffer"), "harvesting config")
    return HarvestingConfig(
        source=decode_source(obj["source"]),
        buffer=decode_buffer(obj["buffer"]),
    )


def encode_policy(policy) -> dict | None:
    """An :class:`repro.env.AdaptivePolicy` as its fields (None for the
    fixed cadence)."""
    return None if policy is None else dataclasses.asdict(policy)


def decode_policy(obj):
    """Inverse of :func:`encode_policy`; :class:`StateCaptureError`
    names what is wrong with a malformed policy."""
    if obj is None:
        return None
    from repro.env.adaptive import AdaptivePolicy

    where = "adaptive policy"
    _typed_fields(obj, AdaptivePolicy, where)
    return _valid(where, AdaptivePolicy, **obj)


def _typed_fields(obj, cls, where: str) -> None:
    """Check that ``obj`` holds exactly the fields of the dataclass
    ``cls``, each of its declared type: an integer >= 0 for an ``int``,
    a finite number for a ``float``, a string for a ``str``."""
    hints = get_type_hints(cls)
    _fields(obj, [f.name for f in dataclasses.fields(cls)], where)
    for name in obj:
        if hints[name] is int:
            _count(obj, name, where, low=0)
        elif hints[name] is float:
            _real(obj, name, where)
        elif hints[name] is str:
            _string(obj, name, where)


def decode_degraded(obj) -> dict[str, int]:
    """Degraded-mode tallies from an image (see
    :data:`repro.harvest.intermittent.DEGRADED_MODES`);
    :class:`StateCaptureError` for anything but a non-negative integer
    count of every mode."""
    from repro.harvest.intermittent import DEGRADED_MODES

    where = "degraded tallies"
    _fields(obj, DEGRADED_MODES, where)
    return {mode: _count(obj, mode, where, low=0) for mode in DEGRADED_MODES}


def encode_profile(profile: InstructionProfile) -> dict:
    return {
        "name": profile.name,
        "active_columns": profile.active_columns,
        "segments": [dataclasses.asdict(s) for s in profile.segments],
    }


def decode_profile(obj: dict) -> InstructionProfile:
    """Inverse of :func:`encode_profile`; :class:`StateCaptureError`
    unless ``obj`` holds a name, ``active_columns`` as an integer >= 1
    (as the mappings write it) and a list of segments, each with every
    :class:`~repro.harvest.intermittent.Segment` field and of its
    type."""
    _fields(obj, ("name", "active_columns", "segments"), "profile")
    _string(obj, "name", "profile")
    _count(obj, "active_columns", "profile", low=1)
    if not isinstance(obj["segments"], list):
        raise StateCaptureError("profile field 'segments' is not a list")
    segments = []
    for index, saved in enumerate(obj["segments"]):
        where = f"profile segment {index}"
        _typed_fields(saved, Segment, where)
        segments.append(_valid(where, Segment, **saved))
    return InstructionProfile(
        segments=segments,
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


#: The fields of a captured machine and of its parts.
_MACHINE_FIELDS = (
    "params", "geometry", "program", "data_tiles", "sensor", "registers",
    "controller", "ledger",
)
_GEOMETRY_FIELDS = ("n_data_tiles", "n_instruction_tiles", "rows", "cols")
_CONTROLLER_FIELDS = (
    "buffer", "powered", "halted", "phase", "dead_replay", "lost_work",
    "executed_uncommitted",
)


def restore_machine(payload: dict[str, Any]) -> Mouse:
    """Rebuild a machine from :func:`capture_machine` output, bit-exact.

    Accepts only what capture writes: every field and no other, each of
    the type capture gives it, one entry per data tile, every bit array
    in the shape of the array it fills, each register under its own
    name, and a program that decodes and validates on the captured
    geometry.  Anything else raises :class:`StateCaptureError`.
    """
    _fields(payload, _MACHINE_FIELDS, "captured machine")
    geometry = _fields(payload["geometry"], _GEOMETRY_FIELDS, "geometry")
    sizes = {name: _count(geometry, name, "geometry", low=1) for name in geometry}
    params = decode_params(payload["params"])
    # The tiles decode before the bank is built: their bits, which the
    # payload holds, bound the rows and columns the geometry asks for.
    saved_tiles = payload["data_tiles"]
    n_tiles, cols = sizes["n_data_tiles"], sizes["cols"]
    if not isinstance(saved_tiles, list) or len(saved_tiles) != n_tiles:
        raise StateCaptureError(f"captured machine must hold {n_tiles} data tiles")
    tiles = []
    for index, saved in enumerate(saved_tiles):
        where = f"data tile {index}"
        _fields(saved, ("state", "active_columns"), where)
        tiles.append((
            decode_bool_array(saved["state"], (sizes["rows"], cols), f"{where} state"),
            decode_bool_array(saved["active_columns"], (cols,), f"{where} latches"),
        ))
    try:
        mouse = Mouse(params, **sizes)
    except ValueError as exc:
        raise StateCaptureError(f"captured geometry is invalid: {exc}") from exc
    _restore_program(mouse, payload["program"])
    for tile, (state, latches) in zip(mouse.bank.data_tiles, tiles):
        tile.state[...] = state
        tile.active_columns[...] = latches
        tile._refresh_active_index()
    sensor = _fields(payload["sensor"], ("valid", "data"), "sensor")
    data = mouse.bank.sensor.data
    data[...] = decode_bool_array(sensor["data"], data.shape, "sensor data")
    mouse.bank.sensor.valid = _flag(sensor, "valid", "sensor")

    controller: MemoryController = mouse.controller
    registers = _fields(
        payload["registers"], ("pc", "act", "sensor_pc"), "registers"
    )
    decode_register(controller.pc, registers["pc"])
    decode_register(controller.activate_register, registers["act"])
    decode_register(controller.sensor_pc, registers["sensor_pc"])
    _check_register_words(mouse)

    saved = _fields(payload["controller"], _CONTROLLER_FIELDS, "controller")
    controller.buffer[...] = decode_bool_array(
        saved["buffer"], controller.buffer.shape, "transfer buffer"
    )
    controller.powered = _flag(saved, "powered", "controller")
    controller.halted = _flag(saved, "halted", "controller")
    try:
        controller.phase = Phase(saved["phase"])
    except (TypeError, ValueError):
        raise StateCaptureError(f"unknown phase {saved['phase']!r}") from None
    controller._dead_replay = _flag(saved, "dead_replay", "controller")
    controller._lost_work = _flag(saved, "lost_work", "controller")
    controller._executed_uncommitted = _flag(
        saved, "executed_uncommitted", "controller"
    )

    mouse.ledger.breakdown = decode_breakdown(payload["ledger"])
    return mouse


def _check_register_words(mouse: Mouse) -> None:
    """Reject register copies no run leaves: a PC or sensor PC past the
    program, or an ACTIVATE register word that ``power_on`` cannot
    re-issue on this bank."""
    controller, bank = mouse.controller, mouse.bank
    n = len(mouse.program)
    for register in (controller.pc, controller.sensor_pc):
        for value in register._values:
            if value is not None and value != _NONE and value >= n:
                raise StateCaptureError(
                    f"register {register.name!r} holds {value}, past the "
                    f"program's {n} instructions"
                )
    for value in controller.activate_register._values:
        if value is None or value == _NONE:
            continue
        try:
            instr = decode_cached(value)
            if not isinstance(instr, ActivateColumnsInstruction):
                raise ValueError(f"{instr} is not an ACTIVATE")
            Program._validate_one(
                instr, len(bank.data_tiles), bank.rows, bank.cols
            )
        except (ValueError, IndexError) as exc:
            raise StateCaptureError(
                f"register 'ACT' holds {value}, which power_on cannot "
                f"re-issue: {exc}"
            ) from None


#: Restored programs by their words.  A restored :class:`Program`
#: carries nothing but its instructions, so machines restored from equal
#: words share one, and with it its validate, lint and plan memos: a
#: resumed run does not lint and plan its program again.
_RESTORED: "weakref.WeakValueDictionary[tuple, Program]" = (
    weakref.WeakValueDictionary()
)


def _restore_program(mouse: Mouse, words: Any) -> None:
    """Load a captured program back into a freshly built machine.

    Rejects what capture never writes: words that are not JSON integers
    (floats, strings, booleans), words that do not decode or set bits
    their instruction does not use, and programs
    that fail :meth:`Program.validate` against the machine's geometry
    (a missing HALT included) or overflow its instruction tiles.  Equal
    words restore to one shared :class:`Program` while any machine
    holds it.
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
            instr = decode_cached(word)
        except ValueError as exc:
            raise StateCaptureError(
                f"program word {index} does not decode: {exc}"
            ) from exc
        if encode(instr) != word:
            raise StateCaptureError(
                f"program word {index} sets bits its instruction does not use"
            )
        instructions.append(instr)
    key = tuple(words)
    program = _RESTORED.get(key)
    if program is None:
        program = _RESTORED[key] = Program(instructions)
    bank = mouse.bank
    try:
        program.validate(len(bank.data_tiles), rows=bank.rows, cols=bank.cols)
        bank.load_program(words)
    except ValueError as exc:
        raise StateCaptureError(f"captured program is invalid: {exc}") from exc
    mouse._program = program
