"""Checkpoint policy and the engine-facing hooks.

A :class:`Checkpointer` owns an :class:`~repro.durability.image.NVImageStore`
and decides *when* a run commits a new image generation:

* every ``policy.period`` committed instructions (the host-side analogue
  of the paper's Section IV-D checkpoint-frequency knob);
* at every outage boundary (right after ``power_off``), so a host crash
  during the long charging wait costs nothing on resume.

The payloads it writes are self-describing (``kind`` tag + everything
needed to rebuild the engine), so :func:`resume_intermittent` /
:func:`resume_profile` reconstruct a run object whose remaining
execution is bit-identical to the uninterrupted run's.

When telemetry is enabled the checkpointer emits ``checkpoint.commit``
events and maintains ``checkpoint.writes`` / ``checkpoint.bytes``
counters plus a ``checkpoint.write_size`` histogram; ``checkpoint.resumes``
and ``checkpoint.fallbacks`` are counted by the resume helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.durability.image import NVImageStore, encode_image
from repro.durability.state import (
    StateCaptureError,
    _count,
    _fields,
    _real,
    capture_machine,
    decode_breakdown,
    decode_config,
    decode_degraded,
    decode_params,
    decode_policy,
    decode_profile,
    encode_breakdown,
    encode_config,
    encode_params,
    encode_policy,
    encode_profile,
    restore_machine,
)
from repro.energy.metrics import EnergyLedger
from repro.energy.model import InstructionCostModel
from repro.harvest.intermittent import IntermittentRun, ProfileRun


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to write a new image generation.

    ``period`` — committed instructions between periodic images
    (instruction boundaries only).  ``at_outages`` — also image at every
    simulated outage boundary, where the machine state is smallest and
    the next event is a (host-time-free) charging wait.
    """

    period: int = 1024
    at_outages: bool = True

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("checkpoint period must be >= 1")


class Checkpointer:
    """Writes crash-consistent NVImages on behalf of a run engine.

    The engines call :meth:`on_commit` after every committed
    instruction, :meth:`on_outage` right after a simulated power-off,
    and :meth:`on_profile_point` at every closed-form burst boundary;
    the policy decides which of those become actual image commits.
    """

    def __init__(
        self,
        store: Union[NVImageStore, str, Path],
        policy: Optional[CheckpointPolicy] = None,
        telemetry=None,
    ) -> None:
        if not isinstance(store, NVImageStore):
            store = NVImageStore(store)
        self.store = store
        self.policy = policy or CheckpointPolicy()
        self.telemetry = telemetry
        #: Instruction count at the last committed image.
        self._last_count = 0
        self.commits = 0

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def on_commit(self, run: IntermittentRun) -> None:
        """Instruction-boundary hook: image every ``period`` commits and
        at the halt boundary (so a finished run always leaves a final
        image behind)."""
        due = run.executed - self._last_count >= self.policy.period
        if due or run.mouse.controller.halted:
            self._commit(capture_intermittent(run, phase="powered"), run.time)
            self._last_count = run.executed

    def on_outage(self, run: IntermittentRun) -> None:
        """Outage-boundary hook: fires right after ``power_off``."""
        if self.policy.at_outages:
            self._commit(capture_intermittent(run, phase="outage"), run.time)
            self._last_count = run.executed

    def on_profile_point(self, run: ProfileRun) -> None:
        """Burst-boundary hook for the closed-form engine."""
        count = run.ledger.breakdown.instructions
        if count - self._last_count >= self.policy.period:
            self._commit(capture_profile(run), run.time)
            self._last_count = count

    # ------------------------------------------------------------------

    def _commit(self, payload: dict, sim_time: float) -> int:
        from repro.obs import active

        seq = self.store.commit(payload)
        self.commits += 1
        obs = active(self.telemetry)
        if obs is not None:
            size = len(encode_image(payload, seq))
            obs.counter("checkpoint.writes").inc()
            obs.counter("checkpoint.bytes").inc(size)
            obs.histogram("checkpoint.write_size").observe(size)
            # The payload's engine discriminator travels as `image_kind`:
            # a data key named `kind` would clobber the event's own kind
            # in the flat JSONL wire format.
            obs.emit(
                "checkpoint.commit",
                sim_time,
                seq=seq,
                image_kind=payload.get("kind"),
                instructions=payload.get("executed")
                or payload.get("ledger", {}).get("instructions"),
            )
        return seq


# ----------------------------------------------------------------------
# Payload builders
# ----------------------------------------------------------------------


def capture_intermittent(run: IntermittentRun, phase: str) -> dict[str, Any]:
    """Full resumable state of a cycle-accurate run.

    ``phase`` is ``"powered"`` (instruction boundary, machine live) or
    ``"outage"`` (machine off, capacitor below the restart bound).  The
    run's arrays are settled first (:meth:`IntermittentRun.settle`).
    """
    if phase not in ("powered", "outage"):
        raise ValueError(f"unknown resume phase {phase!r}")
    run.settle()
    return {
        "kind": "intermittent",
        "phase": phase,
        "machine": capture_machine(run.mouse),
        "config": encode_config(run.config),
        "time": run.time,
        "executed": run.executed,
        "commits_in_window": run._commits_in_window,
        "drawn_in_window": run._drawn_in_window,
        "stalled_pc": run._stalled_pc,
        "vcap_sample_period": run.vcap_sample_period,
    }


def capture_profile(run: ProfileRun) -> dict[str, Any]:
    """Full resumable state of a closed-form profile run: the progress
    cursor, the checkpoint cadence policy and the degraded-mode tallies,
    plus everything needed to rebuild the engine."""
    if run.ledger is None:
        raise ValueError("profile run has not started; nothing to capture")
    return {
        "kind": "profile",
        "profile": encode_profile(run.profile),
        "params": encode_params(run.cost.params),
        "config": encode_config(run.config),
        "dead_fraction": run.dead_fraction,
        "checkpoint_period": run.checkpoint_period,
        "adaptive": encode_policy(run.adaptive),
        "degraded": dict(run.degraded),
        "time": run.time,
        "seg_index": run.seg_index,
        "remaining": run.remaining,
        "ledger": encode_breakdown(run.ledger.breakdown),
    }


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------


def _load(store: Union[NVImageStore, str, Path], telemetry) -> tuple[dict, int, NVImageStore]:
    from repro.obs import active

    if not isinstance(store, NVImageStore):
        store = NVImageStore(store)
    before = store.fallbacks
    payload, seq = store.load()
    obs = active(telemetry)
    if obs is not None:
        obs.counter("checkpoint.resumes").inc()
        if store.fallbacks > before:
            obs.counter("checkpoint.fallbacks").inc(store.fallbacks - before)
    return payload, seq, store


def _kind(payload, kind: str) -> None:
    """Refuse an image that does not hold a ``kind`` run."""
    held = payload.get("kind") if isinstance(payload, dict) else None
    if held != kind:
        article = "an" if kind == "intermittent" else "a"
        raise StateCaptureError(
            f"image holds a {held!r} run, not {article} {kind} one"
        )


#: The fields of an intermittent image.
_INTERMITTENT_FIELDS = (
    "kind", "phase", "machine", "config", "time", "executed",
    "commits_in_window", "drawn_in_window", "stalled_pc",
    "vcap_sample_period",
)


def resume_intermittent(
    store: Union[NVImageStore, str, Path],
    telemetry=None,
    checkpointer: Optional[Checkpointer] = None,
) -> IntermittentRun:
    """Rebuild an :class:`IntermittentRun` from the newest valid image.

    Calling ``run()`` on the result continues the run exactly where the
    image was taken; the returned breakdown is byte-identical to the
    uninterrupted run's.  An image holding anything
    :func:`capture_intermittent` cannot write — a missing or extra
    field, a count that is not an integer in range, a time that is not
    a finite number, a phase the machine is not in — raises
    :class:`StateCaptureError` naming the field.
    """
    payload, _seq, _store = _load(store, telemetry)
    _kind(payload, "intermittent")
    where = "intermittent image"
    _fields(payload, _INTERMITTENT_FIELDS, where)
    mouse = restore_machine(payload["machine"])
    phase = payload["phase"]
    if phase not in ("powered", "outage"):
        raise StateCaptureError(f"unknown resume phase {phase!r}")
    if mouse.controller.powered != (phase == "powered"):
        raise StateCaptureError(
            f"{where} has phase {phase!r} on a machine that is "
            + ("powered" if mouse.controller.powered else "off")
        )
    stalled = payload["stalled_pc"]
    if stalled is not None and not (
        type(stalled) is int and 0 <= stalled < len(mouse.program)
    ):
        raise StateCaptureError(
            f"{where} field 'stalled_pc' is neither null nor a pc of the "
            "program"
        )
    run = IntermittentRun(
        mouse,
        decode_config(payload["config"]),
        telemetry=telemetry,
        vcap_sample_period=_count(payload, "vcap_sample_period", where, low=1),
        checkpointer=checkpointer,
    )
    run.time = _real(payload, "time", where, low=0.0)
    run.executed = _count(payload, "executed", where, low=0)
    run._commits_in_window = _count(payload, "commits_in_window", where, low=0)
    run._drawn_in_window = _real(payload, "drawn_in_window", where, low=0.0)
    run._stalled_pc = stalled
    run._resume_phase = phase
    if checkpointer is not None:
        checkpointer._last_count = run.executed
    return run


#: The fields of a profile image; an image written before the cadence
#: policy and the degraded-mode tallies were stored has neither of the
#: last two.
_PROFILE_FIELDS = (
    "kind", "profile", "params", "config", "dead_fraction",
    "checkpoint_period", "time", "seg_index", "remaining", "ledger",
)
_PROFILE_LATER_FIELDS = ("adaptive", "degraded")


def resume_profile(
    store: Union[NVImageStore, str, Path],
    telemetry=None,
    checkpointer: Optional[Checkpointer] = None,
) -> ProfileRun:
    """Rebuild a :class:`ProfileRun` from the newest valid image.

    An image written before the cadence policy and the degraded-mode
    tallies were stored (it holds neither) resumes at the fixed cadence
    with zero tallies.  An image holding anything :func:`capture_profile`
    cannot write — a missing or extra field, a count that is not an
    integer in range, a cursor outside the profile, a number that is
    not finite — raises :class:`StateCaptureError` naming the field.
    """
    payload, _seq, _store = _load(store, telemetry)
    _kind(payload, "profile")
    where = "profile image"
    later = any(name in payload for name in _PROFILE_LATER_FIELDS)
    _fields(
        payload, _PROFILE_FIELDS + (_PROFILE_LATER_FIELDS if later else ()),
        where,
    )
    profile = decode_profile(payload["profile"])
    dead_fraction = _real(payload, "dead_fraction", where, low=0.0)
    if dead_fraction > 1.0:
        raise StateCaptureError(f"{where} field 'dead_fraction' is above 1")
    n_segments = len(profile.segments)
    seg_index = _count(payload, "seg_index", where, low=0)
    if seg_index > n_segments:
        raise StateCaptureError(
            f"{where} field 'seg_index' is past the profile's "
            f"{n_segments} segments"
        )
    remaining = payload["remaining"]
    if remaining is not None and not (
        seg_index < n_segments
        and type(remaining) is int
        and 0 <= remaining <= profile.segments[seg_index].count
    ):
        raise StateCaptureError(
            f"{where} field 'remaining' is neither null nor an integer "
            "within its segment's count"
        )
    params = decode_params(payload["params"])
    run = ProfileRun(
        profile,
        InstructionCostModel(params),
        decode_config(payload["config"]),
        dead_fraction=dead_fraction,
        checkpoint_period=_count(payload, "checkpoint_period", where, low=1),
        telemetry=telemetry,
        checkpointer=checkpointer,
        adaptive=decode_policy(payload.get("adaptive")),
    )
    if later:
        run.degraded = decode_degraded(payload["degraded"])
    run.time = _real(payload, "time", where, low=0.0)
    run.seg_index = seg_index
    run.remaining = remaining
    run.ledger = EnergyLedger(breakdown=decode_breakdown(payload["ledger"]))
    run._resumed = True
    if checkpointer is not None:
        checkpointer._last_count = run.ledger.breakdown.instructions
    return run
