"""Seeded process-kill crash injection with exact-resume verification.

The paper argues the architecture survives power loss at *any* microstep
with at most one repeated instruction.  This harness makes the same
adversarial argument about the host process: it runs a real intermittent
workload under a :class:`~repro.durability.checkpoint.Checkpointer`,
**SIGKILLs** the process at seeded instruction boundaries — and, for a
fraction of the kills, in the middle of an NVImage write — resumes from
the surviving image generation, repeats until the run completes, and
asserts the final energy breakdown and machine readout are
**byte-identical** to an uninterrupted run.

Mechanics:

* every killed attempt is a ``fork()`` child (it inherits the compiled
  workload, so 100+ kills cost about one extra full run of the
  workload); the parent verifies each child actually died by SIGKILL;
* mid-write kills route through ``NVImageStore._write_hook``, dying
  after a seeded number of bytes of the temp file — the A/B scheme must
  shrug this off because the live generations were never touched;
* between attempts the parent optionally **fuzzes** the newest
  committed generation (truncate the tail or flip one byte), modelling
  torn/bit-rotted storage: the CRC must reject it and the elder
  generation must restore (counted as ``fallbacks``).

Everything is driven by one ``default_rng(seed)`` stream, so a campaign
is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.compilejit.exec import mouse_plan
from repro.durability.checkpoint import (
    Checkpointer,
    CheckpointPolicy,
    capture_intermittent,
    resume_intermittent,
)
from repro.durability.image import NoValidImageError, NVImageStore
from repro.durability.state import capture_machine, restore_machine
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import HarvestingConfig, IntermittentRun
from repro.harvest.source import ConstantPowerSource


@dataclass(frozen=True)
class CrashPlan:
    """One seeded kill campaign over one workload.

    ``kills`` SIGKILL points are drawn (without replacement) from the
    run's instruction boundaries; ``mid_write_fraction`` of them strike
    mid-image-write instead, and after ``fuzz_fraction`` of the kills
    the parent corrupts the newest on-disk generation before resuming.
    ``period`` is the checkpoint interval in committed instructions —
    deliberately small so kills land between, at, and inside image
    commits.  The harvesting constants are scaled so the tiny campaign
    workloads still see hundreds of outages (a ~paper-sized buffer
    would make outages vanishingly rare at this instruction count).

    ``trace_family`` switches the harvester from the constant source to
    a synthetic :mod:`repro.env` trace (``constant`` / ``solar`` /
    ``rf_burst``) seeded by ``trace_seed`` and scaled around
    ``source_watts``, so kills and resumes are exercised under a
    *fluctuating* power process; ``kinetic`` is rejected because its
    dead tail fail-stops and a kill campaign needs a completable
    reference run.
    """

    workload: str = "svm"
    kills: int = 25
    seed: int = 0
    mid_write_fraction: float = 0.25
    fuzz_fraction: float = 0.25
    period: int = 16
    source_watts: float = 5e-9
    capacitance: float = 2e-10
    trace_family: str = ""
    trace_seed: int = 0

    def _source(self):
        if not self.trace_family:
            return ConstantPowerSource(self.source_watts)
        from repro.env.trace import (
            TraceSource,
            constant,
            rf_burst,
            solar_diurnal,
        )

        w = self.source_watts
        if self.trace_family == "constant":
            trace = constant(w)
        elif self.trace_family == "solar":
            # Positive night floor: every charge window terminates, so
            # the campaign's reference run always completes.
            trace = solar_diurnal(
                seed=self.trace_seed,
                peak_watts=2.0 * w,
                floor_watts=0.25 * w,
                day_length=0.05,
            )
        elif self.trace_family == "rf_burst":
            trace = rf_burst(
                seed=self.trace_seed,
                burst_watts=4.0 * w,
                idle_watts=0.25 * w,
            )
        else:
            raise ValueError(
                f"crash campaigns cannot run under trace family "
                f"{self.trace_family!r} (need a source that never dies: "
                "constant, solar or rf_burst)"
            )
        return TraceSource(trace)

    def config(self) -> HarvestingConfig:
        return HarvestingConfig(
            source=self._source(),
            buffer=EnergyBuffer(
                capacitance=self.capacitance, v_off=0.30, v_on=0.34
            ),
        )


@dataclass(frozen=True)
class CrashReport:
    """Outcome of one campaign; ``identical`` is the whole point."""

    workload: str
    seed: int
    instructions: int
    kills: int
    mid_write_kills: int
    fuzzed: int
    fallbacks: int
    attempts: int
    identical: bool
    reference: dict
    final: dict

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


class _Killed(RuntimeError):
    """Internal: a child failed to die when it should have."""


def _workload(name: str):
    from repro.faults.campaign import WORKLOADS

    try:
        return WORKLOADS[name]()
    except KeyError:
        raise ValueError(
            f"unknown crash workload {name!r}; one of: "
            + ", ".join(sorted(WORKLOADS))
        ) from None


def _breakdown_obj(run: IntermittentRun, workload) -> dict:
    out = dataclasses.asdict(run.mouse.ledger.breakdown)
    out["readout"] = [int(v) for v in workload.readout(run.mouse)]
    return out


def _fresh_or_resumed(
    plan: CrashPlan, workload, store: NVImageStore, checkpointer: Checkpointer
) -> IntermittentRun:
    try:
        return resume_intermittent(store, checkpointer=checkpointer)
    except NoValidImageError:
        # Nothing durable yet (killed before the first image commit, or
        # every generation was fuzzed away): start from scratch —
        # exactly what the uninterrupted run did.
        return IntermittentRun(
            workload.build(), plan.config(), checkpointer=checkpointer
        )


def _child_attempt(
    plan: CrashPlan,
    workload,
    store: NVImageStore,
    kill_at: Optional[int],
    mid_write_bytes: Optional[int],
    out_path: Path,
) -> None:
    """Runs inside the fork: resume, optionally self-SIGKILL, else
    finish and atomically publish the final breakdown."""
    checkpointer = Checkpointer(store, CheckpointPolicy(period=plan.period))
    run = _fresh_or_resumed(plan, workload, store, checkpointer)

    if kill_at is not None:
        if mid_write_bytes is not None:
            # Arm the store: die after `mid_write_bytes` of whichever
            # image write follows the kill boundary.
            def write_hook(written: int) -> None:
                if written >= mid_write_bytes:
                    os.kill(os.getpid(), signal.SIGKILL)

            store._chunk = 64  # fine-grained so the threshold lands inside
        target = kill_at

        original_on_commit = checkpointer.on_commit

        def killing_on_commit(r: IntermittentRun) -> None:
            original_on_commit(r)
            if r.executed >= target:
                if mid_write_bytes is not None:
                    # Force an image commit and die inside it.
                    store._write_hook = write_hook
                    checkpointer._commit(
                        capture_intermittent(r, phase="powered"), r.time
                    )
                    # The image was smaller than the byte threshold:
                    # the commit survived; die at the boundary instead.
                os.kill(os.getpid(), signal.SIGKILL)

        checkpointer.on_commit = killing_on_commit

    breakdown = run.run()
    if kill_at is not None:
        # Reaching here means the kill point was never hit — the resume
        # chain somehow skipped instructions.  Report it loudly.
        os.write(2, b"crashsim child outlived its kill point\n")
        os._exit(3)
    from repro.durability.atomic import atomic_write_json

    obj = dataclasses.asdict(breakdown)
    obj["readout"] = [int(v) for v in workload.readout(run.mouse)]
    atomic_write_json(out_path, obj, sort_keys=True)
    os._exit(0)


def _spawn(attempt: Callable[[], None]) -> int:
    """Fork, run ``attempt`` in the child, return the wait status."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            attempt()
        except BaseException as exc:  # noqa: BLE001 - child must not escape
            os.write(2, f"crashsim child crashed: {exc!r}\n".encode())
            os._exit(2)
        os._exit(0)  # pragma: no cover - attempt() always exits itself
    _, status = os.waitpid(pid, 0)
    return status


def _fuzz_generation(store: NVImageStore, rng: np.random.Generator) -> bool:
    """Corrupt the newest on-disk generation (truncate or flip a byte).

    Returns True if something was corrupted.  The next load must fall
    back to the elder generation via CRC rejection.
    """
    candidates = [
        path
        for slot in range(2)
        if (path := store.slot_path(slot)).exists()
    ]
    if not candidates:
        return False
    newest = max(candidates, key=lambda p: p.stat().st_mtime_ns)
    data = bytearray(newest.read_bytes())
    if len(data) < 2:
        return False
    if rng.random() < 0.5:
        # Torn tail: drop a random suffix.
        cut = int(rng.integers(1, len(data)))
        newest.write_bytes(bytes(data[:cut]))
    else:
        # Bit rot: flip one byte anywhere in the frame.
        index = int(rng.integers(0, len(data)))
        data[index] ^= 0xFF
        newest.write_bytes(bytes(data))
    return True


def run_crash_campaign(
    plan: CrashPlan, image_dir: str | Path
) -> CrashReport:
    """Execute one seeded kill-resume campaign; see the module docstring.

    ``image_dir`` must be empty (or nonexistent): it receives the A/B
    generations and the final breakdown JSON.
    """
    rng = np.random.default_rng(plan.seed)
    workload = _workload(plan.workload)
    image_dir = Path(image_dir)
    image_dir.mkdir(parents=True, exist_ok=True)
    if any(image_dir.iterdir()):
        raise ValueError(f"crash campaign image dir {image_dir} is not empty")

    # Uninterrupted reference, in-process.
    ref_run = IntermittentRun(workload.build(), plan.config())
    ref_run.run()
    reference = _breakdown_obj(ref_run, workload)
    total = int(reference["instructions"])
    if plan.kills >= total:
        raise ValueError(
            f"cannot place {plan.kills} kills in {total} instructions"
        )
    # Resumed children run restored machines, which share one Program
    # per word list while a machine holds it (durability.state):
    # restoring one here, held until the campaign ends, and building its
    # plan before the first fork lets every child inherit both, instead
    # of linting and planning the program again.
    restored = restore_machine(capture_machine(ref_run.mouse))
    mouse_plan(restored)

    # Seeded kill schedule: strictly increasing instruction boundaries,
    # a seeded subset striking mid-image-write.
    kill_points = sorted(
        int(k) + 1 for k in rng.choice(total - 1, size=plan.kills, replace=False)
    )
    mid_write = rng.random(plan.kills) < plan.mid_write_fraction
    fuzz_after = rng.random(plan.kills) < plan.fuzz_fraction

    store = NVImageStore(image_dir)
    out_path = image_dir / "final.json"
    mid_write_kills = 0
    fuzzed = 0
    fallbacks = 0
    attempts = 0

    for index, kill_at in enumerate(kill_points):
        strike_mid_write = bool(mid_write[index])
        # Image size is ~tens of KB; die a seeded way into the frame.
        mid_bytes = int(rng.integers(1, 4096)) if strike_mid_write else None
        attempts += 1
        status = _spawn(
            lambda: _child_attempt(
                plan, workload, NVImageStore(image_dir),
                kill_at, mid_bytes, out_path,
            )
        )
        if not (os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL):
            raise _Killed(
                f"child for kill point {kill_at} did not die by SIGKILL "
                f"(status {status:#x})"
            )
        if strike_mid_write:
            mid_write_kills += 1
        if fuzz_after[index] and _fuzz_generation(store, rng):
            fuzzed += 1
            # The acceptance bar: a corrupted generation must be
            # *detected* (CRC) and the surviving one must restore.  A
            # parent-side probe load proves it before the next child
            # depends on it.
            probe = NVImageStore(image_dir)
            try:
                probe.load()
            except NoValidImageError:
                # Only one generation existed and it is now corrupt:
                # detection worked and the next attempt starts fresh,
                # which is the correct degraded behaviour.
                pass
            fallbacks += max(probe.fallbacks, 1)

    # Final attempt: no kill — must run to completion and publish.
    attempts += 1
    status = _spawn(
        lambda: _child_attempt(
            plan, workload, NVImageStore(image_dir), None, None, out_path
        )
    )
    if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
        raise _Killed(
            f"final resume did not complete cleanly (status {status:#x})"
        )

    import json

    final = json.loads(out_path.read_text())
    return CrashReport(
        workload=plan.workload,
        seed=plan.seed,
        instructions=total,
        kills=plan.kills,
        mid_write_kills=mid_write_kills,
        fuzzed=fuzzed,
        fallbacks=fallbacks,
        attempts=attempts,
        identical=(final == reference),
        reference=reference,
        final=final,
    )
