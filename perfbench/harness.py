"""Drive one workload: set-up, referee gate, timed loop or traced run.

The loop is closed, single-process and single-threaded: one caller
issues the next op when the previous one returns.  Every op's simulated
output is digested and compared with the digest pinned for the seed in
``perfbench/pinned/`` (or, for a seed without pins, with the first
execution of the same op in the run); an op fails when it raises, when
its digest differs, or when its host-side reference check fails.

All reported times are host times scaled to the reference host speed
(see :mod:`perfbench.hostclock`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import numpy as np

from perfbench import layers
from perfbench.hostclock import HostClock
from perfbench.spans import SpanRecorder, render_table
from perfbench.workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
PINNED = HERE / "pinned"
DIGEST_CHARS = 12

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("sim_instr_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Set-ups per run (this process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 3


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def ops_digest(ops) -> str:
    return digest([[op.kind, op.params] for op in ops])


def load_pinned(workload: Workload) -> Optional[list[str]]:
    """Pinned per-op digests of the workload's cycle for its seed, or
    None when the seed has no pins."""
    path = PINNED / f"{workload.name}.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text())["seeds"].get(str(workload.seed))
    if entry is None:
        return None
    if entry["ops"] != ops_digest(workload.ops):
        raise RuntimeError(
            f"{path.name}: seed {workload.seed} pins a different op list; "
            "re-pin with perfbench/pin.py after changing a workload"
        )
    text = entry["outputs"]
    return [text[i : i + DIGEST_CHARS] for i in range(0, len(text), DIGEST_CHARS)]


def check_environment() -> None:
    """Refuse to measure unless plans are on, telemetry is off and the
    default job count is 1."""
    from repro import compilejit, obs
    from repro.perf.parallel import get_default_jobs

    if not compilejit.enabled() or obs.current().enabled or get_default_jobs() != 1:
        raise RuntimeError(
            "expected compiled plans on, telemetry off and 1 job, got "
            f"enabled={compilejit.enabled()} telemetry={obs.current().enabled} "
            f"jobs={get_default_jobs()}"
        )


class Tracker:
    """Per-op outcome bookkeeping for one pass."""

    def __init__(
        self, workload: Workload, expected: Optional[list[str]], clock: HostClock
    ):
        self.workload = workload
        self.expected = expected
        self.clock = clock
        self.seen: dict[int, str] = {}
        self.intervals: list[tuple[float, float]] = []
        self.instructions = 0
        self.failed = 0
        self._reported = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self._reported < 5:
            self._reported += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def op(self, index: int, recorder: Optional[SpanRecorder] = None) -> None:
        wl = self.workload
        slot = index % len(wl.ops)
        op = wl.ops[slot]
        outcome = None
        self.clock.maybe_sample()
        span = recorder.open("bench.op") if recorder is not None else None
        start = time.perf_counter()
        try:
            outcome = wl.run(op)
        except Exception:
            self.fail(f"op {slot} ({op.kind}) raised:\n{traceback.format_exc()}")
        finally:
            end = time.perf_counter()
            if span is not None:
                recorder.close(span)
        self.intervals.append((start, end))
        if outcome is not None:
            self.instructions += outcome.instructions
            got = digest(outcome.payload)
            want = (
                self.expected[slot]
                if self.expected is not None
                else self.seen.setdefault(slot, got)
            )
            if got != want:
                self.fail(f"op {slot} ({op.kind}) digest {got} != pinned {want}")
            elif not wl.check(op, outcome):
                self.fail(f"op {slot} ({op.kind}) host reference check")
        if not wl.after(op, outcome):
            self.fail(f"op {slot} ({op.kind}) left a bad NVImage")

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def raw_s(self) -> float:
        return sum(end - start for start, end in self.intervals)

    def scaled(self) -> list[float]:
        """Per-op latency at the reference host speed.  Call after the
        pass has ended with a final clock sample."""
        return [self.clock.scaled(start, end) for start, end in self.intervals]


def referee_gate(
    workload: Workload, expected: Optional[list[str]], clock: HostClock
) -> int:
    """Re-run one seeded op per kind on the referee (interpreter /
    scalar engines) and require byte-identical output; returns the
    number of mismatches."""
    from repro import compilejit

    rng = np.random.default_rng([workload.seed, 99])
    mismatches = 0
    for slot in workload.referee_sample(rng):
        clock.maybe_sample()
        op = workload.ops[slot]
        fast = workload.run(op)
        workload.after(op, fast)
        compilejit.set_enabled(False)
        try:
            ref = workload.run(op, referee=True)
        finally:
            compilejit.set_enabled(True)
        workload.after(op, ref)
        got, want = digest(fast.payload), digest(ref.payload)
        pinned = expected[slot] if expected is not None else got
        if got != want or got != pinned or not workload.check(op, fast):
            mismatches += 1
            print(
                f"perfbench: REFEREE MISMATCH op {slot} ({op.kind}): "
                f"fast {got} referee {want} pinned {pinned}",
                file=sys.stderr,
            )
    return mismatches


def child_setup_s(args) -> float:
    """Set-up time of a fresh process running this workload and seed."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_s: float, tracker: Tracker) -> dict:
    lat = tracker.scaled()
    busy = sum(lat)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": _quantile(lat, 90) * 1e3,
        "sim_instr_per_s": tracker.instructions / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(args, t0: float) -> int:
    clock = HostClock()
    clock.sample()
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    expected = load_pinned(workload)
    check_environment()
    recorder = SpanRecorder() if args.trace else None
    try:
        if recorder is not None:
            layers.install(recorder)
            try:
                with recorder.span("bench.setup"):
                    workload.setup(clock.maybe_sample)
            finally:
                recorder.restore()
        else:
            workload.setup(clock.maybe_sample)
        mismatches = referee_gate(workload, expected, clock)
        ready = time.perf_counter()
        clock.sample()
        setup_s = clock.scaled(t0, ready)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "referee_mismatches": mismatches}))
            return 0 if mismatches == 0 else 1

        if recorder is None:
            samples = [setup_s] + [
                child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)
            ]
            gc.collect()
            cycle = len(workload.ops)
            tracker = Tracker(workload, expected, clock)
            # Whole cycles only, so every run times the same op mix.
            deadline = time.perf_counter() + args.seconds
            index = 0
            while True:
                tracker.op(index)
                index += 1
                if index % cycle == 0 and time.perf_counter() >= deadline:
                    break
            clock.sample()
            metrics = end_to_end(statistics.median(samples), tracker)
            units = dict(END_TO_END)
            attempted, failed = tracker.attempted, tracker.failed + mismatches
            print(
                f"workload {workload.name}  seed {workload.seed}  "
                f"pinned {'yes' if expected is not None else 'no'}  "
                f"cycle {len(workload.ops)} ops\n"
                f"setup samples {', '.join(f'{s:.3f}' for s in samples)} s  "
                f"raw ops_per_s {attempted / tracker.raw_s():.6g}  "
                f"host speed {clock.overall():.3f} of reference"
            )
        else:
            metrics, units, attempted, failed = _traced(
                workload, expected, recorder, clock, args.seconds
            )
            failed += mismatches
        print(f"ops {attempted}  failed {failed}  "
              f"fail_rate {failed / max(1, attempted):.4f}  "
              f"referee mismatches {mismatches}")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.6g} {units[name]}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        if recorder is not None:
            recorder.restore()
        workload.close()


def _traced(workload, expected, recorder, clock, seconds):
    """Untraced then traced pass over the same fixed op prefix."""
    from repro import compilejit

    cycle = len(workload.ops)
    n = cycle * max(1, round(workload.trace_ops_per_second * seconds / 2 / cycle))
    gc.collect()
    plain = Tracker(workload, expected, clock)
    for index in range(n):
        plain.op(index)
    traced = Tracker(workload, expected, clock)
    before = compilejit.stats_snapshot()
    layers.install(recorder)
    try:
        for index in range(n):
            traced.op(index, recorder)
    finally:
        recorder.restore()
    after = compilejit.stats_snapshot()
    clock.sample()
    overhead = sum(plain.scaled()) / sum(traced.scaled())
    scale = clock.overall()
    rows = {
        name: {
            "calls": row["calls"],
            "self_s": row["self_s"] * scale,
            "total_s": row["total_s"] * scale,
        }
        for name, row in recorder.by_name().items()
    }
    metrics = layers.derive(
        rows,
        recorder.tally,
        {k: after[k] - before[k] for k in after},
        overhead,
    )
    recorder.write(WORKDIR / f"spans-{workload.name}.json.gz")
    print(f"workload {workload.name}  seed {workload.seed}  traced ops {n}  "
          f"(span times scaled by {scale:.3f} to the reference host speed)")
    print(render_table(rows))
    units = {name: unit for name, unit, _ in layers.METRICS}
    return metrics, units, plain.attempted + traced.attempted, plain.failed + traced.failed
