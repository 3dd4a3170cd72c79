"""Telemetry smoke test: a small SVM kernel, fully traced, validated.

    python -m repro.obs.smoke [--events PATH] [--trace PATH]
        [--manifest-dir DIR] [--keep]

Compiles one polynomial-SVM kernel evaluation ``(x . sv + offset)^2``
to a MOUSE program, executes it bit-exactly under an energy harvester
with a deliberately tiny capacitor window (so outages, restores, and
dead replays all occur), with every sink attached.  It then validates
the emitted artifacts:

* the JSONL event log conforms to the event schema,
* its per-category energy sums equal the run's Breakdown to 1e-12 J,
* the Chrome-trace JSON conforms to the Perfetto trace-event schema,
* the in-array result equals the Python reference,
* the attached :class:`~repro.obs.prof.EnergyProfiler` root equals the
  run's Breakdown **bit-exactly** and its collapsed-stack flamegraph
  files pass :func:`~repro.obs.prof.validate_collapsed`,
* the attached checkpointer drove the ``checkpoint.*`` counters and its
  ``checkpoint.commit`` events survive the replay (``stats``) path,
* one live scrape of the :class:`~repro.obs.export.MetricsServer`
  ``/metrics`` endpoint carries the counters and per-scope gauges.

Exit status 0 means the whole telemetry pipeline is healthy; it is
wired into ``make obs-smoke`` (part of ``make test``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.compile import arith
from repro.compile.builder import ProgramBuilder
from repro.compile.dot import emit_dot_product
from repro.core.accelerator import Mouse
from repro.devices.parameters import MODERN_STT
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import HarvestingConfig, IntermittentRun
from repro.harvest.source import ConstantPowerSource
from repro.obs.manifest import write_manifest
from repro.obs.replay import replay
from repro.obs.schema import validate_events_jsonl, validate_perfetto
from repro.obs.telemetry import from_paths

#: Category name -> Breakdown attribute, for the sum cross-check.
_ENERGY_ATTRS = {
    "compute": "compute_energy",
    "backup": "backup_energy",
    "dead": "dead_energy",
    "restore": "restore_energy",
}


def build_kernel_machine(bits: int = 3):
    """Compile ``(x . sv + offset)^2`` for small fixed inputs."""
    rng = np.random.default_rng(0)
    x = rng.integers(1, 1 << bits, size=2)
    sv = rng.integers(1, 1 << bits, size=2)
    offset = 2

    builder = ProgramBuilder(tile=0, rows=2048, cols=1, reserved_rows=64)
    builder.activate((0,))
    rows = iter(range(0, 64, 2))
    xs = [builder.word_at([next(rows) for _ in range(bits)]) for _ in x]
    ws = [builder.word_at([next(rows) for _ in range(bits)]) for _ in sv]
    off = builder.word_at([next(rows) for _ in range(2)])
    dot = emit_dot_product(builder, xs, ws)
    shifted = arith.ripple_add(builder, dot, off)
    kernel = arith.square(builder, shifted)
    program = builder.finish()

    machine = Mouse(MODERN_STT, rows=2048, cols=1)
    for word, value in zip(xs + ws + [off], list(x) + list(sv) + [offset]):
        for i, bit in enumerate(word):
            machine.tile(0).set_bit(bit.row, 0, (int(value) >> i) & 1)
    machine.load(program)
    expected = (int(np.dot(x, sv)) + offset) ** 2
    return machine, kernel, expected


def harvesting_config() -> HarvestingConfig:
    """A window barely bigger than the costliest instruction: plenty of
    outages in a short program, exercising every power-event path."""
    return HarvestingConfig(
        source=ConstantPowerSource(2e-9),
        buffer=EnergyBuffer(capacitance=100e-6, v_off=0.00030, v_on=0.00034),
    )


def run_smoke(events: str, trace: str, manifest_dir: str) -> int:
    from repro.durability.checkpoint import Checkpointer, CheckpointPolicy
    from repro.obs.prof import EnergyProfiler, validate_collapsed

    telemetry = from_paths(events=events, trace=trace)
    machine, kernel, expected = build_kernel_machine()
    profiler = EnergyProfiler()
    machine.attach_profiler(profiler)
    base = Path(manifest_dir)
    checkpointer = Checkpointer(
        str(base / "images"),
        CheckpointPolicy(period=256, at_outages=True),
        telemetry=telemetry,
    )

    with telemetry.span("trace-smoke", workload="svm-kernel"):
        run = IntermittentRun(
            machine,
            harvesting_config(),
            telemetry=telemetry,
            vcap_sample_period=16,
            checkpointer=checkpointer,
        )
        breakdown = run.run(max_instructions=1_000_000)
    telemetry.close()

    failures: list[str] = []

    got = 0
    for i, bit in enumerate(kernel):
        got |= machine.tile(0).get_bit(bit.row, 0) << i
    if got != expected:
        failures.append(f"in-array result {got} != python reference {expected}")

    n_events = validate_events_jsonl(events)
    n_trace = validate_perfetto(trace)
    if n_events == 0:
        failures.append("event log is empty")
    if n_trace == 0:
        failures.append("perfetto trace is empty")

    stats = replay(events, top=3)
    for category, attr in _ENERGY_ATTRS.items():
        logged = stats.energy_by_category.get(category, 0.0)
        ledger = getattr(breakdown, attr)
        if abs(logged - ledger) > 1e-12:
            failures.append(
                f"{category} energy: events sum {logged!r} != ledger {ledger!r}"
            )
    if stats.restarts != breakdown.restarts:
        failures.append(
            f"restarts: events {stats.restarts} != ledger {breakdown.restarts}"
        )

    # -- profiler: per-scope attribution must replay the ledger exactly.
    if profiler.root != breakdown:
        failures.append(
            f"profiler root breakdown is not bit-exact: "
            f"{profiler.root} != {breakdown}"
        )
    n_scopes = len(profiler.rows())
    if n_scopes < 3:  # run + macro scopes from the compiled kernel
        failures.append(f"profiler saw only {n_scopes} scopes")
    n_stacks = {}
    for metric in ("energy", "time"):
        flame = str(base / f"flame-{metric}.folded")
        profiler.write_collapsed(flame, metric=metric)
        try:
            n_stacks[metric] = validate_collapsed(flame)
        except (OSError, ValueError) as exc:
            failures.append(f"flamegraph lint ({metric}): {exc}")
            n_stacks[metric] = 0

    # -- checkpointing: counters populated and commit events replayable.
    counters = telemetry.snapshot()["counters"]
    if counters.get("checkpoint.writes", 0) < 1:
        failures.append("checkpoint.writes counter never incremented")
    if counters.get("checkpoint.bytes", 0) <= 0:
        failures.append("checkpoint.bytes counter never incremented")
    if stats.checkpoints != counters.get("checkpoint.writes", 0):
        failures.append(
            f"checkpoint.commit events ({stats.checkpoints}) != "
            f"checkpoint.writes counter ({counters.get('checkpoint.writes')})"
        )
    from repro.obs.replay import render as render_stats

    if "checkpoints committed" not in render_stats(stats, top=0):
        failures.append("stats render does not surface checkpoint counts")

    # -- exporter: one live scrape of /metrics and /profile.
    import urllib.request

    from repro.obs.export import MetricsServer

    server = MetricsServer(telemetry, profiler=profiler, port=0).start()
    try:
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as r:
            scraped = r.read().decode("utf-8")
        with urllib.request.urlopen(f"{server.url}/profile", timeout=10) as r:
            profile_body = r.read().decode("utf-8")
    finally:
        server.close()
    for needle in (
        "repro_checkpoint_writes_total",
        "repro_harvest_outages_total",
        "repro_scope_energy_joules",
        "repro_events_emitted_total",
    ):
        if needle not in scraped:
            failures.append(f"/metrics scrape is missing {needle}")
    if '"rows"' not in profile_body:
        failures.append("/profile response carries no attribution rows")

    manifest_path = write_manifest(
        manifest_dir,
        command=["python", "-m", "repro.obs.smoke"],
        config={"workload": "svm-kernel", "events": events, "trace": trace},
        seed=0,
        metrics=telemetry.snapshot(),
    )

    if failures:
        for failure in failures:
            print(f"obs-smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"obs-smoke ok: {breakdown.instructions} instructions, "
        f"{breakdown.restarts} restarts, {n_events} events validated, "
        f"{n_trace} trace events validated, result {got} == {expected}"
    )
    print(
        f"  profiler: {n_scopes} scopes, attribution bit-exact; "
        f"flamegraphs {n_stacks['energy']}/{n_stacks['time']} stacks"
    )
    print(
        f"  checkpoints: {stats.checkpoints} committed; "
        f"/metrics scraped ({len(scraped.splitlines())} lines)"
    )
    print(f"  events:   {events}")
    print(f"  trace:    {trace}")
    print(f"  manifest: {manifest_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", metavar="PATH")
    parser.add_argument("--trace", metavar="PATH")
    parser.add_argument("--manifest-dir", metavar="DIR")
    args = parser.parse_args(argv)
    if args.events and args.trace and args.manifest_dir:
        return run_smoke(args.events, args.trace, args.manifest_dir)
    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as tmp:
        base = Path(tmp)
        return run_smoke(
            args.events or str(base / "events.jsonl"),
            args.trace or str(base / "trace.json"),
            args.manifest_dir or str(base),
        )


if __name__ == "__main__":
    sys.exit(main())
