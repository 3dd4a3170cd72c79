"""Which public entry points the traced run wraps, and the per-layer
metrics derived from the spans and counts they record.

Every ``*_s`` metric is *self* time (span duration minus child spans),
summed over the traced run's set-up and its traced op pass, so the
layer times partition the traced host time and can be ranked against
each other.
"""

from __future__ import annotations

import os

#: (name, unit, better) for every per-layer metric, in report order.
#: BENCHMARK.json's ``per_layer`` list mirrors this table.
METRICS: tuple[tuple[str, str, str], ...] = (
    ("ml.profile_s", "s", "lower"),
    ("ml.profile_calls", "count", "lower"),
    ("compile.program_s", "s", "lower"),
    ("compile.instructions", "count", "lower"),
    ("lint.program_s", "s", "lower"),
    ("lint.calls", "count", "lower"),
    ("harden.transform_s", "s", "lower"),
    ("compilejit.plan_build_s", "s", "lower"),
    ("compilejit.compiled_runs", "count", "higher"),
    ("compilejit.fallback_runs", "count", "lower"),
    ("compilejit.compiled_share", "ratio", "higher"),
    ("core.load_s", "s", "lower"),
    ("core.run_s", "s", "lower"),
    ("core.run_ns_per_instr", "ns", "lower"),
    ("perf.batch_s", "s", "lower"),
    ("perf.batch_us_per_sample", "us", "lower"),
    ("harvest.profile_run_s", "s", "lower"),
    ("harvest.profile_run_calls", "count", "lower"),
    ("harvest.intermittent_run_s", "s", "lower"),
    ("harvest.restarts", "count", "lower"),
    ("harvest.us_per_restart", "us", "lower"),
    ("env.trace_gen_s", "s", "lower"),
    ("env.source_calls", "count", "lower"),
    ("env.source_s", "s", "lower"),
    ("env.replay_s", "s", "lower"),
    ("env.inferences", "count", "higher"),
    ("env.degraded.skipped_checkpoint", "count", "lower"),
    ("env.degraded.deferred_commit", "count", "lower"),
    ("env.degraded.fail_stop", "count", "lower"),
    ("faults.campaign_self_s", "s", "lower"),
    ("faults.trials", "count", "higher"),
    ("faults.ms_per_trial", "ms", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.outcome.sdc", "count", "lower"),
    ("faults.outcome.detected_recovered", "count", "higher"),
    ("faults.outcome.detected_aborted", "count", "lower"),
    ("faults.recovered_share", "ratio", "higher"),
    ("durability.commits", "count", "lower"),
    ("durability.commit_s", "s", "lower"),
    ("durability.bytes_written", "B", "lower"),
    ("bench.harness_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "higher"),
)


def _add(key: str, amount):
    def count(tally, result, args, kwargs):
        tally[key] += amount(result, args)

    return count


def _count_campaign(tally, report, args, kwargs):
    tally["faults.trials"] += report.trials
    tally["faults.retries"] += report.totals.get("retries", 0)
    for outcome, n in report.outcomes.items():
        tally[f"faults.outcome.{outcome}"] += n


def _count_replay(tally, result, args, kwargs):
    tally["env.inferences"] += result.inferences
    for mode, n in result.degraded.items():
        tally[f"env.degraded.{mode}"] += n


def _count_commit(tally, seq, args, kwargs):
    store = args[0]
    tally["durability.bytes_written"] += os.stat(store.slot_path(seq)).st_size


def install(recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.compile.builder import ProgramBuilder
    from repro.core.accelerator import Mouse
    from repro.durability.image import NVImageStore
    from repro.env.trace import TraceSource
    from repro.faults.campaign import FaultCampaign
    from repro.harvest.intermittent import IntermittentRun, ProfileRun
    from repro.ml.mapping import BnnWorkload, SvmWorkload

    fn = recorder.wrap_function
    method = recorder.wrap_method
    for cls in (SvmWorkload, BnnWorkload):
        method(cls, "profile", "ml.profile")
    # Compile entry points nest (a campaign workload factory calls a
    # classifier compiler, which calls ProgramBuilder.finish); nested
    # calls fold into the outermost span, and instructions are counted
    # once per sealed program at finish().
    for attr in ("compile_svm_decision", "compile_bnn_output"):
        fn("repro.compile.classifier", attr, "compile.program")
    for attr in ("adder_workload", "svm_workload", "bnn_workload"):
        fn("repro.faults.campaign", attr, "compile.program")
    method(
        ProgramBuilder, "finish", "compile.program",
        _add("compile.instructions", lambda program, a: len(program)),
    )
    fn("repro.lint.linter", "lint_program", "lint.program")
    fn("repro.harden.transform", "harden_program", "harden.transform")
    fn("repro.compilejit.plan", "compile_program", "compilejit.plan_build")
    method(Mouse, "load", "core.load")
    method(
        Mouse, "run", "core.run",
        _add("core.run_instructions", lambda r, a: r.instructions),
    )
    for attr in ("svm_classify_batch", "bnn_output_predict_batch"):
        fn(
            "repro.perf.inference", attr, "perf.batch",
            _add("perf.samples", lambda r, a: len(r.predictions)),
        )
    method(
        ProfileRun, "run", "harvest.profile_run",
        _add("harvest.restarts", lambda b, a: b.restarts),
    )
    method(
        IntermittentRun, "run", "harvest.intermittent_run",
        _add("harvest.restarts", lambda b, a: b.restarts),
    )
    for attr in ("rf_burst", "solar_diurnal", "kinetic"):
        fn("repro.env.trace", attr, "env.trace_gen")
    # ~1,200 lookups per replay: aggregated, not stored span by span.
    for attr in ("energy", "time_to_harvest"):
        method(TraceSource, attr, "env.source", leaf=True)
    fn("repro.env.replay", "replay", "env.replay", _count_replay)
    method(FaultCampaign, "run", "faults.campaign", _count_campaign)
    method(NVImageStore, "commit", "durability.commit", _count_commit)


def derive(rows: dict, tally: dict, jit_delta: dict, trace_overhead: float) -> dict:
    """Per-layer metric values from :meth:`SpanRecorder.by_name` rows,
    the recorder's tally, the ``compilejit.stats_snapshot()`` delta over
    the traced pass, and the traced/untraced throughput ratio."""

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    compiled = jit_delta.get("compiled_runs", 0)
    fallback = jit_delta.get("fallback_runs", 0)
    restarts = int(tally.get("harvest.restarts", 0))
    trials = int(tally.get("faults.trials", 0))
    outcomes = {
        k: int(tally.get(f"faults.outcome.{k}", 0))
        for k in ("sdc", "detected_recovered", "detected_aborted")
    }
    out = {
        "ml.profile_s": self_s("ml.profile"),
        "ml.profile_calls": calls("ml.profile"),
        "compile.program_s": self_s("compile.program"),
        "compile.instructions": int(tally.get("compile.instructions", 0)),
        "lint.program_s": self_s("lint.program"),
        "lint.calls": calls("lint.program"),
        "harden.transform_s": self_s("harden.transform"),
        "compilejit.plan_build_s": self_s("compilejit.plan_build"),
        "compilejit.compiled_runs": compiled,
        "compilejit.fallback_runs": fallback,
        "compilejit.compiled_share": per(compiled, compiled + fallback),
        "core.load_s": self_s("core.load"),
        "core.run_s": self_s("core.run"),
        "core.run_ns_per_instr": per(
            self_s("core.run"), tally.get("core.run_instructions", 0), 1e9
        ),
        "perf.batch_s": self_s("perf.batch"),
        "perf.batch_us_per_sample": per(
            self_s("perf.batch"), tally.get("perf.samples", 0), 1e6
        ),
        "harvest.profile_run_s": self_s("harvest.profile_run"),
        "harvest.profile_run_calls": calls("harvest.profile_run"),
        "harvest.intermittent_run_s": self_s("harvest.intermittent_run"),
        "harvest.restarts": restarts,
        "harvest.us_per_restart": per(
            self_s("harvest.profile_run") + self_s("harvest.intermittent_run"),
            restarts,
            1e6,
        ),
        "env.trace_gen_s": self_s("env.trace_gen"),
        "env.source_calls": calls("env.source"),
        "env.source_s": self_s("env.source"),
        "env.replay_s": self_s("env.replay"),
        "env.inferences": int(tally.get("env.inferences", 0)),
        "faults.campaign_self_s": self_s("faults.campaign"),
        "faults.trials": trials,
        "faults.ms_per_trial": per(
            rows.get("faults.campaign", {}).get("total_s", 0.0), trials, 1e3
        ),
        "faults.retries": int(tally.get("faults.retries", 0)),
        "faults.recovered_share": per(
            outcomes["detected_recovered"], sum(outcomes.values())
        ),
        "durability.commits": calls("durability.commit"),
        "durability.commit_s": self_s("durability.commit"),
        "durability.bytes_written": int(tally.get("durability.bytes_written", 0)),
        "bench.harness_s": self_s("bench.op"),
        "obs.trace_overhead": trace_overhead,
    }
    for mode in ("skipped_checkpoint", "deferred_commit", "fail_stop"):
        out[f"env.degraded.{mode}"] = int(tally.get(f"env.degraded.{mode}", 0))
    for k, v in outcomes.items():
        out[f"faults.outcome.{k}"] = v
    return {name: out[name] for name, _, _ in METRICS}
