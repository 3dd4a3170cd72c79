"""Hot-path microbenchmarks with in-run baselines.

Every speedup this module reports is measured *in the same run* as the
fast path it praises: ``logic_op`` is timed against
:func:`repro.perf.baseline.logic_op_reference` (the pre-cache scalar
implementation, kept verbatim as the referee), ``ProfileRun`` against
:func:`repro.perf.baseline.profile_run_reference` (its method-call
loop), and the batch-64 classifiers against the serial per-sample
Python loop from :mod:`repro.perf.inference`.  Absolute ns/op numbers
are machine-dependent; the speedup ratios are not, which is why the
hot-path tests (``benchmarks/test_bench_hotpath.py``, part of ``make
test``) gate on ratios: the :data:`FLOORS` and half of each speedup
recorded in ``BENCH_PR9.json``.

The report is written as ``BENCH_PR9.json`` (schema ``repro.bench/v1``)
so the trajectory of the hot paths is checked into the repo next to the
code that created it (``BENCH_PR4.json`` is the kept PR-4 snapshot):

    python -m repro bench [--quick] [--out PATH] [--events PATH]

Each benchmark also runs under a ``bench.<op>`` telemetry span and the
run ends by publishing the perf-layer cache counters, so an ``--events``
log shows where the time and the cache hits went.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

SCHEMA = "repro.bench/v1"

#: In-run speedup floors, the acceptance thresholds of the PRs that
#: added each fast path.
FLOORS = {
    "logic_op": 5.0,
    "classify_svm_batch64": 10.0,
    "classify_bnn_batch64": 10.0,
    "compiled_step_instruction": 10.0,
    "compiled_intermittent_replay": 5.0,
}


@dataclass(frozen=True)
class BenchResult:
    """One timed operation, optionally paired with its in-run baseline."""

    op: str
    config: dict
    reps: int
    ns_per_op: float
    baseline: Optional[str] = None
    baseline_ns_per_op: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline_ns_per_op is None:
            return None
        return self.baseline_ns_per_op / self.ns_per_op

    def to_json_obj(self) -> dict:
        obj = {
            "op": self.op,
            "config": self.config,
            "reps": self.reps,
            "ns_per_op": round(self.ns_per_op, 1),
        }
        if self.baseline is not None:
            obj["baseline"] = self.baseline
            obj["baseline_ns_per_op"] = round(self.baseline_ns_per_op, 1)
            obj["speedup"] = round(self.speedup, 2)
        return obj


def _time_ns(fn, reps: int, warmup: bool = True) -> float:
    """ns per call: the best batch mean over ``reps`` total calls.

    Taking the minimum over a few batches (timeit's strategy) filters
    scheduler noise that would otherwise inflate the measurement — and
    since both sides of every reported speedup go through this same
    path, the ratios stay honest.  Pass ``warmup=False`` when the
    caller already exercised ``fn`` (the correctness cross-checks
    double as warm-up for the slow serial loops).
    """
    if warmup:
        fn()
    n_batches = min(5, reps)
    per_batch = max(1, reps // n_batches)
    best = None
    for _ in range(n_batches):
        start = time.perf_counter_ns()
        for _ in range(per_batch):
            fn()
        mean = (time.perf_counter_ns() - start) / per_batch
        best = mean if best is None else min(best, mean)
    return best


def _time_pair_ns(fast, ref, reps: int, ref_reps: int) -> tuple[float, float]:
    """ns per call of ``fast`` and of ``ref``, each the best of 5 batch
    means as in :func:`_time_ns`, but with the two sides' batches
    alternating: a host that changes speed mid-measurement then slows
    or speeds both sides, not only the one timed second."""
    fast()
    ref()
    best = [float("inf"), float("inf")]
    for _ in range(5):
        for side, fn, n in ((0, fast, reps // 5), (1, ref, ref_reps // 5)):
            start = time.perf_counter_ns()
            for _ in range(n):
                fn()
            best[side] = min(best[side], (time.perf_counter_ns() - start) / n)
    return best[0], best[1]


# ----------------------------------------------------------------------
# Micro-ops
# ----------------------------------------------------------------------


def bench_logic_op(quick: bool) -> BenchResult:
    """One MAJ3 gate across 1024 active columns: cached-kernel tile path
    vs the scalar reference that rebuilds its tables every call."""
    from repro.array.tile import Tile
    from repro.devices.parameters import MODERN_STT
    from repro.logic.library import MAJ3
    from repro.perf.baseline import logic_op_reference

    rows, cols = 64, 1024
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(3, cols)).astype(bool)

    input_rows, output_row = (0, 2, 4), 11  # even inputs, odd output

    def fresh_tile() -> Tile:
        tile = Tile(MODERN_STT, rows=rows, cols=cols)
        tile.activate_column_range(0, cols - 1)
        for i, row in enumerate(input_rows):
            tile.state[row, :] = bits[i]
        return tile

    fast_tile, ref_tile = fresh_tile(), fresh_tile()
    fast = fast_tile.logic_op(MAJ3, input_rows, output_row)
    ref = logic_op_reference(ref_tile, MAJ3, input_rows, output_row)
    if fast != ref:
        raise AssertionError(f"logic_op disagrees with reference: {fast} != {ref}")

    reps, ref_reps = (200, 50) if quick else (2000, 200)
    ns = _time_ns(lambda: fast_tile.logic_op(MAJ3, input_rows, output_row), reps)
    ref_ns = _time_ns(
        lambda: logic_op_reference(ref_tile, MAJ3, input_rows, output_row), ref_reps
    )
    return BenchResult(
        op="logic_op",
        config={"gate": "MAJ3", "columns": cols, "technology": MODERN_STT.name},
        reps=reps,
        ns_per_op=ns,
        baseline="scalar_rebuild",
        baseline_ns_per_op=ref_ns,
    )


def bench_trace_replay(quick: bool) -> BenchResult:
    """One harvested SVM ADULT execution under a looping solar trace —
    the inner loop of the environment sweep.  ``ProfileRun`` walks the
    trace with ``TraceSource.stepper``: one prefix-sum integral per
    step and one bisect per charge window, where a constant source is
    a closed form.  This row tracks that overhead in ``bench
    --compare`` diffs."""
    from repro.devices.parameters import MODERN_STT
    from repro.energy.model import InstructionCostModel
    from repro.env import solar_diurnal
    from repro.harvest import HarvestingConfig, ProfileRun

    from repro.ml.benchmarks import SVM_ADULT

    cost = InstructionCostModel(MODERN_STT)
    profile = SVM_ADULT.profile(cost)
    trace = solar_diurnal(seed=0, peak_watts=2e-4, floor_watts=4e-5)

    def run_once():
        config = HarvestingConfig.from_trace(MODERN_STT, trace)
        ProfileRun(profile, cost, config).run()

    reps = 3 if quick else 10
    ns = _time_ns(run_once, reps)
    return BenchResult(
        op="trace_replay",
        config={
            "workload": SVM_ADULT.name,
            "trace": trace.name,
            "family": trace.family,
            "technology": MODERN_STT.name,
        },
        reps=reps,
        ns_per_op=ns,
    )


def bench_compiled_step_instruction(quick: bool) -> BenchResult:
    """Adder workload under the AOT-compiled plan executor vs the scalar
    microstep interpreter; ns per executed instruction.  The compiled
    side's ledger is asserted byte-identical to the interpreter's before
    anything is timed."""
    from repro.faults.campaign import adder_workload

    workload = adder_workload()
    fast_mouse = workload.build()
    fast_mouse.run()  # warms the plan cache on the shared Program
    ref_mouse = workload.build()
    ref_mouse.run(compiled=False)
    if fast_mouse.ledger.breakdown != ref_mouse.ledger.breakdown:
        raise AssertionError(
            "compiled plan ledger diverges from the scalar interpreter"
        )

    def per_instruction(reps: int, compiled) -> tuple[float, int]:
        total_ns = 0
        instructions = 0
        for _ in range(reps):
            mouse = workload.build()
            start = time.perf_counter_ns()
            mouse.run(compiled=compiled)
            total_ns += time.perf_counter_ns() - start
            instructions += mouse.ledger.breakdown.instructions
        return total_ns / instructions, instructions // reps

    reps, ref_reps = (10, 3) if quick else (50, 10)
    ns, n_instr = per_instruction(reps, None)
    ref_ns, _ = per_instruction(ref_reps, False)
    return BenchResult(
        op="compiled_step_instruction",
        config={"workload": workload.name, "instructions": n_instr},
        reps=reps,
        ns_per_op=ns,
        baseline="scalar_interpreter",
        baseline_ns_per_op=ref_ns,
    )


def bench_compiled_intermittent_replay(quick: bool) -> BenchResult:
    """The Figure 9 inner loop (SVM ADULT at 100 uW): ``ProfileRun.run``
    vs the method-call loop it replaced,
    :func:`repro.perf.baseline.profile_run_reference`.  Each side keeps
    its own capacitor so the charge trajectories stay independent; the
    byte-identity cross-check runs on fresh buffers before timing.  A
    fast run takes about 0.1 ms, so every timed batch holds at least 50
    fast runs and 10 referee runs, and the two sides' batches alternate
    (:func:`_time_pair_ns`)."""
    from repro.devices.parameters import MODERN_STT
    from repro.energy.model import InstructionCostModel
    from repro.harvest import HarvestingConfig, ProfileRun
    from repro.ml.benchmarks import SVM_ADULT
    from repro.perf.baseline import profile_run_reference

    cost = InstructionCostModel(MODERN_STT)
    profile = SVM_ADULT.profile(cost)

    fast_b = ProfileRun(
        profile, cost, HarvestingConfig.paper(MODERN_STT, 100e-6)
    ).run()
    ref_b = profile_run_reference(
        ProfileRun(profile, cost, HarvestingConfig.paper(MODERN_STT, 100e-6))
    )
    if fast_b != ref_b:
        raise AssertionError(
            "ProfileRun breakdown diverges from the method-call referee"
        )

    fast_config = HarvestingConfig.paper(MODERN_STT, 100e-6)
    ref_config = HarvestingConfig.paper(MODERN_STT, 100e-6)
    reps, ref_reps = (250, 50) if quick else (1000, 100)
    ns, ref_ns = _time_pair_ns(
        lambda: ProfileRun(profile, cost, fast_config).run(),
        lambda: profile_run_reference(ProfileRun(profile, cost, ref_config)),
        reps,
        ref_reps,
    )
    return BenchResult(
        op="compiled_intermittent_replay",
        config={
            "workload": SVM_ADULT.name,
            "power_uw": 100.0,
            "technology": MODERN_STT.name,
        },
        reps=reps,
        ns_per_op=ns,
        baseline="scalar_referee",
        baseline_ns_per_op=ref_ns,
    )


# ----------------------------------------------------------------------
# Batch-64 classification: lock-step engine vs serial Python loop
# ----------------------------------------------------------------------

_BATCH = 64


def bench_classify_svm(quick: bool) -> BenchResult:
    """Batch-64 SVM decisions: one lock-step pass vs 64 serial runs."""
    from repro.compile.classifier import compile_svm_decision
    from repro.perf.inference import svm_classify_batch, svm_classify_serial

    compiled = compile_svm_decision(
        n_support=1,
        dimensions=2,
        input_bits=3,
        sv_bits=3,
        coef_bits=3,
        offset_bits=3,
        rows=1024,
        n_columns=1,
    )
    rng = np.random.default_rng(1)
    sv_int = np.array([[1, 2]])
    coef_int = np.array([2])
    offset = 1
    X = rng.integers(0, 8, size=(_BATCH, 2))

    batch = svm_classify_batch(compiled, sv_int, coef_int, offset, X)
    serial = svm_classify_serial(compiled, sv_int, coef_int, offset, X)
    if not np.array_equal(batch.predictions, serial.predictions):
        raise AssertionError("batched SVM predictions diverge from serial loop")
    if batch.breakdowns != serial.breakdowns:
        raise AssertionError("batched SVM ledgers diverge from serial loop")

    # The batched pass is cheap (~1 ms) while the serial referee is ~100x
    # that, so give the fast side enough reps for the min-of-batches
    # estimator to filter scheduler noise; one serial pass is plenty.
    reps = 10 if quick else 30
    ns = _time_ns(
        lambda: svm_classify_batch(compiled, sv_int, coef_int, offset, X), reps
    ) / _BATCH
    ref_ns = _time_ns(
        lambda: svm_classify_serial(compiled, sv_int, coef_int, offset, X),
        1,
        warmup=False,
    ) / _BATCH
    return BenchResult(
        op="classify_svm_batch64",
        config={
            "batch": _BATCH,
            "instructions": len(compiled.program),
            "rows": compiled.rows,
        },
        reps=reps,
        ns_per_op=ns,
        baseline="serial_loop",
        baseline_ns_per_op=ref_ns,
    )


def bench_classify_bnn(quick: bool) -> BenchResult:
    """Batch-64 BNN output-layer argmax: lock-step vs 64 serial runs."""
    from repro.compile.classifier import compile_bnn_output
    from repro.perf.inference import (
        bnn_output_predict_batch,
        bnn_output_predict_serial,
    )

    compiled = compile_bnn_output(fan_in=8, n_classes=3, bias_bits=4, rows=256)
    rng = np.random.default_rng(2)
    weights01 = rng.integers(0, 2, size=(8, 3))
    biases = rng.integers(0, 8, size=3)
    X_bits = rng.integers(0, 2, size=(_BATCH, 8))

    batch = bnn_output_predict_batch(compiled, weights01, biases, X_bits)
    serial = bnn_output_predict_serial(compiled, weights01, biases, X_bits)
    if not np.array_equal(batch.predictions, serial.predictions):
        raise AssertionError("batched BNN predictions diverge from serial loop")
    if batch.breakdowns != serial.breakdowns:
        raise AssertionError("batched BNN ledgers diverge from serial loop")

    reps = 10 if quick else 30  # cheap fast side, see bench_classify_svm
    ns = _time_ns(
        lambda: bnn_output_predict_batch(compiled, weights01, biases, X_bits), reps
    ) / _BATCH
    ref_ns = _time_ns(
        lambda: bnn_output_predict_serial(compiled, weights01, biases, X_bits),
        1,
        warmup=False,
    ) / _BATCH
    return BenchResult(
        op="classify_bnn_batch64",
        config={
            "batch": _BATCH,
            "instructions": len(compiled.program),
            "rows": compiled.rows,
        },
        reps=reps,
        ns_per_op=ns,
        baseline="serial_loop",
        baseline_ns_per_op=ref_ns,
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

BENCHMARKS = (
    bench_logic_op,
    bench_compiled_step_instruction,
    bench_compiled_intermittent_replay,
    bench_trace_replay,
    bench_classify_svm,
    bench_classify_bnn,
)


def exercise_traced_decode() -> None:
    """Drive one traced run so the disassembly memo sees real traffic.

    No benchmark attaches telemetry — the timed paths all run with the
    controller's obs hook detached — so ``disassemble_word``'s cache
    counters were permanently zero in every checked-in report and a
    broken memo (stale key, dropped decorator) would have gone
    unnoticed.  One traced interpreter pass over the adder workload
    disassembles each distinct word once (misses) and every replayed
    loop iteration after that from the cache (hits), making the
    published ``disasm.*`` stats a live regression signal.
    """
    from repro.faults.campaign import adder_workload
    from repro.obs import InMemorySink, Telemetry

    mouse = adder_workload().build()
    mouse.attach_telemetry(Telemetry(InMemorySink()))
    mouse.run(compiled=False)  # the plan executor never decodes words


def run_bench(quick: bool = False, telemetry=None) -> dict:
    """Run every benchmark; returns the ``repro.bench/v1`` report."""
    from repro.perf.kernels import cache_stats, publish_cache_stats

    if telemetry is None:
        from repro.obs import current

        telemetry = current()

    results = []
    for bench in BENCHMARKS:
        with telemetry.span(f"bench.{bench.__name__}"):
            result = bench(quick)
        telemetry.counter(f"bench.{result.op}.reps").inc(result.reps)
        results.append(result)
    with telemetry.span("bench.exercise_traced_decode"):
        exercise_traced_decode()
    publish_cache_stats(telemetry)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "results": [r.to_json_obj() for r in results],
        "cache": cache_stats(),
    }


def render(report: dict) -> str:
    from repro.experiments._format import format_table

    rows = []
    for r in report["results"]:
        speedup = r.get("speedup")
        rows.append(
            (
                r["op"],
                f"{r['ns_per_op'] / 1e3:.1f}",
                r.get("baseline", "-"),
                f"{r['baseline_ns_per_op'] / 1e3:.1f}"
                if "baseline_ns_per_op" in r
                else "-",
                f"{speedup:.1f}x" if speedup is not None else "-",
            )
        )
    table = format_table(
        ["op", "us/op", "baseline", "baseline us/op", "speedup"], rows
    )
    mode = "quick" if report["quick"] else "full"
    return f"hot-path benchmarks ({mode} mode, schema {report['schema']})\n{table}"


def write_report(report: dict, path: str) -> None:
    from repro.durability.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: str) -> dict:
    """Read and schema-check a ``repro.bench/v1`` report file."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} report "
            f"(schema={report.get('schema') if isinstance(report, dict) else '?'!r})"
        )
    return report


def compare_reports(old: dict, new: dict, threshold: float = 0.30) -> dict:
    """Diff two ``repro.bench/v1`` reports op-by-op.

    For every op present in both reports the comparison carries the
    ns/op ratio (``new / old``; > 1 is a slowdown) and, where both
    sides measured an in-run baseline, the speedup delta.  An op
    regresses when its ns/op grew by more than ``threshold``
    (fractional — 0.30 tolerates the ~tens-of-percent noise absolute
    timings carry across machines and runs; the in-run speedup ratios
    are steadier, but the gate is on time so a baseline regression
    cannot mask one).
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    old_ops = {r["op"]: r for r in old["results"]}
    new_ops = {r["op"]: r for r in new["results"]}
    ops = []
    for op in old_ops:
        if op not in new_ops:
            continue
        o, n = old_ops[op], new_ops[op]
        ratio = n["ns_per_op"] / o["ns_per_op"] if o["ns_per_op"] else float("inf")
        entry = {
            "op": op,
            "old_ns_per_op": o["ns_per_op"],
            "new_ns_per_op": n["ns_per_op"],
            "ratio": round(ratio, 3),
            "regressed": ratio > 1.0 + threshold,
        }
        if "speedup" in o and "speedup" in n:
            entry["old_speedup"] = o["speedup"]
            entry["new_speedup"] = n["speedup"]
            entry["speedup_delta"] = round(n["speedup"] - o["speedup"], 2)
        ops.append(entry)
    return {
        "schema": "repro.bench.compare/v1",
        "threshold": threshold,
        "ops": ops,
        "only_old": sorted(set(old_ops) - set(new_ops)),
        "only_new": sorted(set(new_ops) - set(old_ops)),
        "regressions": sorted(e["op"] for e in ops if e["regressed"]),
    }


def render_compare(comparison: dict) -> str:
    from repro.experiments._format import format_table

    rows = []
    for e in comparison["ops"]:
        delta = e.get("speedup_delta")
        rows.append(
            (
                e["op"],
                f"{e['old_ns_per_op'] / 1e3:.1f}",
                f"{e['new_ns_per_op'] / 1e3:.1f}",
                f"{e['ratio']:.2f}x",
                f"{delta:+.2f}" if delta is not None else "-",
                "REGRESSED" if e["regressed"] else "ok",
            )
        )
    table = format_table(
        ["op", "old us/op", "new us/op", "new/old", "speedup delta", "verdict"],
        rows,
    )
    out = [
        f"benchmark comparison (threshold {comparison['threshold']:.0%} slowdown)",
        table,
    ]
    if comparison["only_old"]:
        out.append(f"only in old: {', '.join(comparison['only_old'])}")
    if comparison["only_new"]:
        out.append(f"only in new: {', '.join(comparison['only_new'])}")
    if comparison["regressions"]:
        out.append(f"REGRESSIONS: {', '.join(comparison['regressions'])}")
    else:
        out.append("no regressions")
    return "\n".join(out)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="hot-path microbenchmarks")
    parser.add_argument("--out", default="BENCH_PR9.json")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick)
    print(render(report))
    write_report(report, args.out)
    print(f"report: {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
