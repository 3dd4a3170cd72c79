"""Hot-path micro-ops under pytest-benchmark (PR 4 perf layer).

Unlike the experiment-regeneration benchmarks in this suite, these time
the simulator's inner loops: one cached-kernel gate execution, the
compiled-plan executors against the controller microstep loop, a
gate-flip campaign's and an outage campaign's batched trials against
interpreted ones, a harvested replay, and the batch-64 lock-step
classifiers.  Every op with a baseline gates on its speedup, measured
against the scalar/serial referee in the same run, so the ratio is
machine-independent even though the ns/op is not:

* the speedup must reach its floor in :data:`repro.perf.bench.FLOORS`;
* it must not fall below half the speedup recorded in the committed
  ``BENCH_PR9.json``.  A missing, unreadable or wrong-schema report
  fails the gate rather than skipping it.
"""

from pathlib import Path

import pytest

from repro.perf import bench as hotpath

REPORT = Path(__file__).resolve().parents[1] / "BENCH_PR9.json"

#: A speedup below this fraction of the recorded one is a regression.
REGRESSION_FRACTION = 0.5


@pytest.fixture(scope="module")
def recorded_speedups() -> dict:
    report = hotpath.load_report(str(REPORT))
    return {
        r["op"]: r["speedup"] for r in report["results"] if "speedup" in r
    }


def assert_speedup_gates(result, recorded_speedups) -> None:
    floor = hotpath.FLOORS[result.op]
    assert result.speedup >= floor, (result.op, result.speedup, floor)
    recorded = recorded_speedups[result.op]
    assert result.speedup >= recorded * REGRESSION_FRACTION, (
        result.op,
        result.speedup,
        recorded,
    )


def test_logic_op(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_logic_op, True)
    assert_speedup_gates(result, recorded_speedups)


def test_compiled_step_instruction(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_compiled_step_instruction, True)
    assert_speedup_gates(result, recorded_speedups)


def test_compiled_intermittent_replay(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_compiled_intermittent_replay, True)
    assert_speedup_gates(result, recorded_speedups)


def test_compiled_campaign_trials(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_compiled_campaign_trials, True)
    assert_speedup_gates(result, recorded_speedups)


def test_compiled_outage_trials(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_compiled_outage_trials, True)
    assert_speedup_gates(result, recorded_speedups)


def test_classify_svm_batch64(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_classify_svm, True)
    assert_speedup_gates(result, recorded_speedups)


def test_classify_bnn_batch64(regen, benchmark, recorded_speedups):
    result = regen(benchmark, hotpath.bench_classify_bnn, True)
    assert_speedup_gates(result, recorded_speedups)
