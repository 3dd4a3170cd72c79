"""Schema checks for the checked-in benchmark trajectory.

``BENCH_PR9.json`` is an artifact written by ``python -m repro bench
--quick --out BENCH_PR9.json``; ``make test`` reads it and never
rewrites it.  These tests validate its *shape* (schema
``repro.bench/v1``) and its recorded in-run speedups — they never time
anything themselves, so they are stable on any machine.  The in-run
timing gates live in ``benchmarks/test_bench_hotpath.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.bench import BENCHMARKS, FLOORS, SCHEMA, BenchResult, render

REPORT = Path(__file__).resolve().parents[1] / "BENCH_PR9.json"


@pytest.fixture(scope="module")
def report() -> dict:
    assert REPORT.exists(), "BENCH_PR9.json must be checked in"
    with open(REPORT, "r", encoding="utf-8") as f:
        return json.load(f)


def test_report_schema(report):
    assert report["schema"] == SCHEMA
    assert isinstance(report["quick"], bool)
    assert isinstance(report["cache"], dict)
    ops = [r["op"] for r in report["results"]]
    assert len(ops) == len(set(ops)), "duplicate op entries"


def test_every_benchmark_is_recorded(report):
    recorded = {r["op"] for r in report["results"]}
    # One entry per registered benchmark (names come from the op field
    # each bench function reports).
    assert len(recorded) == len(BENCHMARKS)


def test_result_entries_are_well_formed(report):
    for entry in report["results"]:
        assert entry["reps"] >= 1
        assert entry["ns_per_op"] > 0
        assert isinstance(entry["config"], dict)
        if "baseline" in entry:
            assert entry["baseline_ns_per_op"] > 0
            expected = entry["baseline_ns_per_op"] / entry["ns_per_op"]
            assert entry["speedup"] == pytest.approx(expected, rel=0.01)


def test_recorded_speedups_meet_the_floors(report):
    """The checked-in trajectory must satisfy the floors the hot-path
    tests enforce in-run."""
    speedups = {r["op"]: r.get("speedup") for r in report["results"]}
    for op, floor in FLOORS.items():
        assert speedups.get(op) is not None, op
        assert speedups[op] >= floor, (op, speedups[op])


def test_cache_section_counts_hits(report):
    cache = report["cache"]
    for key in ("kernel", "decode", "disasm"):
        for field in ("hits", "misses", "size"):
            assert cache[f"{key}.{field}"] >= 0
    # The bench exercises the kernel and decode hot paths heavily; a
    # cache that never hits would mean the memo keys are broken.
    assert cache["kernel.hits"] > cache["kernel.misses"]
    assert cache["decode.hits"] > cache["decode.misses"]
    # Regression guard for the PR 4 dead path: the traced-decode
    # exercise must flow words through the disasm memo table.
    assert cache["disasm.misses"] > 0
    assert cache["disasm.hits"] > 0


def test_render_handles_baseline_free_entries():
    fake = {
        "schema": SCHEMA,
        "quick": True,
        "results": [
            BenchResult(op="x", config={}, reps=1, ns_per_op=10.0).to_json_obj(),
            BenchResult(
                op="y",
                config={},
                reps=1,
                ns_per_op=10.0,
                baseline="b",
                baseline_ns_per_op=100.0,
            ).to_json_obj(),
        ],
    }
    text = render(fake)
    assert "x" in text and "10.0x" in text
