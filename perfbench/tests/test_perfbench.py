"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from collections import Counter

import pytest

from perfbench import harness, layers
from perfbench.hostclock import REFERENCE_S, HostClock
from perfbench.spans import SpanRecorder
from perfbench.workloads import WORKLOADS, HarvestSweep, Outcome

NAMES = sorted(WORKLOADS)


def _mix(workload) -> Counter:
    """Op kinds in cycle order plus the categorical choices of the cycle
    (technology, program, plan, trace family, policy, buffer)."""
    return Counter(
        (op.kind,) + tuple(
            sorted(
                (k, v) for k, v in op.params.items() if isinstance(v, (str, bool))
            )
        )
        for op in workload.ops
    )


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_op_list(name, tmp_path):
    a, b = WORKLOADS[name](7, tmp_path), WORKLOADS[name](7, tmp_path)
    assert a.ops == b.ops
    assert harness.ops_digest(a.ops) == harness.ops_digest(b.ops)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_inputs_same_mix(name, tmp_path):
    a, b = WORKLOADS[name](7, tmp_path), WORKLOADS[name](8, tmp_path)
    assert a.ops != b.ops
    if len(a.kinds) > 1:  # fixed round order
        assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    assert _mix(a) == _mix(b)


@pytest.mark.parametrize("name", ["harvest_sweep", "env_replay"])
def test_same_seed_same_digests(name, tmp_path):
    digests = []
    for _ in range(2):
        workload = WORKLOADS[name](3, tmp_path)
        workload.setup(lambda: None)
        digests.append(
            [harness.digest(workload.run(op).payload) for op in workload.ops[:12]]
        )
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", NAMES)
def test_pinned_digests_match(name, tmp_path):
    """The first op of every kind reproduces its pinned digest."""
    workload = WORKLOADS[name](0, tmp_path)
    expected = harness.load_pinned(workload)
    if expected is None:
        pytest.skip("seed 0 not pinned")
    workload.setup(lambda: None)
    try:
        for kind in workload.kinds:
            slot = next(i for i, op in enumerate(workload.ops) if op.kind == kind)
            outcome = workload.run(workload.ops[slot])
            assert workload.after(workload.ops[slot], outcome)
            assert harness.digest(outcome.payload) == expected[slot], kind
    finally:
        workload.close()


def test_perturbed_breakdown_is_a_failure(tmp_path):
    workload = HarvestSweep(0, tmp_path)
    workload.setup(lambda: None)
    good = workload.run(workload.ops[0])
    expected = [harness.digest(good.payload)] * len(workload.ops)

    tracker = harness.Tracker(workload, expected, HostClock())
    tracker.op(0)
    assert tracker.failed == 0

    breakdown = dict(good.payload["breakdown"])
    breakdown["compute_energy"] = math.nextafter(breakdown["compute_energy"], 1.0)
    workload.run = lambda op, referee=False: Outcome(
        {"breakdown": breakdown}, good.instructions, good.extra
    )
    tracker.op(0)
    assert tracker.failed == 1
    assert tracker.attempted == 2


def test_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0, 20.0, 21.5])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    a = recorder.open("A")
    b = recorder.open("B")
    recorder.leaf("L", 0.5)  # a leaf call inside B
    recorder.close(b)
    c = recorder.open("B")
    recorder.close(c)
    recorder.leaf("L", 0.25)  # a leaf call directly inside A
    recorder.close(a)
    d = recorder.open("A")
    recorder.close(d)
    assert recorder.parents == [-1, 0, 0, -1]
    assert recorder.self_times() == [6.75, 1.5, 1.0, 1.5]
    rows = recorder.by_name()
    assert rows["A"] == {"calls": 2, "self_s": 8.25, "total_s": 11.5}
    assert rows["B"] == {"calls": 2, "self_s": 2.5, "total_s": 3.0}
    assert rows["L"] == {"calls": 2, "self_s": 0.75, "total_s": 0.75}
    # Self times partition the root spans' time.
    assert sum(r["self_s"] for r in rows.values()) == 10.0 + 1.5


def test_host_clock_scale():
    clock = HostClock()
    clock.times = [0.0, 1.0, 2.0]
    clock.values = [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    assert clock.scale(0.2, 0.8) == pytest.approx(1 / 1.5)
    assert clock.scale(0.5, 1.5) == pytest.approx(0.75)
    assert clock.scale(2.5, 3.0) == pytest.approx(1.0)
    # Piecewise: [0.5, 1] and [1, 1.5] each at the mean of their samples.
    assert clock.scaled(0.5, 1.5) == pytest.approx(2 / 3)
    assert clock.scaled(-1.0, 0.0) == pytest.approx(1.0)


def test_wrappers_record_fold_reentry_and_restore():
    class Layer:
        def outer(self, n):
            return self.outer(n - 1) + 1 if n else self.inner()

        def inner(self):
            return 5

    originals = dict(vars(Layer))
    recorder = SpanRecorder()
    recorder.wrap_method(
        Layer, "outer", "L.outer",
        lambda tally, result, args, kwargs: tally.__setitem__(
            "outer", tally["outer"] + 1
        ),
    )
    recorder.wrap_method(
        Layer, "inner", "L.inner",
        lambda tally, result, args, kwargs: tally.__setitem__("n", result),
    )
    assert Layer().outer(3) == 8
    assert recorder.names == ["L.outer", "L.inner"]
    assert recorder.parents == [-1, 0]
    assert recorder.tally["n"] == 5
    assert recorder.tally["outer"] == 4  # folded calls still count
    recorder.restore()
    assert dict(vars(Layer)) == originals


def test_install_restores_every_attribute():
    import sys

    warm = SpanRecorder()  # imports every wrapped module first
    layers.install(warm)
    warm.restore()
    before = {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
    }
    from repro.core.accelerator import Mouse

    run = Mouse.run
    recorder = SpanRecorder()
    layers.install(recorder)
    assert Mouse.run is not run
    recorder.restore()
    assert Mouse.run is run
    for name, namespace in before.items():
        assert dict(vars(sys.modules[name])) == namespace, name


def _state():
    from repro import compilejit, obs
    from repro.perf.parallel import get_default_jobs

    tmp = harness.WORKDIR / "tmp"
    return (
        compilejit.enabled(),
        obs.current(),
        get_default_jobs(),
        sorted(p.name for p in tmp.iterdir()) if tmp.is_dir() else None,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_leaves_state_as_found(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    before = _state()
    args = argparse.Namespace(
        workload=name, seed=5, seconds=0.01, trace=trace, setup_only=False
    )
    assert harness.run(args, t0=0.0) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    wanted = (
        [n for n, _, _ in layers.METRICS] if trace
        else [n for n, _ in harness.END_TO_END]
    )
    assert list(result["metrics"]) == wanted
    assert _state() == before


def test_benchmark_json_matches_code():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == [
        "harvest_sweep", "env_replay", "functional_exec", "fault_campaign"
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.METRICS
    )


def test_outcome_payloads_are_plain_json(tmp_path):
    workload = HarvestSweep(1, tmp_path)
    workload.setup(lambda: None)
    outcome = workload.run(workload.ops[0])
    assert json.loads(json.dumps(outcome.payload)) == outcome.payload
    assert set(outcome.payload["breakdown"]) == {
        f.name for f in dataclasses.fields(__import__(
            "repro.energy.metrics", fromlist=["Breakdown"]).Breakdown)
    }
