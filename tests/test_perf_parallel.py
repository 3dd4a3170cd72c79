"""Parallel fan-out is a throughput knob, never a results knob.

Every ``--jobs``-aware entry point must return byte-identical results
at any job count: the tasks are deterministic (per-object seeding), the
merge is ordered, and workers run with telemetry disabled.  These tests
run the same work at ``jobs=1`` and ``jobs=2`` and compare with ``==``
(and, for the fault campaign, the serialised JSON strings).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.perf.parallel import (
    cpu_count,
    get_default_jobs,
    parallel_map,
    parallel_tasks,
    set_default_jobs,
)


def _square(x):
    return x * x


def test_parallel_map_preserves_order():
    tasks = list(range(20))
    serial = parallel_map(_square, tasks, jobs=1)
    fanned = parallel_map(_square, tasks, jobs=2)
    assert serial == fanned == [x * x for x in tasks]


def test_parallel_tasks_serial_fallbacks():
    # jobs=1, a single task, and an empty list all stay in-process.
    assert parallel_tasks([lambda: 1, lambda: 2], jobs=1) == [1, 2]
    assert parallel_tasks([lambda: 3], jobs=8) == [3]
    assert parallel_tasks([], jobs=8) == []


def test_parallel_tasks_propagates_exceptions():
    def boom():
        raise RuntimeError("boom")

    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_tasks([lambda: 1, boom], jobs=jobs)


def test_nested_fanout_degrades_to_serial():
    def outer():
        # A worker that fans out again must not spawn a process tree.
        return parallel_tasks([lambda: 1, lambda: 2], jobs=2)

    assert parallel_tasks([outer, outer], jobs=2) == [[1, 2], [1, 2]]


#: A child process that fans out nested tasks 400 times in a row.
_REPEATED_FANOUTS = """
from repro.perf.parallel import parallel_tasks

def outer():
    return parallel_tasks([lambda: 1, lambda: 2], jobs=2)

for _ in range(400):
    assert parallel_tasks([outer, outer], jobs=2) == [[1, 2], [1, 2]]
"""


def test_repeated_fanouts_end_without_hanging():
    """Hundreds of fan-outs in a row finish: each pool lets its idle
    workers exit before it is torn down, so no worker gets a SIGTERM
    while it waits on the task queue.  Terminating at once hung such a
    run in 2 of 3 tries on a 2-core VM.  The child runs in its own
    session, so a hang kills its whole process tree."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    child = subprocess.Popen(
        [sys.executable, "-c", _REPEATED_FANOUTS],
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )
    try:
        assert child.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        pytest.fail("400 fan-outs did not finish within 120 s")


def test_default_jobs_round_trip():
    previous = get_default_jobs()
    try:
        set_default_jobs(3)
        assert get_default_jobs() == 3
    finally:
        set_default_jobs(previous)
    assert cpu_count() >= 1


def test_fig9_sweep_identical_at_any_job_count():
    from repro.devices.parameters import MODERN_STT
    from repro.experiments.fig9_latency_sweep import run

    powers = (100e-6, 1e-3)
    serial = run(powers=powers, technologies=(MODERN_STT,), include_sonic=False, jobs=1)
    fanned = run(powers=powers, technologies=(MODERN_STT,), include_sonic=False, jobs=2)
    assert serial == fanned
    assert len(serial) > 0


def test_fault_campaign_report_identical_at_any_job_count():
    from repro.faults import FaultCampaign, FaultPlan, WORKLOADS

    plan = FaultPlan(
        gate_flip_rates={"NAND": 2e-4, "MAJ3": 2e-4},
        array_flip_rate=1e-5,
        nv_corruption_rate=0.0,
        outage_rate=0.0,
        verify_retry=True,
        retry_budget=4,
    )
    reports = []
    for jobs in (1, 2):
        campaign = FaultCampaign(
            workload=WORKLOADS["adder"](), plan=plan, trials=4, seed=11
        )
        reports.append(campaign.run(jobs=jobs).to_json())
    assert reports[0] == reports[1]
