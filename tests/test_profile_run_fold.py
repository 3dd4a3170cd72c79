"""Seeded differential test of ``ProfileRun``'s cycle fold.

Under a constant source into an ideal buffer at a fixed cadence, with
no telemetry, profiler or checkpointer, ``ProfileRun.run``'s
closed-form burst loop folds a segment's repeating restart cycles in
one step (:func:`repro.harvest.intermittent._fold_cycles`).  Each of
the ``SEEDS`` draws ``CASES`` such runs: one to four segments of
10^3-10^5 instructions whose per-instruction drain is 1/300 to 1/2 of
the buffer window, a source that refills a random share of that drain
(sometimes all of it), checkpoint periods 1-8, dead fractions 0, 1 and
random, 1-64 active columns, any start voltage, and every third run
resumed mid-segment from an image through ``resume_profile``.  Each
run is built twice and run once through ``ProfileRun.run`` and once
through its referee ``repro.perf.baseline.profile_run_reference``;
every comparison is float ``==`` on the ``Breakdown``, time, voltage
and cursor.  ``tests/test_profile_run_differential.py``'s segments of
at most 400 instructions rarely fold; these mostly do.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.devices import ALL_TECHNOLOGIES
from repro.durability import Checkpointer, CheckpointPolicy, resume_profile
from repro.energy.model import InstructionCostModel
from repro.harvest import intermittent
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import (
    HarvestingConfig,
    InstructionProfile,
    ProfileRun,
    Segment,
)
from repro.harvest.source import ConstantPowerSource
from repro.perf.baseline import profile_run_reference

SEEDS = range(6)
CASES = 12


class _Killed(BaseException):
    """Stops the run that writes the image to resume from."""


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


def draw_spec(rng, case: int) -> dict:
    """One random run, as plain values ``build`` turns into objects."""
    cap = _log_uniform(rng, 2e-10, 5e-9)
    v_off = 0.1 + 0.3 * rng.random()
    v_on = v_off + 0.01 + 0.05 * rng.random()
    window = 0.5 * cap * (v_on * v_on - v_off * v_off)
    tech = int(rng.integers(len(ALL_TECHNOLOGIES)))
    segments = []
    for _ in range(int(rng.integers(1, 5))):
        energy = window / _log_uniform(rng, 2.0, 300.0)
        segments.append(
            (
                int(_log_uniform(rng, 1e3, 1e5)),
                energy,
                energy * 0.2 * rng.random(),
            )
        )
    # The source refills a share of the cheapest segment's drain (more
    # than all of it in one run in ten).
    period = int(rng.integers(1, 9))
    drain = min(energy + backup / period for _, energy, backup in segments)
    share = 1.5 if rng.random() < 0.1 else 0.9 * rng.random()
    return {
        "tech": tech,
        "watts": share * drain / ALL_TECHNOLOGIES[tech].cycle_time,
        "active_columns": int(rng.integers(1, 65)),
        "buffer": {
            "capacitance": cap,
            "v_off": v_off,
            "v_on": v_on,
            "voltage": 1.2 * v_on * rng.random(),
        },
        "segments": segments,
        "checkpoint_period": period,
        "dead_fraction": float(rng.choice([0.0, 1.0, rng.random()])),
        "resume_after": int(rng.integers(2, 40)) if case % 3 == 2 else None,
    }


def build(spec: dict, checkpointer=None) -> ProfileRun:
    profile = InstructionProfile(
        segments=[Segment(c, e, b) for c, e, b in spec["segments"]],
        name="fold",
        active_columns=spec["active_columns"],
    )
    return ProfileRun(
        profile,
        InstructionCostModel(ALL_TECHNOLOGIES[spec["tech"]]),
        HarvestingConfig(
            ConstantPowerSource(spec["watts"]), EnergyBuffer(**spec["buffer"])
        ),
        dead_fraction=spec["dead_fraction"],
        checkpoint_period=spec["checkpoint_period"],
        checkpointer=checkpointer,
    )


def outcome(run: ProfileRun, execute) -> dict:
    execute(run)
    return {
        "breakdown": dataclasses.asdict(run.ledger.breakdown),
        "time": run.time,
        "voltage": run.config.buffer.voltage,
        "cursor": (run.seg_index, run.remaining),
    }


def _resumed_pair(spec: dict, directory):
    """Both loops resumed, without a checkpointer, from the image the
    referee wrote at its ``resume_after``-th burst boundary; None when
    the run ended first or stopped between segments."""
    checkpointer = Checkpointer(directory, CheckpointPolicy(period=1))
    commit_point = checkpointer.on_profile_point
    points = []

    def stopping(run):
        points.append(run.seg_index)
        if len(points) >= spec["resume_after"]:
            commit_point(run)
            raise _Killed

    checkpointer.on_profile_point = stopping
    try:
        profile_run_reference(build(spec, checkpointer))
        return None
    except _Killed:
        pass
    runs = resume_profile(directory), resume_profile(directory)
    if runs[0].remaining in (None, 0):
        return None
    return runs


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory) -> dict:
    folds = []
    original = intermittent._fold_cycles

    def spy(totals, columns, k):
        folds.append(k)
        return original(totals, columns, k)

    results = {}
    intermittent._fold_cycles = spy
    try:
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            for case in range(CASES):
                spec = draw_spec(rng, case)
                runs = None
                if spec["resume_after"] is not None:
                    runs = _resumed_pair(
                        spec, tmp_path_factory.mktemp(f"s{seed}c{case}")
                    )
                if runs is None:
                    spec["resume_after"] = None
                    runs = build(spec), build(spec)
                before = len(folds)
                new = outcome(runs[0], ProfileRun.run)
                results[(seed, case)] = (
                    spec,
                    new,
                    outcome(runs[1], profile_run_reference),
                    folds[before:],
                )
    finally:
        intermittent._fold_cycles = original
    return results


@pytest.mark.parametrize("seed", SEEDS)
def test_folded_runs_match_referee(outcomes, seed):
    for case in range(CASES):
        spec, new, ref, _folds = outcomes[(seed, case)]
        assert new == ref, (seed, case, spec)


def test_most_runs_fold_many_cycles(outcomes):
    """The draws reach the fold: 63 of the 72 runs fold (21 of the 24
    resumed ones), in 131 folds of 64 to 52,000 cycles (median 766);
    one run's source outruns its drain and never restarts."""
    folded = [v for v in outcomes.values() if v[3]]
    cycles = sorted(k for v in folded for k in v[3])
    assert len(folded) >= 0.8 * len(outcomes), (len(folded), len(outcomes))
    assert cycles[len(cycles) // 2] >= 100, cycles
    assert sum(1 for v in folded if v[0]["resume_after"] is not None) >= 15
    assert any(v[1]["breakdown"]["restarts"] == 0 for v in outcomes.values())


@pytest.mark.parametrize("block_rows", (intermittent._FOLD_ROWS, 7))
def test_fold_adds_one_row_at_a_time(block_rows, monkeypatch):
    """``_fold_cycles`` equals the burst loop's serial ``+=`` chain per
    total over ``k`` repeats of the cycle's rows.  ``np.add.reduce``
    over the first axis of a ``(rows, 9)`` block adds it row by row; a
    pairwise sum, which these values spread over 25 orders of
    magnitude tell apart, would not.  A NumPy that changes that order
    fails here.  At ``block_rows=7`` every block holds one repeat, so
    the carry between blocks is exercised too."""
    monkeypatch.setattr(intermittent, "_FOLD_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    pairwise = 0
    for _ in range(40):
        n = int(rng.integers(1, 13))
        rows = rng.random((n, 9)) * 10.0 ** rng.integers(-20, 5, (n, 9))
        rows[rng.random((n, 9)) < 0.3] = 0.0
        totals = (rng.random(9) * 10.0 ** rng.integers(-20, 5, 9)).tolist()
        k = int(rng.integers(1, 400))
        got = intermittent._fold_cycles(tuple(totals), rows.tolist(), k)
        want = []
        for total, column in zip(totals, rows.T.tolist()):
            chain = [total] + column * k
            for value in chain[1:]:
                total += value
            want.append(total)
            pairwise += float(np.sum(chain)) != total
        assert got == want
    assert pairwise > 0

