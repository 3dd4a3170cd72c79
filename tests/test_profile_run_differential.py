"""Seeded differential test: ``ProfileRun.run`` against its referee.

``repro.perf.baseline.profile_run_reference`` is the method-call loop
``ProfileRun.run`` replaced.  Each seed draws random runs the paper
benchmarks never reach: random piecewise traces (hold and loop tails,
zero-power samples, dead tails), the ``rf_burst`` / ``solar`` /
``kinetic`` generators, ``SolarProfileSource``, constant sources and
constant traces; leaky and ESR buffers starting at any voltage;
``AdaptivePolicy`` knobs, checkpoint periods 1-8 and dead fractions;
the profiler and telemetry on and off; start times inside the trace;
and runs resumed from a mid-run image.  The same spec is built twice
and run once through each loop.  ``ProfileRun.run`` hands an observed
run (telemetry, a profiler or a host checkpointer) to the referee, so
its side is built without the profiler and telemetry and runs the
hoisted loop, while the referee's side keeps them: the hooks must not
move a number.  Every comparison is exact: float ``==`` on the
``Breakdown``, time, voltage, cursor and degraded tallies, and for
``NonTerminationError`` / ``ChargeWindowFailure`` the type, message
and attributes.  ``test_observed_runs_take_the_referee`` checks which
runs take the referee.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.devices import ALL_TECHNOLOGIES
from repro.durability import Checkpointer, CheckpointPolicy, resume_profile
from repro.energy.model import InstructionCostModel
from repro.env import (
    AdaptivePolicy,
    HarvestTrace,
    TraceSource,
    constant,
    kinetic,
    rf_burst,
    solar_diurnal,
)
from repro.harvest.capacitor import EnergyBuffer, buffer_for
from repro.harvest.intermittent import (
    ChargeWindowFailure,
    HarvestingConfig,
    InstructionProfile,
    NonTerminationError,
    ProfileRun,
    Segment,
)
from repro.harvest.source import ConstantPowerSource, SolarProfileSource
from repro.obs import InMemorySink, Telemetry, use
from repro.obs.prof import EnergyProfiler
from repro.perf import baseline
from repro.perf.baseline import profile_run_reference

SEEDS = range(10)
CASES = 24
SOURCES = (
    "constant",
    "constant_trace",
    "piecewise",
    "rf_burst",
    "solar",
    "kinetic",
    "solar_profile",
)


class _Killed(BaseException):
    """Stops the run that writes the images to resume from."""


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


def _piecewise(rng, level: float) -> HarvestTrace:
    n = int(rng.integers(2, 10))
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + _log_uniform(rng, 1e-6, 1e-3))
    watts = [
        0.0 if rng.random() < 0.25 else level * _log_uniform(rng, 0.1, 10.0)
        for _ in range(n)
    ]
    if rng.random() < 0.5:
        period = times[-1] + _log_uniform(rng, 1e-6, 1e-3)
        return HarvestTrace("piecewise", times, watts, extend="loop", period=period)
    if rng.random() < 0.3:
        watts[-1] = 0.0  # dead tail: the harvester stops for good
    return HarvestTrace("piecewise", times, watts)


def draw_spec(rng, case: int) -> dict:
    """One random run, as plain values ``build`` turns into objects."""
    cap = _log_uniform(rng, 2e-10, 5e-9)
    v_off = 0.1 + 0.3 * rng.random()
    v_on = v_off + 0.01 + 0.05 * rng.random()
    window = 0.5 * cap * (v_on * v_on - v_off * v_off)
    segments = []
    for k in range(int(rng.integers(1, 8))):
        energy = window / _log_uniform(rng, 0.7, 300.0)  # > window: stuck
        segments.append(
            (
                0 if rng.random() < 0.1 else int(rng.integers(1, 400)),
                energy,
                energy * 0.2 * rng.random(),
                f"s{k}" if rng.random() < 0.7 else "",
            )
        )
    adaptive = None
    if rng.random() < 0.5:
        tighten = 0.05 + 0.85 * rng.random()
        adaptive = {
            "max_period": int(rng.integers(1, 33)),
            "tighten_below": tighten,
            "defer_below": tighten * rng.random(),
            "max_charge_retries": int(rng.integers(0, 11)),
            "charge_backoff": 1.0 + 2.0 * rng.random(),
        }
    return {
        "source": SOURCES[case % len(SOURCES)],
        "level": _log_uniform(rng, 1e-8, 1e-3),
        "source_seed": int(rng.integers(1 << 16)),
        "tech": int(rng.integers(len(ALL_TECHNOLOGIES))),
        "active_columns": int(rng.integers(1, 65)),
        "buffer": {
            "capacitance": cap,
            "v_off": v_off,
            "v_on": v_on,
            "voltage": 1.2 * v_on * rng.random(),
            "leakage_amps": (
                0.0 if rng.random() < 0.5 else _log_uniform(rng, 1e-9, 1e-5)
            ),
            "esr_ohms": 0.0 if rng.random() < 0.6 else _log_uniform(rng, 0.1, 1e5),
        },
        "segments": segments,
        "adaptive": adaptive,
        "checkpoint_period": int(rng.integers(1, 9)),
        "dead_fraction": float(rng.choice([0.0, 1.0, rng.random()])),
        "start": rng.random() if rng.random() < 0.4 else 0.0,
        "profiler": case % 2 == 1,
        "telemetry": case % 5 == 0,
        "resume_after": int(rng.integers(1, 30)) if case % 4 == 3 else None,
        "trace_rng": int(rng.integers(1 << 30)),
    }


def _source(spec: dict):
    level, seed = spec["level"], spec["source_seed"]
    rng = np.random.default_rng(spec["trace_rng"])
    kind = spec["source"]
    if kind == "constant":
        return ConstantPowerSource(level)
    if kind == "solar_profile":
        return SolarProfileSource(
            level, depth=rng.random(), period=_log_uniform(rng, 1e-5, 1e-2)
        )
    if kind == "constant_trace":
        trace = constant(level)
    elif kind == "piecewise":
        trace = _piecewise(rng, level)
    elif kind == "rf_burst":
        period = _log_uniform(rng, 1e-5, 1e-2)
        trace = rf_burst(
            seed,
            burst_watts=10.0 * level,
            idle_watts=0.0 if rng.random() < 0.3 else 0.1 * level,
            burst_duration=period * (0.05 + 0.9 * rng.random()),
            burst_period=period,
            n_bursts=int(rng.integers(1, 7)),
        )
    elif kind == "solar":
        trace = solar_diurnal(
            seed,
            peak_watts=3.0 * level,
            floor_watts=0.0 if rng.random() < 0.5 else 0.1 * level,
            day_length=_log_uniform(rng, 1e-4, 1e-2),
            samples_per_day=int(rng.integers(4, 25)),
        )
    else:
        trace = kinetic(
            seed,
            mean_watts=level,
            step_period=_log_uniform(rng, 1e-5, 1e-3),
            duty=0.1 + 0.8 * rng.random(),
            n_steps=int(rng.integers(1, 17)),
        )
    return TraceSource(trace)


def build(spec: dict, checkpointer=None, hooked: bool = True) -> ProfileRun:
    """The run ``spec`` draws; with ``hooked`` False, without its
    profiler and telemetry."""
    source = _source(spec)
    span = getattr(getattr(source, "trace", None), "span", 0.0) or 1e-3
    cost = InstructionCostModel(ALL_TECHNOLOGIES[spec["tech"]])
    profile = InstructionProfile(
        segments=[Segment(c, e, b, label) for c, e, b, label in spec["segments"]],
        name="random",
        active_columns=spec["active_columns"],
    )
    run = ProfileRun(
        profile,
        cost,
        HarvestingConfig(source, EnergyBuffer(**spec["buffer"])),
        dead_fraction=spec["dead_fraction"],
        checkpoint_period=spec["checkpoint_period"],
        profiler=EnergyProfiler() if hooked and spec["profiler"] else None,
        telemetry=(
            Telemetry(InMemorySink()) if hooked and spec["telemetry"] else None
        ),
        checkpointer=checkpointer,
        adaptive=(
            AdaptivePolicy(**spec["adaptive"]) if spec["adaptive"] else None
        ),
    )
    run.time = spec["start"] * span
    return run


def _error(exc) -> tuple:
    if isinstance(exc, NonTerminationError):
        attrs = (exc.instruction_energy,)
    else:
        attrs = (exc.voltage, exc.needed, exc.retries)
    return (type(exc).__name__, str(exc), exc.trace_position) + attrs


def outcome(run: ProfileRun, execute) -> dict:
    error = None
    try:
        execute(run)
    except (NonTerminationError, ChargeWindowFailure) as exc:
        error = _error(exc)
    return {
        "breakdown": dataclasses.asdict(run.ledger.breakdown),
        "time": run.time,
        "voltage": run.config.buffer.voltage,
        "cursor": (run.seg_index, run.remaining),
        "degraded": dict(run.degraded),
        "error": error,
    }


def _resumed_pair(spec: dict, directory):
    """Both loops resumed from the newest image the referee wrote
    before it was stopped after ``resume_after`` burst boundaries, the
    referee's side with the spec's hooks; None when the run ended
    first."""
    checkpointer = Checkpointer(directory, CheckpointPolicy(period=1))
    commit_point = checkpointer.on_profile_point
    points = []

    def stopping(run):
        commit_point(run)
        points.append(run.seg_index)
        if len(points) >= spec["resume_after"]:
            raise _Killed

    checkpointer.on_profile_point = stopping
    try:
        profile_run_reference(build(spec, checkpointer))
        return None
    except (NonTerminationError, ChargeWindowFailure):
        return None
    except _Killed:
        pass

    hooked = resume_profile(directory)
    hooked.profiler = EnergyProfiler() if spec["profiler"] else None
    if spec["telemetry"]:
        hooked.telemetry = Telemetry(InMemorySink())
    return resume_profile(directory), hooked


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory) -> dict:
    results = {}
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
                runs = build(spec, hooked=False), build(spec)
            results[(seed, case)] = (
                spec,
                outcome(runs[0], ProfileRun.run),
                outcome(runs[1], profile_run_reference),
            )
    return results


@pytest.mark.parametrize("seed", SEEDS)
def test_loop_matches_referee(outcomes, seed):
    for case in range(CASES):
        spec, new, ref = outcomes[(seed, case)]
        assert new == ref, (seed, case, spec)


def test_draws_reach_every_path(outcomes):
    seen = Counter()
    for spec, new, _ref in outcomes.values():
        seen[spec["source"]] += 1
        seen["resumed"] += spec["resume_after"] is not None
        seen["restarted"] += new["breakdown"]["restarts"] > 0
        seen["stretched"] += new["degraded"]["skipped_checkpoint"] > 0
        seen[new["error"][0] if new["error"] else "completed"] += 1
        if new["error"] and new["error"][0] == "ChargeWindowFailure":
            seen["retries_exhausted"] += new["error"][-1] > 0
    for key in SOURCES + (
        "resumed", "restarted", "stretched", "completed",
        "NonTerminationError", "ChargeWindowFailure", "retries_exhausted",
    ):
        assert seen[key] >= 3, (key, seen)


def _small_run(**hooks) -> ProfileRun:
    """Two segments on the Modern STT paper buffer under a constant
    source that refills half the first one's drain: 23 restarts."""
    tech = ALL_TECHNOLOGIES[0]
    buffer = buffer_for(tech)
    drain = buffer.window_energy / 40
    profile = InstructionProfile(name="small")
    profile.add(800, drain, drain / 10, "a")
    profile.add(300, 2 * drain, 0.0, "b")
    source = ConstantPowerSource(0.5 * drain / tech.cycle_time)
    return ProfileRun(
        profile,
        InstructionCostModel(tech),
        HarvestingConfig(source, buffer),
        **hooks,
    )


def test_observed_runs_take_the_referee(monkeypatch, tmp_path):
    """``ProfileRun.run`` hands a run with telemetry (its own or the
    ambient hub's), a profiler or a host checkpointer to
    ``profile_run_reference``, once, and runs every other run in its
    hoisted loop, a run resumed without a checkpointer included.  All
    of them end on the unobserved run's ``Breakdown``."""
    calls = []

    def spy(run):
        calls.append(run)
        return profile_run_reference(run)

    monkeypatch.setattr(baseline, "profile_run_reference", spy)
    want = _small_run().run()
    assert calls == [] and want.restarts == 23

    def ambient():
        with use(Telemetry(InMemorySink())):
            return _small_run().run()

    observed = {
        "telemetry": lambda: _small_run(
            telemetry=Telemetry(InMemorySink())
        ).run(),
        "ambient telemetry": ambient,
        "profiler": lambda: _small_run(profiler=EnergyProfiler()).run(),
        "checkpointer": lambda: _small_run(
            checkpointer=Checkpointer(
                tmp_path / "full", CheckpointPolicy(period=1)
            )
        ).run(),
    }
    for name, execute in observed.items():
        calls.clear()
        assert execute() == want, name
        assert len(calls) == 1, name

    checkpointer = Checkpointer(tmp_path / "killed", CheckpointPolicy(period=1))
    commit_point = checkpointer.on_profile_point

    def stopping(run):
        commit_point(run)
        if run.ledger.breakdown.restarts >= 5:
            raise _Killed

    checkpointer.on_profile_point = stopping
    with pytest.raises(_Killed):
        _small_run(checkpointer=checkpointer).run()
    resumed = resume_profile(tmp_path / "killed")
    assert resumed.checkpointer is None and resumed.remaining
    calls.clear()
    assert resumed.run() == want
    assert calls == []
