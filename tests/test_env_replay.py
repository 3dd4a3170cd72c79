"""Trace-driven replay: constant-trace byte-identity, graceful degradation."""

import dataclasses
import importlib
import math

import pytest

from repro import compilejit
from repro.devices.parameters import ALL_TECHNOLOGIES, MODERN_STT
from repro.energy.model import InstructionCostModel
from repro.env import (
    AdaptivePolicy,
    TraceSource,
    compare,
    constant,
    kinetic,
    replay,
    solar_diurnal,
)
from repro.harvest import (
    ChargeWindowFailure,
    ConstantPowerSource,
    EnergyBuffer,
    HarvestingConfig,
    NonTerminationError,
    ProfileRun,
)
from repro.ml.benchmarks import SVM_ADULT


@pytest.fixture
def interpreted():
    was = compilejit.enabled()
    compilejit.set_enabled(False)
    yield
    compilejit.set_enabled(was)


class TestConstantTraceByteIdentity:
    """The acceptance property: constant(watts) through TraceSource is
    a byte-exact stand-in for ConstantPowerSource on every engine."""

    @pytest.mark.parametrize(
        "params", ALL_TECHNOLOGIES, ids=lambda p: p.name
    )
    def test_profile_run_interpreted(self, params, interpreted):
        cost = InstructionCostModel(params)
        profile = SVM_ADULT.profile(cost)
        reference = ProfileRun(
            profile, cost, HarvestingConfig.paper(params, 100e-6)
        ).run()
        traced = ProfileRun(
            profile, cost, HarvestingConfig.from_trace(params, constant(100e-6))
        ).run()
        assert dataclasses.asdict(traced) == dataclasses.asdict(reference)

    @pytest.mark.parametrize(
        "params", ALL_TECHNOLOGIES, ids=lambda p: p.name
    )
    def test_profile_run_compiled(self, params):
        cost = InstructionCostModel(params)
        profile = SVM_ADULT.profile(cost)
        was = compilejit.enabled()
        try:
            compilejit.set_enabled(False)
            reference = ProfileRun(
                profile, cost, HarvestingConfig.paper(params, 100e-6)
            ).run()
            compilejit.set_enabled(True)
            fused = ProfileRun(
                profile, cost,
                HarvestingConfig.from_trace(params, constant(100e-6)),
            ).run()
        finally:
            compilejit.set_enabled(was)
        assert dataclasses.asdict(fused) == dataclasses.asdict(reference)

    def test_intermittent_run_byte_identical(self):
        from repro.faults.campaign import adder_workload
        from repro.harvest import IntermittentRun

        def config(source):
            return HarvestingConfig(
                source=source,
                buffer=EnergyBuffer(
                    capacitance=2e-10, v_off=0.30, v_on=0.34
                ),
            )

        workload = adder_workload(MODERN_STT)
        ref = workload.build()
        ref_run = IntermittentRun(ref, config(ConstantPowerSource(5e-9)))
        ref_breakdown = ref_run.run()
        traced = workload.build()
        traced_run = IntermittentRun(
            traced, config(TraceSource(constant(5e-9)))
        )
        traced_breakdown = traced_run.run()
        assert dataclasses.asdict(traced_breakdown) == dataclasses.asdict(
            ref_breakdown
        )
        assert workload.readout(traced) == workload.readout(ref)

    def test_fig9_sweep_series_byte_identical(self):
        from repro.experiments.fig9_latency_sweep import _sweep_series

        powers = (100e-6, 1e-3)
        reference = _sweep_series(MODERN_STT, SVM_ADULT, powers)
        traced = _sweep_series(
            MODERN_STT, SVM_ADULT, powers,
            source_factory=lambda w: TraceSource(constant(w)),
        )
        assert traced == reference

    def test_intermittent_fused_matches_interpreter_under_solar(self):
        """The fused IntermittentRun loop handles a fluctuating trace
        generically — compiled and interpreted runs must agree."""
        from repro.faults.campaign import adder_workload
        from repro.harvest import IntermittentRun

        trace = solar_diurnal(
            seed=1, peak_watts=1e-8, floor_watts=1.25e-9, day_length=0.05
        )

        def one_run():
            workload = adder_workload(MODERN_STT)
            mouse = workload.build()
            run = IntermittentRun(
                mouse,
                HarvestingConfig(
                    source=TraceSource(trace),
                    buffer=EnergyBuffer(
                        capacitance=2e-10, v_off=0.30, v_on=0.34
                    ),
                ),
            )
            return run.run()

        was = compilejit.enabled()
        try:
            compilejit.set_enabled(True)
            fused = one_run()
            compilejit.set_enabled(False)
            scalar = one_run()
        finally:
            compilejit.set_enabled(was)
        assert dataclasses.asdict(fused) == dataclasses.asdict(scalar)
        assert fused.restarts > 0  # the trace actually fluctuated


class TestReplayAndCompare:
    def test_emergent_outages_under_scarce_solar(self):
        trace = solar_diurnal(
            seed=1, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
        )
        result = replay(
            SVM_ADULT, MODERN_STT, trace,
            time_budget=2.0, max_inferences=100_000, checkpoint_period=2,
        )
        assert result.restarts > 10
        assert result.inferences >= 1
        assert result.policy == "fixed"
        assert not result.fail_stopped

    @pytest.mark.parametrize("family_seed", [("solar", 1), ("rf", 2)])
    def test_adaptive_at_least_fixed(self, family_seed):
        from repro.env import rf_burst

        family, seed = family_seed
        if family == "solar":
            trace = solar_diurnal(
                seed=seed, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
            )
            kwargs = {"time_budget": 2.0}
        else:
            trace = rf_burst(seed=seed, burst_watts=8e-4, idle_watts=4e-5)
            kwargs = {"time_budget": 0.3}
        outcome = compare(
            SVM_ADULT, MODERN_STT, trace,
            max_inferences=100_000, checkpoint_period=2, **kwargs,
        )
        assert outcome["adaptive_at_least_fixed"]
        adaptive = outcome["adaptive"]
        assert adaptive.degraded["skipped_checkpoint"] > 0
        assert adaptive.harvested_j == outcome["fixed"].harvested_j

    def test_env_sweep_rows_hold_adaptive_at_least_fixed(self):
        """The environment-sweep experiment, one row per non-constant
        family: adaptive >= fixed, the cadence stretched on every trace,
        and the kinetic dead tail recorded as a fail-stop."""
        from repro.experiments import env_sweep

        rows = env_sweep.run()
        assert {r["family"] for r in rows} == {"solar", "rf_burst", "kinetic"}
        for row in rows:
            degraded = row["adaptive"]["degraded"]
            assert row["adaptive_at_least_fixed"], row["family"]
            assert degraded["skipped_checkpoint"] > 0, row["family"]
        (kinetic,) = [r for r in rows if r["family"] == "kinetic"]
        assert kinetic["adaptive"]["degraded"]["fail_stop"] > 0

    def test_kinetic_dead_tail_fail_stops_gracefully(self):
        trace = kinetic(seed=3, mean_watts=4e-4, n_steps=8)
        result = replay(
            SVM_ADULT, MODERN_STT, trace,
            time_budget=10.0, max_inferences=100_000, checkpoint_period=2,
        )
        assert result.fail_stopped
        assert result.degraded["fail_stop"] == 1

    def test_leaky_buffer_completes_fewer_inferences(self):
        trace = solar_diurnal(
            seed=1, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
        )
        kwargs = {
            "time_budget": 1.0,
            "max_inferences": 100_000,
            "checkpoint_period": 2,
        }
        ideal = replay(SVM_ADULT, MODERN_STT, trace, **kwargs)
        leaky = replay(
            SVM_ADULT, MODERN_STT, trace, leakage_amps=5e-5, **kwargs
        )
        assert leaky.inferences <= ideal.inferences
        assert leaky.elapsed_s <= ideal.elapsed_s + 1e-9

    def test_replay_rejects_silly_caps(self):
        with pytest.raises(ValueError):
            replay(SVM_ADULT, MODERN_STT, constant(1e-4), max_inferences=0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan])
    def test_replay_rejects_a_non_positive_time_budget(self, budget):
        with pytest.raises(ValueError, match="time_budget"):
            replay(SVM_ADULT, MODERN_STT, solar_diurnal(), time_budget=budget)


class TestChargeRetry:
    def test_leakage_outrunning_harvester_fail_stops(self):
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34,
            voltage=0.32, leakage_amps=1e-3,
        )
        waits = []
        with pytest.raises(ChargeWindowFailure) as info:
            buffer.charge(ConstantPowerSource(1e-9), 0.0, waits.append, retries=3)
        assert info.value.retries == 3
        assert len(waits) == 3  # every attempt charged its latency
        assert info.value.voltage < buffer.v_on

    def test_dead_trace_tail_fail_stops_with_position(self):
        trace = kinetic(seed=0, n_steps=2)
        source = TraceSource(trace)
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34, voltage=0.32,
            leakage_amps=1e-12,
        )
        start = trace.span + 1.0  # past the last pulse: dead hold tail
        with pytest.raises(ChargeWindowFailure) as info:
            buffer.charge(source, start, lambda wait: None)
        assert info.value.trace_position is not None
        assert info.value.trace_position.elapsed == start
        assert "never supply" in str(info.value)

    def test_retry_eventually_succeeds_for_mild_leak(self):
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34,
            voltage=0.32, leakage_amps=1e-9,
        )
        time, total, attempts = buffer.charge(
            ConstantPowerSource(1e-6), 0.0, lambda wait: None
        )
        assert buffer.ready_to_start
        assert attempts >= 1
        assert time == pytest.approx(total)


class TestNonTerminationDiagnosis:
    def test_trace_position_in_message_and_attribute(self):
        cost = InstructionCostModel(MODERN_STT)
        profile = SVM_ADULT.profile(cost)
        trace = solar_diurnal(seed=0, peak_watts=2e-9, floor_watts=1e-10)
        config = HarvestingConfig(
            source=TraceSource(trace),
            buffer=EnergyBuffer(capacitance=1e-12, v_off=0.32, v_on=0.34),
        )
        with pytest.raises(NonTerminationError) as info:
            ProfileRun(profile, cost, config).run()
        assert info.value.trace_position is not None
        assert "trace sample" in str(info.value)
        assert info.value.breakdown is not None

    def test_constant_source_diagnosis_has_no_position(self):
        cost = InstructionCostModel(MODERN_STT)
        profile = SVM_ADULT.profile(cost)
        config = HarvestingConfig(
            source=ConstantPowerSource(2e-9),
            buffer=EnergyBuffer(capacitance=1e-12, v_off=0.32, v_on=0.34),
        )
        with pytest.raises(NonTerminationError) as info:
            ProfileRun(profile, cost, config).run()
        assert info.value.trace_position is None
        assert "trace sample" not in str(info.value)


@dataclasses.dataclass(eq=True)
class _Unhashable:
    """``SVM_ADULT`` behind an unhashable workload: replays of it build
    their cost model and profile afresh every time."""

    name: str = SVM_ADULT.name

    def profile(self, cost):
        return SVM_ADULT.profile(cost)


class TestProfileMemo:
    """A replay builds its workload's cost model and profile once per
    (workload, technology): the second replay reuses them and returns
    the result of a replay with nothing remembered."""

    @staticmethod
    def _replays(params=MODERN_STT):
        trace = solar_diurnal(
            seed=1, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
        )
        kwargs = {"time_budget": 0.5, "max_inferences": 100_000,
                  "checkpoint_period": 2}
        return (
            lambda workload: replay(workload, params, trace, **kwargs),
            lambda workload: replay(
                workload, params, trace, adaptive=AdaptivePolicy(), **kwargs
            ),
        )

    @staticmethod
    def _count_profiles(monkeypatch) -> list:
        calls = []
        real = type(SVM_ADULT).profile

        def spy(self, cost, *args, **kwargs):
            calls.append(self.name)
            return real(self, cost, *args, **kwargs)

        monkeypatch.setattr(type(SVM_ADULT), "profile", spy)
        return calls

    def test_two_replays_build_one_profile(self, monkeypatch):
        importlib.import_module("repro.env.replay")._memo_profile.cache_clear()
        calls = self._count_profiles(monkeypatch)
        results = [run(SVM_ADULT).to_json_obj() for run in self._replays()]
        assert calls == [SVM_ADULT.name]
        fresh = [run(_Unhashable()).to_json_obj() for run in self._replays()]
        assert results == fresh
        assert len(calls) == 3

    def test_each_technology_gets_its_own_profile(self):
        for params in ALL_TECHNOLOGIES:
            for run in self._replays(params):
                assert run(SVM_ADULT) == run(_Unhashable()), params.name
