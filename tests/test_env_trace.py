"""Harvest-trace format, generators, and the TraceSource adapter."""

import json
import math

import pytest

from repro.env import (
    FAMILIES,
    HarvestTrace,
    TRACE_SCHEMA,
    TraceSource,
    constant,
    kinetic,
    rf_burst,
    solar_diurnal,
)
from repro.harvest import ConstantPowerSource


class TestHarvestTraceValidation:
    def test_times_must_start_at_zero(self):
        with pytest.raises(ValueError):
            HarvestTrace(name="t", times=(1.0, 2.0), watts=(1.0, 1.0))

    def test_times_must_strictly_increase(self):
        with pytest.raises(ValueError):
            HarvestTrace(name="t", times=(0.0, 1.0, 1.0), watts=(1.0,) * 3)

    def test_power_cannot_be_negative_or_nan(self):
        with pytest.raises(ValueError):
            HarvestTrace(name="t", times=(0.0, 1.0), watts=(1.0, -1.0))
        with pytest.raises(ValueError):
            HarvestTrace(name="t", times=(0.0, 1.0), watts=(1.0, math.nan))

    def test_loop_needs_period_past_last_sample(self):
        with pytest.raises(ValueError):
            HarvestTrace(
                name="t", times=(0.0, 1.0), watts=(1.0, 0.0),
                extend="loop", period=0.5,
            )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            HarvestTrace(name="t", times=(), watts=())


class TestGenerators:
    @pytest.mark.parametrize("family", ["rf_burst", "solar", "kinetic"])
    def test_seeded_and_deterministic(self, family):
        generator = FAMILIES[family]
        assert generator(seed=3) == generator(seed=3)
        assert generator(seed=3) != generator(seed=4)

    def test_family_registry_complete(self):
        assert set(FAMILIES) == {"constant", "rf_burst", "solar", "kinetic"}

    def test_constant_is_single_sample(self):
        trace = constant(1e-4)
        assert trace.is_constant
        assert trace.n_samples == 1
        assert trace.mean_watts() == 1e-4

    def test_constant_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            constant(0.0)

    def test_solar_loops_and_kinetic_holds_at_zero(self):
        solar = solar_diurnal(seed=0)
        assert solar.extend == "loop"
        assert solar.period == solar.span > solar.times[-1]
        kin = kinetic(seed=0)
        assert kin.extend == "hold"
        assert kin.watts[-1] == 0.0  # exhausted harvester tail

    def test_describe_carries_the_cli_fields(self):
        info = rf_burst(seed=1).describe()
        for key in ("name", "family", "samples", "span_s", "mean_watts",
                    "peak_watts", "duty_cycle", "constant"):
            assert key in info


class TestJsonlRoundTrip:
    @pytest.mark.parametrize("family", ["constant", "rf_burst", "solar", "kinetic"])
    def test_save_load_exact(self, tmp_path, family):
        """The file round trip is exact, and the loaded trace replays to
        the same result as the generated one."""
        import dataclasses

        from repro.devices.parameters import MODERN_STT
        from repro.env import replay
        from repro.ml.benchmarks import SVM_ADULT

        if family == "constant":
            trace = constant(2e-4)
        else:
            trace = FAMILIES[family](seed=7)
        path = tmp_path / f"{family}.jsonl"
        trace.save(path)
        loaded = HarvestTrace.load(path)
        assert loaded == trace
        kwargs = {
            "time_budget": 0.8,
            "max_inferences": 100_000,
            "checkpoint_period": 2,
        }
        direct = replay(SVM_ADULT, MODERN_STT, trace, **kwargs)
        via_file = replay(SVM_ADULT, MODERN_STT, loaded, **kwargs)
        assert dataclasses.asdict(direct) == dataclasses.asdict(via_file)

    def test_header_carries_schema(self, tmp_path):
        path = tmp_path / "t.jsonl"
        solar_diurnal(seed=0).save(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        solar_diurnal(seed=0).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            HarvestTrace.load(path)


class TestConstantFastPath:
    """constant(watts) must be a byte-exact stand-in for
    ConstantPowerSource — same expressions, same floats, same errors."""

    def test_energy_and_time_to_harvest_bit_exact(self):
        watts = 137e-6
        reference = ConstantPowerSource(watts)
        source = TraceSource(constant(watts))
        assert source.watts == watts
        for start in (0.0, 0.123, 7.5):
            for duration in (0.0, 1e-9, 0.37, 12.0):
                assert source.energy(start, duration) == reference.energy(
                    start, duration
                )
        for energy in (0.0, 1e-12, 3.3e-6, 0.5):
            assert source.time_to_harvest(energy) == reference.time_to_harvest(
                energy
            )

    def test_negative_duration_same_error(self):
        source = TraceSource(constant(1e-4))
        with pytest.raises(ValueError, match="duration must be non-negative"):
            source.energy(0.0, -1.0)

    def test_fluctuating_trace_has_no_watts(self):
        source = TraceSource(solar_diurnal(seed=0))
        assert source.constant_watts is None
        with pytest.raises(AttributeError):
            source.watts


class TestTraceSourceIntegration:
    def test_energy_is_additive(self):
        source = TraceSource(rf_burst(seed=5))
        whole = source.energy(0.0, 0.08)
        split = source.energy(0.0, 0.03) + source.energy(0.03, 0.05)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_time_to_harvest_inverts_energy(self):
        source = TraceSource(solar_diurnal(seed=2, floor_watts=1e-5))
        for start in (0.0, 0.013, 0.21):
            needed = 1e-7
            wait = source.time_to_harvest(needed, start=start)
            assert math.isfinite(wait)
            assert source.energy(start, wait) == pytest.approx(
                needed, rel=1e-9
            )

    def test_loop_wrap_energy(self):
        trace = solar_diurnal(seed=1)
        source = TraceSource(trace)
        one = source.energy(0.0, trace.period)
        three = source.energy(0.0, 3.0 * trace.period)
        assert three == pytest.approx(3.0 * one, rel=1e-12)
        assert source.power(0.3 * trace.period) == pytest.approx(
            source.power(2.3 * trace.period), rel=1e-12
        )

    def test_dead_hold_tail_is_infinite_wait(self):
        trace = kinetic(seed=0, n_steps=4)
        source = TraceSource(trace)
        after_end = trace.span + 1.0
        assert source.power(after_end) == 0.0
        assert source.time_to_harvest(1e-9, start=after_end) == math.inf

    def test_position_reports_index_and_wraps(self):
        trace = solar_diurnal(seed=0)
        source = TraceSource(trace)
        pos = source.position(1.5 * trace.period)
        assert pos.wraps == 1
        assert 0 <= pos.index < trace.n_samples
        assert "trace sample" in str(pos)
