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


class TestMalformedTraceRejected:
    """Every reader of the trace format fails with ``ValueError``."""

    @staticmethod
    def lines(trace):
        header = {
            "schema": TRACE_SCHEMA, "name": trace.name, "family": trace.family,
            "extend": trace.extend, "period": trace.period,
            "meta": dict(trace.meta), "samples": trace.n_samples,
        }
        samples = [json.dumps([t, w]) for t, w in zip(trace.times, trace.watts)]
        return header, samples

    @pytest.mark.parametrize(
        "case",
        ["sample_int", "sample_short", "header_list", "no_name",
         "null_period", "int_meta", "float_samples", "huge_time",
         "deep_sample", "deep_header"],
    )
    def test_known_malformed_inputs(self, tmp_path, case):
        header, samples = self.lines(kinetic(seed=0, n_steps=2))
        if case == "sample_int":
            samples[1] = "5"
        elif case == "sample_short":
            samples[1] = "[0.0]"
        elif case == "header_list":
            header = [1, 2]
        elif case == "no_name":
            del header["name"]
        elif case == "null_period":
            header["period"] = None
        elif case == "int_meta":
            header["meta"] = 5
        elif case == "float_samples":
            header["samples"] = 4.0
        elif case == "huge_time":
            samples[1] = f"[{'9' * 400}, 1.0]"
        elif case == "deep_sample":
            samples[1] = "[" * 100_000
        header = json.dumps(header)
        if case == "deep_header":
            header = header[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}"
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([header] + samples) + "\n")
        with pytest.raises(ValueError, match=r"line \d|field|header"):
            HarvestTrace.load(path)

    @pytest.mark.parametrize(
        "field, value",
        [("name", None), ("period", None), ("meta", 5), ("times", 5),
         ("watts", [1.0, "x", 2.0]), ("family", 3)],
    )
    def test_known_malformed_json_objects(self, field, value):
        obj = kinetic(seed=0, n_steps=2).to_json_obj()
        if value is None and field == "name":
            del obj[field]
        else:
            obj[field] = value
        with pytest.raises(ValueError, match=field):
            HarvestTrace.from_json_obj(obj)
        with pytest.raises(ValueError):
            HarvestTrace.from_json_obj([obj])


#: Seeded byte-level fuzzing of both readers: FUZZ_SEEDS seeds, each
#: drawing FUZZ_CASES mutated inputs (truncation, byte flips, dropped or
#: retyped header fields and samples) from the four generator families.
FUZZ_SEEDS = 16
FUZZ_CASES = 64
_RETYPES = (None, 5, -1, 1.5, "x", "", [], [1.0], {}, {"a": 1}, True, "NaN")


def _fuzzed_file(rng, trace) -> bytes:
    header, samples = TestMalformedTraceRejected.lines(trace)
    kind = rng.randrange(6)
    if kind == 2:
        del header[rng.choice(sorted(header))]
    elif kind == 3:
        header[rng.choice(sorted(header))] = rng.choice(_RETYPES)
    elif kind == 4 and samples:
        del samples[rng.randrange(len(samples))]
    elif kind == 5 and samples:
        value = rng.choice(_RETYPES + ([0.0, None], ["1", 2.0], [1, 2, 3]))
        samples[rng.randrange(len(samples))] = json.dumps(value)
    data = bytearray(
        ("\n".join([json.dumps(header)] + samples) + "\n").encode()
    )
    if kind == 0:
        del data[rng.randrange(len(data)):]
    elif kind == 1:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _fuzzed_obj(rng, trace) -> dict:
    obj = trace.to_json_obj()
    field = rng.choice(sorted(obj))
    kind = rng.randrange(3)
    if kind == 0:
        del obj[field]
    elif kind == 1:
        obj[field] = rng.choice(_RETYPES)
    elif obj["times"]:
        column = rng.choice(("times", "watts"))
        obj[column][rng.randrange(len(obj[column]))] = rng.choice(_RETYPES)
    return obj


def _round_trips(trace, path) -> None:
    trace.save(path)
    again = HarvestTrace.load(path)
    # JSON text, not ==: a NaN inside meta never equals itself.
    assert json.dumps(again.to_json_obj(), sort_keys=True) == json.dumps(
        trace.to_json_obj(), sort_keys=True
    )
    assert json.dumps(
        HarvestTrace.from_json_obj(trace.to_json_obj()).to_json_obj(),
        sort_keys=True,
    ) == json.dumps(trace.to_json_obj(), sort_keys=True)


@pytest.mark.parametrize("seed", range(FUZZ_SEEDS))
def test_fuzzed_traces_load_or_raise_value_error(tmp_path, seed):
    import random

    rng = random.Random(seed)
    bases = (
        constant(1e-4),
        rf_burst(seed=seed, n_bursts=2),
        solar_diurnal(seed=seed, samples_per_day=6),
        kinetic(seed=seed, n_steps=2),
    )
    loaded = 0
    for case in range(FUZZ_CASES):
        base = bases[case % len(bases)]
        path = tmp_path / f"case{case}.jsonl"
        path.write_bytes(_fuzzed_file(rng, base))
        try:
            trace = HarvestTrace.load(path)
        except ValueError:
            pass
        else:
            loaded += 1
            _round_trips(trace, tmp_path / f"again{case}.jsonl")
        try:
            trace = HarvestTrace.from_json_obj(_fuzzed_obj(rng, base))
        except ValueError:
            pass
        else:
            _round_trips(trace, tmp_path / f"obj{case}.jsonl")
    assert loaded < FUZZ_CASES  # the mutations do reach the error paths


class TestStepper:
    """``TraceSource.stepper`` returns exactly what the methods return
    along a forward walk, including targets that land exactly on a
    sample boundary of a zero-power stretch (dyadic values make the
    prefix sums exact)."""

    TRACES = (
        HarvestTrace("ties", (0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 1.0, 0.0)),
        HarvestTrace(
            "loop", (0.0, 0.5, 1.5), (2.0, 0.0, 1.0), extend="loop", period=2.0
        ),
        HarvestTrace("dead", (0.0, 0.25, 1.0), (4.0, 0.0, 0.0)),
        HarvestTrace("flat", (0.0, 1.0), (0.0, 0.0), extend="loop", period=4.0),
    )

    @pytest.mark.parametrize("trace", TRACES, ids=lambda t: t.name)
    def test_walk_matches_methods(self, trace):
        source = TraceSource(trace)
        steps = (0.25, 0.5, 0.75, 1.0, 0.125, 1.5, 0.0, 2.0, 3.0)
        energies = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5)
        t = 0.0
        energy, energy_ahead, time_to_harvest = source.stepper(t)
        for step in steps:
            for e in energies:
                assert time_to_harvest(e, t) == source.time_to_harvest(e, t)
            assert energy_ahead(t, step) == source.energy(t, step)
            assert energy(t, step) == source.energy(t, step)
            t += step

    @pytest.mark.parametrize(
        "trace, energy, expected",
        [
            (TRACES[0], 0.5, 0.5),
            (TRACES[0], 1.0, 1.0),
            (TRACES[0], 1.5, 2.5),
            (TRACES[0], 2.0, 3.0),
            (TRACES[0], 2.5, math.inf),
            (TRACES[1], 1.0, 0.5),
            (TRACES[1], 1.25, 1.75),
            (TRACES[1], 1.5, 2.0),
            (TRACES[1], 2.5, 2.5),
            (TRACES[1], 3.0, 4.0),
            (TRACES[2], 1.0, 0.25),
            (TRACES[2], 1.5, math.inf),
            (TRACES[3], 0.5, math.inf),
        ],
    )
    def test_time_to_harvest_is_the_earliest_time(self, trace, energy, expected):
        """A target equal to a prefix sum completes where that sum is
        first reached, before any zero-power stretch that follows."""
        assert TraceSource(trace).time_to_harvest(energy) == expected


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
