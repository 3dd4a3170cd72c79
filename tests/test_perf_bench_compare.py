"""``bench --compare``: diffing two ``repro.bench/v1`` reports."""

import json
import random
from pathlib import Path

import pytest

from repro.perf.bench import (
    SCHEMA,
    compare_reports,
    load_report,
    render_compare,
)


def _report(results):
    return {"schema": SCHEMA, "results": results}


def _op(op, ns, speedup=None):
    entry = {"op": op, "ns_per_op": ns}
    if speedup is not None:
        entry["speedup"] = speedup
    return entry


class TestLoadReport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_report([_op("a", 100.0)])))
        assert load_report(str(path))["results"][0]["op"] == "a"

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/v9", "results": []}))
        with pytest.raises(ValueError, match="not a repro.bench/v1"):
            load_report(str(path))

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_report(str(path))

    @pytest.mark.parametrize(
        "results, field",
        [
            ("x", "'results'"),
            (["x"], r"results\[0\] must be an object"),
            ([{"ns_per_op": 1.0}], "'op'"),
            ([{"op": 3, "ns_per_op": 1.0}], "'op'"),
            ([{"op": "a"}], "'ns_per_op'"),
            ([{"op": "a", "ns_per_op": "1"}], "'ns_per_op'"),
            ([{"op": "a", "ns_per_op": True}], "'ns_per_op'"),
            ([{"op": "a", "ns_per_op": -1.0}], "'ns_per_op'"),
            ([{"op": "a", "ns_per_op": float("nan")}], "'ns_per_op'"),
            ([{"op": "a", "ns_per_op": 10**400}], "'ns_per_op'"),
            ([{"op": "a", "ns_per_op": 1.0, "speedup": None}], "'speedup'"),
            (
                [{"op": "a", "ns_per_op": 1.0, "baseline_ns_per_op": float("inf")}],
                "'baseline_ns_per_op'",
            ),
        ],
    )
    def test_rejects_malformed_results_naming_the_field(
        self, tmp_path, results, field
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_report(results)))
        with pytest.raises(ValueError, match=field):
            load_report(str(path))


#: Seeded byte-level fuzzing of ``load_report`` + ``compare_reports``:
#: FUZZ_SEEDS seeds, each drawing FUZZ_CASES mutated copies of the
#: committed BENCH_PR9.json (truncation, bit flips, a value's text
#: replaced by another JSON token).
FUZZ_SEEDS = 8
FUZZ_CASES = 64
_TOKENS = (
    "null", "true", "0", "-1", "1e999", "NaN", "-Infinity", '"x"', "[]", "{}",
)
BENCH_PR9 = Path(__file__).resolve().parents[1] / "BENCH_PR9.json"


def _mutated(rng: random.Random, data: bytes) -> bytes:
    data = bytearray(data)
    kind = rng.randrange(3)
    if kind == 0:
        del data[rng.randrange(len(data)):]
    elif kind == 1:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    else:
        starts = [i + 2 for i in range(len(data) - 1) if data[i:i + 2] == b": "]
        start = rng.choice(starts)
        end = start
        while data[end:end + 1] not in (b",", b"\n", b"}"):
            end += 1
        data[start:end] = rng.choice(_TOKENS).encode()
    return bytes(data)


@pytest.mark.parametrize("seed", range(FUZZ_SEEDS))
def test_fuzzed_reports_compare_or_raise_value_error(seed, tmp_path):
    """Each mutated report either loads and compares against the
    committed one both ways, or ``load_report`` raises ValueError."""
    rng = random.Random(seed)
    base = BENCH_PR9.read_bytes()
    committed = load_report(str(BENCH_PR9))
    path = tmp_path / "fuzzed.json"
    outcomes = set()
    for _ in range(FUZZ_CASES):
        path.write_bytes(_mutated(rng, base))
        try:
            report = load_report(str(path))
        except ValueError:
            outcomes.add("rejected")
            continue
        for old, new in ((committed, report), (report, committed)):
            render_compare(compare_reports(old, new))
        outcomes.add("compared")
    assert outcomes == {"rejected", "compared"}


class TestCompareReports:
    def test_ratio_and_regression_flag(self):
        old = _report([_op("fast", 100.0), _op("slow", 100.0)])
        new = _report([_op("fast", 110.0), _op("slow", 200.0)])
        cmp = compare_reports(old, new, threshold=0.30)
        by_op = {e["op"]: e for e in cmp["ops"]}
        assert by_op["fast"]["ratio"] == 1.1
        assert not by_op["fast"]["regressed"]
        assert by_op["slow"]["ratio"] == 2.0
        assert by_op["slow"]["regressed"]
        assert cmp["regressions"] == ["slow"]
        assert cmp["schema"] == "repro.bench.compare/v1"

    def test_threshold_is_exclusive(self):
        old = _report([_op("edge", 100.0)])
        new = _report([_op("edge", 130.0)])
        cmp = compare_reports(old, new, threshold=0.30)
        assert not cmp["ops"][0]["regressed"]  # exactly 1.3x is tolerated

    def test_speedup_delta_when_both_sides_have_baselines(self):
        old = _report([_op("a", 100.0, speedup=4.0), _op("b", 100.0)])
        new = _report([_op("a", 100.0, speedup=6.5), _op("b", 100.0)])
        by_op = {e["op"]: e for e in compare_reports(old, new)["ops"]}
        assert by_op["a"]["speedup_delta"] == 2.5
        assert "speedup_delta" not in by_op["b"]

    def test_disjoint_ops_reported_not_compared(self):
        old = _report([_op("shared", 1.0), _op("gone", 1.0)])
        new = _report([_op("shared", 1.0), _op("added", 1.0)])
        cmp = compare_reports(old, new)
        assert [e["op"] for e in cmp["ops"]] == ["shared"]
        assert cmp["only_old"] == ["gone"]
        assert cmp["only_new"] == ["added"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_reports(_report([]), _report([]), threshold=-0.1)

    def test_zero_old_time_is_infinite_ratio(self):
        cmp = compare_reports(
            _report([_op("z", 0.0)]), _report([_op("z", 5.0)])
        )
        assert cmp["ops"][0]["ratio"] == float("inf")
        assert cmp["ops"][0]["regressed"]


class TestRenderCompare:
    def test_table_and_verdicts(self):
        old = _report([_op("good", 100.0, speedup=4.0), _op("bad", 100.0)])
        new = _report([_op("good", 100.0, speedup=4.5), _op("bad", 300.0)])
        text = render_compare(compare_reports(old, new))
        assert "REGRESSED" in text
        assert "REGRESSIONS: bad" in text
        assert "+0.50" in text
        assert "threshold 30% slowdown" in text

    def test_clean_comparison_says_so(self):
        report = _report([_op("a", 100.0)])
        text = render_compare(compare_reports(report, report))
        assert "no regressions" in text
        assert "REGRESSED" not in text
