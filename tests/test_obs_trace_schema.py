"""The whole telemetry pipeline over one traced run.

The run carries outage, fault AND checkpoint events at once: the
polynomial-SVM kernel executes bit-exactly under a tiny capacitor
window with a checkpointer, a profiler and every sink attached, and a
small fault campaign shares its hub.  Its artifacts must validate
against the event and Perfetto schemas, the ``stats`` replay must
round-trip all three event families, the event energy sums and the
profiler must reproduce the run's Breakdown, the flamegraphs must lint,
and one live ``/metrics`` scrape must carry the counters.
"""

import json
import urllib.request
from types import SimpleNamespace

import pytest

from repro.faults.campaign import FaultCampaign, adder_workload
from repro.faults.plan import FaultPlan
from repro.harvest.intermittent import IntermittentRun
from repro.obs import events as ev
from repro.obs import use
from repro.obs.export import MetricsServer
from repro.obs.prof import EnergyProfiler, validate_collapsed
from repro.obs.replay import render, replay
from repro.obs.schema import validate_events_jsonl, validate_perfetto
from repro.obs.telemetry import from_paths
from tests._harness import build_kernel_machine, harvesting_config


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One hub, one log pair, three event families.

    The intermittent SVM kernel (with a checkpointer and a profiler)
    contributes ``harvest.*`` and ``checkpoint.commit`` events; a tiny
    serial fault campaign under the same ambient hub contributes
    ``fault.*``.
    """
    from repro.durability.checkpoint import Checkpointer, CheckpointPolicy

    base = tmp_path_factory.mktemp("traced")
    events = str(base / "events.jsonl")
    trace = str(base / "trace.json")
    hub = from_paths(events=events, trace=trace)

    machine, kernel, expected = build_kernel_machine()
    profiler = EnergyProfiler()
    machine.attach_profiler(profiler)
    checkpointer = Checkpointer(
        str(base / "images"),
        CheckpointPolicy(period=512, at_outages=True),
        telemetry=hub,
    )
    with use(hub):
        breakdown = IntermittentRun(
            machine,
            harvesting_config(),
            telemetry=hub,
            vcap_sample_period=64,
            checkpointer=checkpointer,
        ).run(max_instructions=1_000_000)
        FaultCampaign(
            adder_workload(), FaultPlan(outage_rate=0.02), trials=2, seed=3
        ).run(jobs=1)
    hub.close()
    result = 0
    for i, bit in enumerate(kernel):
        result |= machine.tile(0).get_bit(bit.row, 0) << i
    return SimpleNamespace(
        events=events,
        trace=trace,
        breakdown=breakdown,
        hub=hub,
        profiler=profiler,
        result=result,
        expected=expected,
        base=base,
    )


class TestSchema:
    def test_event_log_validates(self, traced_run):
        assert validate_events_jsonl(traced_run.events) > 0

    def test_trace_validates_against_perfetto_schema(self, traced_run):
        assert validate_perfetto(traced_run.trace) > 0

    def test_trace_is_chrome_trace_shaped(self, traced_run):
        with open(traced_run.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
        trace_events = doc["traceEvents"]
        assert trace_events
        for entry in trace_events:
            assert {"ph", "pid", "name"} <= set(entry)
            if entry["ph"] != "M":  # metadata rows carry no timestamp
                assert "ts" in entry

    def test_all_three_event_families_present(self, traced_run):
        kinds = set()
        with open(traced_run.events, "r", encoding="utf-8") as f:
            for line in f:
                kinds.add(json.loads(line)["kind"])
        assert ev.HARVEST_OUTAGE in kinds
        assert ev.CHECKPOINT_COMMIT in kinds
        assert any(k.startswith("fault.") for k in kinds)


class TestReplayRoundTrip:
    def test_counts_match_run(self, traced_run):
        stats = replay(traced_run.events)
        assert stats.restarts == traced_run.breakdown.restarts > 0
        assert stats.outages >= stats.restarts
        assert stats.checkpoints > 0
        assert sum(stats.checkpoint_kinds.values()) == stats.checkpoints

    def test_energy_sums_bit_follow_ledger(self, traced_run):
        """Each energy category's event sum is within 1e-12 J of the
        Breakdown (``approx``'s default absolute tolerance), and the
        restart count matches exactly."""
        stats = replay(traced_run.events)
        for category in ("compute", "backup", "dead", "restore"):
            assert stats.energy_by_category.get(category, 0.0) == pytest.approx(
                getattr(traced_run.breakdown, f"{category}_energy"), rel=1e-12
            )
        assert stats.restarts == traced_run.breakdown.restarts

    def test_event_total_matches_validator(self, traced_run):
        events = traced_run.events
        assert replay(events).events == validate_events_jsonl(events)

    def test_render_surfaces_checkpoints_and_outages(self, traced_run):
        text = render(replay(traced_run.events), top=3)
        assert "checkpoints committed:" in text
        assert "outages:" in text
        assert "restarts:" in text


class TestTracedKernel:
    def test_in_array_result_matches_reference(self, traced_run):
        assert traced_run.result == traced_run.expected

    def test_profiler_replays_the_ledger_bit_exactly(self, traced_run):
        profiler = traced_run.profiler
        assert profiler.root == traced_run.breakdown
        assert len(profiler.rows()) >= 3  # run + the kernel's macro scopes

    @pytest.mark.parametrize("metric", ("energy", "time"))
    def test_flamegraph_lints(self, traced_run, metric):
        path = str(traced_run.base / f"flame-{metric}.folded")
        n = traced_run.profiler.write_collapsed(path, metric=metric)
        assert validate_collapsed(path) == n > 0

    def test_checkpoint_counters_match_commit_events(self, traced_run):
        counters = traced_run.hub.snapshot()["counters"]
        assert counters["checkpoint.writes"] >= 1
        assert counters["checkpoint.bytes"] > 0
        stats = replay(traced_run.events)
        assert stats.checkpoints == counters["checkpoint.writes"]

    def test_live_scrape_carries_counters_and_scopes(self, traced_run):
        server = MetricsServer(
            traced_run.hub, profiler=traced_run.profiler, port=0
        ).start()
        try:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as r:
                scraped = r.read().decode("utf-8")
            with urllib.request.urlopen(f"{server.url}/profile", timeout=10) as r:
                profile = json.loads(r.read().decode("utf-8"))
        finally:
            server.close()
        for needle in (
            "repro_checkpoint_writes_total",
            "repro_harvest_outages_total",
            "repro_scope_energy_joules",
            "repro_events_emitted_total",
        ):
            assert needle in scraped
        assert profile["rows"]
