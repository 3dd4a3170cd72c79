"""``repro.obs`` — the observability layer.

Structured telemetry across the three execution layers:

* the functional machine (``instr.commit``, power events, ``energy``
  charges mirrored off the :class:`~repro.energy.metrics.EnergyLedger`),
* the harvester engines (outage / charging-window / restart events and
  a sampled capacitor-voltage timeline),
* the experiment runner (wall-clock spans and run manifests).

Events flow through one :class:`Telemetry` hub into pluggable sinks —
JSONL for lossless logs, Chrome-trace JSON for Perfetto, in-memory for
tests and the trace recorder.  Disabled telemetry (the default) costs
a single pointer comparison per instrumented site and allocates
nothing.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.aggregate import MetricAggregator, RingBuffer, Series
from repro.obs.events import Event, KNOWN_KINDS
from repro.obs.export import MetricsServer, profile_json, prometheus_text
from repro.obs.fanout import merge_shards, shard_path, worker_hub
from repro.obs.manifest import build_manifest, git_state, write_manifest
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.prof import EnergyProfiler, ScopeRow, validate_collapsed
from repro.obs.replay import ReplayStats, render, replay
from repro.obs.schema import (
    SchemaError,
    validate_events_jsonl,
    validate_perfetto,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    NullSink,
    PerfettoSink,
    Sink,
    TeeSink,
)
from repro.obs.telemetry import (
    DISABLED,
    Telemetry,
    active,
    current,
    from_paths,
    use,
)
from repro.obs.trace import (
    InstructionRecord,
    TraceBudgetExceeded,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "DISABLED",
    "EnergyProfiler",
    "Event",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "InstructionRecord",
    "JsonlSink",
    "KNOWN_KINDS",
    "MetricAggregator",
    "MetricsServer",
    "NullSink",
    "PerfettoSink",
    "ReplayStats",
    "RingBuffer",
    "SchemaError",
    "ScopeRow",
    "Series",
    "Sink",
    "TeeSink",
    "Telemetry",
    "TraceBudgetExceeded",
    "TraceRecorder",
    "active",
    "build_manifest",
    "current",
    "from_paths",
    "git_state",
    "merge_shards",
    "profile_json",
    "prometheus_text",
    "render",
    "replay",
    "shard_path",
    "use",
    "validate_collapsed",
    "validate_events_jsonl",
    "validate_perfetto",
    "worker_hub",
    "write_manifest",
]
