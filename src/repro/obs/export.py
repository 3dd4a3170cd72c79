"""Export layer: Prometheus text format and an opt-in HTTP endpoint.

The outermost of the three observability layers (events → aggregation
→ export).  :func:`prometheus_text` renders a telemetry hub's metric
registry — plus, optionally, a :class:`~repro.obs.aggregate.MetricAggregator`
and an :class:`~repro.obs.prof.EnergyProfiler` — in the Prometheus
text exposition format (version 0.0.4), and :class:`MetricsServer`
serves it from a stdlib ``ThreadingHTTPServer`` so a long sweep can be
scraped (or just curl'd) while it runs:

* ``GET /metrics``  — Prometheus text: counters, gauges, histograms
  with cumulative ``le`` buckets derived from the log2 exponents,
  aggregator quantiles, per-scope energy attribution.
* ``GET /profile``  — the profiler, as JSON rows or a collapsed-stack
  file (``?format=collapsed&metric=energy|time``) ready for
  speedscope.
* ``GET /healthz``  — liveness.

Everything here is stdlib-only and opt-in: no server exists unless the
CLI was passed ``--serve-metrics``.  ``repro.obs`` imports this module,
so the server's own stdlib modules (``http.server``, which loads
``ssl`` and ``email``, and ``urllib.parse``) are imported only when a
:class:`MetricsServer` is built.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
from typing import Optional

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, prefix: str = "repro_") -> str:
    """A valid Prometheus metric name for an internal dotted name."""
    out = prefix + _NAME_BAD_CHARS.sub("_", name)
    if not _NAME_OK.match(out):  # leading digit after the prefix, etc.
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _histogram_lines(name: str, snapshot_buckets: dict, count: int, total: float) -> list[str]:
    """Classic Prometheus histogram lines from log2 exponent buckets.

    Bucket exponent ``e`` holds observations in ``[2**e, 2**(e+1))``,
    so its Prometheus upper bound is ``le="2**(e+1)"``; the underflow
    bucket (values <= 0) maps to ``le="0"``.  Buckets are cumulative,
    ending with the mandatory ``+Inf``.
    """
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for exponent in sorted(snapshot_buckets):
        cumulative += snapshot_buckets[exponent]
        le = "0" if exponent <= -1075 else _fmt(2.0 ** (exponent + 1))
        lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_fmt(total)}")
    lines.append(f"{name}_count {count}")
    return lines


def prometheus_text(
    telemetry, aggregator=None, profiler=None, top_scopes: int = 50
) -> str:
    """Render metrics in the Prometheus text exposition format."""
    lines: list[str] = []
    snap = telemetry.snapshot()

    for raw, value in sorted(snap["counters"].items()):
        name = sanitize_name(raw) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(value)}")

    for raw, g in sorted(snap["gauges"].items()):
        name = sanitize_name(raw)
        lines.append(f"# TYPE {name} gauge")
        if g["last"] is not None:
            lines.append(f"{name} {_fmt(g['last'])}")
        lines.append(f"{name}_samples {g['samples']}")

    for raw, h in sorted(snap["histograms"].items()):
        name = sanitize_name(raw)
        buckets = {int(k): v for k, v in h["buckets"].items()}
        lines.extend(_histogram_lines(name, buckets, h["count"], h["sum"]))

    lines.append("# TYPE repro_events_emitted_total counter")
    lines.append(f"repro_events_emitted_total {snap['events_emitted']}")

    if aggregator is not None:
        for raw, s in sorted(aggregator.summary().items()):
            name = sanitize_name(raw)
            lines.append(f"# TYPE {name} summary")
            for q in ("p50", "p99"):
                if s[q] is not None:
                    quantile = "0.5" if q == "p50" else "0.99"
                    lines.append(
                        f'{name}{{quantile="{quantile}"}} {_fmt(s[q])}'
                    )
            lines.append(f"{name}_sum {_fmt(s['sum'])}")
            lines.append(f"{name}_count {s['count']}")

    if profiler is not None:
        rows = profiler.table(top_scopes)
        lines.append("# TYPE repro_scope_energy_joules gauge")
        for row in rows:
            scope = _escape_label(row.name)
            lines.append(
                f'repro_scope_energy_joules{{scope="{scope}"}} '
                f"{_fmt(row.breakdown.total_energy)}"
            )
        lines.append("# TYPE repro_scope_latency_seconds gauge")
        for row in rows:
            scope = _escape_label(row.name)
            lines.append(
                f'repro_scope_latency_seconds{{scope="{scope}"}} '
                f"{_fmt(row.breakdown.total_latency)}"
            )
        lines.append("# TYPE repro_scope_instructions gauge")
        for row in rows:
            scope = _escape_label(row.name)
            lines.append(
                f'repro_scope_instructions{{scope="{scope}"}} '
                f"{row.breakdown.instructions}"
            )

    return "\n".join(lines) + "\n"


def profile_json(profiler, top: Optional[int] = None) -> dict:
    """The profiler's attribution table as a JSON-ready object."""
    rows = profiler.table(top)
    return {
        "root_name": profiler.root_name,
        "rows": [
            {
                "scope": row.name,
                "path": list(row.path),
                "energy": row.breakdown.total_energy,
                "latency": row.breakdown.total_latency,
                "self_energy": row.self_energy,
                "self_latency": row.self_latency,
                "instructions": row.breakdown.instructions,
                "breakdown": dataclasses.asdict(row.breakdown),
            }
            for row in rows
        ],
    }


class MetricsServer:
    """Background HTTP server exposing ``/metrics`` and ``/profile``.

    ``port=0`` binds an ephemeral port (read it back from ``.port``),
    which is what the tests use; the CLI default is 9464 (the
    conventional Prometheus-exporter range).  The server runs on a
    daemon thread and never blocks the run it observes.
    """

    def __init__(
        self,
        telemetry,
        aggregator=None,
        profiler=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from urllib.parse import parse_qs, urlparse

        self.telemetry = telemetry
        self.aggregator = aggregator
        self.profiler = profiler
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # silence stderr chatter
                pass

            def _send(self, status: int, content_type: str, body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                parsed = urlparse(self.path)
                if parsed.path == "/metrics":
                    self._send(
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        prometheus_text(
                            server.telemetry,
                            aggregator=server.aggregator,
                            profiler=server.profiler,
                        ),
                    )
                elif parsed.path == "/profile":
                    if server.profiler is None:
                        self._send(
                            404, "text/plain", "no profiler attached\n"
                        )
                        return
                    query = parse_qs(parsed.query)
                    fmt = query.get("format", ["json"])[0]
                    metric = query.get("metric", ["energy"])[0]
                    if fmt == "collapsed":
                        try:
                            lines = server.profiler.flamegraph_lines(metric)
                        except ValueError as exc:
                            self._send(400, "text/plain", f"{exc}\n")
                            return
                        self._send(
                            200, "text/plain", "\n".join(lines) + "\n"
                        )
                    else:
                        self._send(
                            200,
                            "application/json",
                            json.dumps(profile_json(server.profiler)) + "\n",
                        )
                elif parsed.path == "/healthz":
                    self._send(200, "text/plain", "ok\n")
                else:
                    self._send(404, "text/plain", "not found\n")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
