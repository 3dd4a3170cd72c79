"""The telemetry hub and the ambient-telemetry context.

A :class:`Telemetry` owns one sink (possibly a tee) and a registry of
metric primitives.  The zero-overhead contract: a hub whose sink is
``None`` (or a :class:`NullSink`) reports ``enabled == False``, and
every instrumented hot path guards with a single ``is None`` check
before building any event — so disabled telemetry costs one pointer
comparison per site and allocates nothing.

The *ambient* hub (:func:`current` / :func:`use`) lets deeply nested
code — the experiment modules build their own ``ProfileRun`` instances
many layers below the CLI — pick up the active hub without threading a
parameter through every signature::

    with obs.use(Telemetry(JsonlSink("events.jsonl"))) as t:
        fig9_latency_sweep.main()   # engines see t via obs.current()
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import SPAN, Event
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.sinks import NullSink, Sink


class Telemetry:
    """Event hub + metric registry with a pluggable sink."""

    def __init__(self, sink: Optional[Sink] = None) -> None:
        if sink is None or isinstance(sink, NullSink):
            self._sink: Optional[Sink] = None
        else:
            self._sink = sink
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.events_emitted = 0
        #: Path of the JSONL event log this hub writes, when built by
        #: :func:`from_paths`.  Fan-out workers derive their per-worker
        #: shard paths from it (see :mod:`repro.obs.fanout`).
        self.events_path: Optional[str] = None

    # -- events ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def emit(self, kind: str, ts: float, **data) -> None:
        """Send one event to the sink (no-op when disabled)."""
        if self._sink is None:
            return
        self._sink.write(Event(kind, ts, data))
        self.events_emitted += 1

    def emit_event(self, event: Event) -> None:
        if self._sink is None:
            return
        self._sink.write(event)
        self.events_emitted += 1

    # -- metrics ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name, telemetry=self)
            return g

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name)
            return h

    def snapshot(self) -> dict:
        """All metric values, for manifests and summaries."""
        return {
            "counters": {n: c.snapshot() for n, c in self._counters.items()},
            "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
            "histograms": {
                n: h.snapshot() for n, h in self._histograms.items()
            },
            "events_emitted": self.events_emitted,
        }

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """Wall-clock phase timing; emits a ``span`` event at exit and
        records the duration in the ``span.<name>`` histogram."""
        start_wall = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self.histogram(f"span.{name}").observe(dur)
            if self._sink is not None:
                self.emit(SPAN, start_wall, name=name, dur=dur, **attrs)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


def from_paths(
    events: Optional[str] = None, trace: Optional[str] = None
) -> Telemetry:
    """A hub writing a JSONL log and/or a Perfetto trace.

    With neither path given the returned hub is disabled, so callers
    can use the result unconditionally.  Call :meth:`Telemetry.close`
    (after the run) to flush the files.
    """
    from repro.obs.sinks import JsonlSink, PerfettoSink, TeeSink

    sinks: list[Sink] = []
    if events:
        sinks.append(JsonlSink(events))
    if trace:
        sinks.append(PerfettoSink(trace))
    if not sinks:
        return Telemetry()
    hub = Telemetry(sinks[0] if len(sinks) == 1 else TeeSink(sinks))
    hub.events_path = events or None
    return hub


#: Process-wide disabled hub: the default ambient telemetry.
DISABLED = Telemetry()

_current: Telemetry = DISABLED


def current() -> Telemetry:
    """The ambient telemetry hub (a disabled hub by default)."""
    return _current


def active(telemetry: Optional[Telemetry] = None) -> Optional[Telemetry]:
    """The hub to emit to: ``telemetry`` if given, else the ambient
    hub; None when that hub is disabled, so a hot path guards with
    one ``is None`` check."""
    hub = _current if telemetry is None else telemetry
    return hub if hub.enabled else None


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient hub for the duration."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
