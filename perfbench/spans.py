"""In-memory span recorder that wraps public entry points from outside.

The recorder replaces a function or method with a thin wrapper that
records one span per call: name, start, end and parent (the span open
when the call began).  Nothing under ``src/`` is edited; the wrappers
are installed with :meth:`SpanRecorder.wrap_function` /
:meth:`SpanRecorder.wrap_method` and removed again by
:meth:`SpanRecorder.restore`, which puts every original attribute back.

A call into a layer while a span of the *same* layer is already the
innermost open span (``svm_workload`` calling ``compile_svm_decision``,
say) is part of the outer span and records no span of its own; its
counts still go to the tally.

A *leaf* boundary that is crossed hundreds of times per op (the trace
source's energy lookups) records no individual spans: each call's
duration is added to its layer's totals and to the time the enclosing
span's children cover, which keeps memory flat and self times exact.

Self time of a span is its duration minus the time its direct children
(spans and leaf calls) cover.  Children of one parent never overlap
(one thread), so the self times partition the time of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: ``count(tally, result, args, kwargs)`` adds per-call counts to
#: ``tally`` (a ``defaultdict(float)``) after a call returns.
Counter = Callable[[dict, Any, tuple, dict], None]


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: Time of leaf calls made directly inside each span.
        self.leaf_covered: list[float] = []
        #: Per leaf name: calls and total seconds.
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: Exact counts recorded at the same boundaries as the spans.
        self.tally: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.leaf_covered.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def leaf(self, name: str, elapsed: float) -> None:
        entry = self.leaves[name]
        entry[0] += 1
        entry[1] += elapsed
        if self._stack:
            self.leaf_covered[self._stack[-1]] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrapper(self, original, name: str, count: Optional[Counter]):
        recorder = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            stack = recorder._stack
            if stack and recorder.names[stack[-1]] == name:
                result = original(*args, **kwargs)
            else:
                index = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(index)
            if count is not None:
                count(recorder.tally, result, args, kwargs)
            return result

        return wrapped

    def _leaf_wrapper(self, original, name: str):
        recorder = self
        clock = self.clock

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if recorder._in_leaf:
                return original(*args, **kwargs)
            recorder._in_leaf = True
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.leaf(name, clock() - start)
                recorder._in_leaf = False

        return wrapped

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def _make(self, original, name, count, leaf):
        if leaf:
            return self._leaf_wrapper(original, name)
        return self._wrapper(original, name, count)

    def wrap_function(
        self,
        module: str,
        attr: str,
        name: str,
        count: Optional[Counter] = None,
        leaf: bool = False,
    ) -> None:
        """Wrap ``module.attr`` and every other loaded module's binding
        of the same function object (``from x import f`` copies)."""
        original = getattr(sys.modules[module], attr)
        wrapped = self._make(original, name, count, leaf)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        count: Optional[Counter] = None,
        leaf: bool = False,
    ) -> None:
        original = vars(cls)[attr]
        self._patch(cls, attr, self._make(original, name, count, leaf))

    def restore(self) -> None:
        """Put back every wrapped attribute, last patch first."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = list(self.leaf_covered)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        return [
            (end - start) - child
            for start, end, child in zip(self.starts, self.ends, covered)
        ]

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span or leaf name: ``calls``, total ``self_s`` and
        ``total_s``."""
        out: dict[str, dict[str, float]] = {}
        for index, own in enumerate(self.self_times()):
            row = out.setdefault(
                self.names[index], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += self.ends[index] - self.starts[index]
        for name, (calls, total) in self.leaves.items():
            out[name] = {"calls": calls, "self_s": total, "total_s": total}
        return out

    def write(self, path: Path) -> None:
        """Write all spans once, as gzipped JSON with a name table."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        spans = [
            [ids[n], s, e, p, c]
            for n, s, e, p, c in zip(
                self.names, self.starts, self.ends, self.parents, self.leaf_covered
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump(
                {
                    "schema": "perfbench.spans/v1",
                    "fields": ["name", "start_s", "end_s", "parent", "leaf_s"],
                    "names": table,
                    "spans": spans,
                    "leaves": {
                        name: {"calls": calls, "total_s": total}
                        for name, (calls, total) in self.leaves.items()
                    },
                    "tally": dict(self.tally),
                },
                handle,
            )


def render_table(rows: dict[str, dict[str, float]]) -> str:
    """Span names by descending self time."""
    lines = [f"{'span':<28} {'calls':>9} {'self s':>10} {'total s':>10}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<28} {row['calls']:>9} {row['self_s']:>10.4f} {row['total_s']:>10.4f}"
        )
    return "\n".join(lines)
