"""Hierarchical energy-and-latency attribution (`repro.obs.prof`).

The run-level :class:`~repro.energy.metrics.Breakdown` answers *how
much* energy a run burned; this module answers *where*.  Every charge
the :class:`~repro.energy.metrics.EnergyLedger` records is attributed
to a stack of compile-time scopes (classifier > layer > macro),
recorded by :class:`~repro.compile.builder.ProgramBuilder` as macros
open and close, and carried on the
:class:`~repro.core.program.Program` — attribution needs no
execution-time guessing, because every pc maps to the scope that
emitted it.

Exactness
---------
Each profiler node owns a full :class:`Breakdown`, and a charge is
applied to **every node on the current path, root included**, via the
same :func:`repro.energy.metrics.accumulate` primitive the ledger
itself uses.  The root node therefore replays the run's exact ``+=``
sequence, making ``profiler.root == run.breakdown`` **bit-exact** —
not approximately, not within an epsilon (float addition is not
associative, so a sum over leaves could never promise that).

Output
------
* :meth:`EnergyProfiler.table` / :meth:`render` — per-scope tables.
* :meth:`EnergyProfiler.write_collapsed` — collapsed-stack ("folded")
  flamegraph files: one ``frame;frame;frame value`` line per scope,
  with integer *self* values (energy in attojoules, time in
  picoseconds).  The format is read natively by speedscope, Brendan
  Gregg's ``flamegraph.pl``, and ``inferno``.
* :func:`validate_collapsed` — a lint pass over such a file (used by
  ``tests/test_obs_trace_schema.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.energy.metrics import Breakdown, Category, accumulate

#: Integer scales for collapsed-stack values (flamegraph tools want ints).
_METRIC_SCALES = {
    "energy": 1e18,  # joules -> attojoules
    "time": 1e12,  # seconds -> picoseconds
}


@dataclass
class ScopeRow:
    """One row of the attribution table."""

    path: tuple[str, ...]
    breakdown: Breakdown
    self_energy: float
    self_latency: float

    @property
    def name(self) -> str:
        return "/".join(self.path) if self.path else "(run)"


class EnergyProfiler:
    """Attributes ledger charges to an interned tree of scopes.

    The profiler is engine-agnostic: the cycle-accurate controller
    points it at the committing pc's compile-time scope, the
    closed-form :class:`~repro.harvest.intermittent.ProfileRun` points
    it at the current segment label.  Either way the ledger's
    :meth:`~repro.energy.metrics.EnergyLedger.charge` mirrors into
    :meth:`record`, which walks the current path.
    """

    def __init__(self, root_name: str = "run") -> None:
        self.root_name = root_name
        self._parents: list[int] = [-1]
        self._names: list[str] = [""]
        self._interned: dict[tuple[int, str], int] = {}
        self._stats: list[Breakdown] = [Breakdown()]
        self._self_energy: list[float] = [0.0]
        self._self_latency: list[float] = [0.0]
        # Root-to-node id chains, cached per node.
        self._chains: list[tuple[int, ...]] = [(0,)]
        self._path: tuple[int, ...] = (0,)
        self._leaf: int = 0

    # ------------------------------------------------------------------
    # Scope interning
    # ------------------------------------------------------------------

    def child(self, parent: int, name: str) -> int:
        key = (parent, name)
        nid = self._interned.get(key)
        if nid is None:
            nid = len(self._names)
            self._parents.append(parent)
            self._names.append(name)
            self._interned[key] = nid
            self._stats.append(Breakdown())
            self._self_energy.append(0.0)
            self._self_latency.append(0.0)
            self._chains.append(self._chains[parent] + (nid,))
        return nid

    def scope_id(self, path: Sequence[str]) -> int:
        """Intern a full root-relative path, returning its node id."""
        nid = 0
        for name in path:
            nid = self.child(nid, name)
        return nid

    def index_program(
        self, program, prefix: Sequence[str] = ()
    ) -> list[int]:
        """Map a program's scope-table ids to profiler node ids.

        Returns ``table`` such that ``table[program.scope_ids[pc]]`` is
        the profiler node for the instruction at ``pc``.  ``prefix``
        nests the whole program under extra frames (typically the
        program name), so two programs profiled into one profiler stay
        distinguishable.
        """
        base = self.scope_id(prefix)
        scopes = program.scope_table
        table = [0] * len(scopes)
        table[0] = base
        # Scope tables are topologically ordered (parents precede
        # children by construction), so one forward pass suffices.
        for sid in range(1, len(scopes)):
            table[sid] = self.child(table[scopes.parents[sid]], scopes.names[sid])
        return table

    # ------------------------------------------------------------------
    # Hot path (mirrored from EnergyLedger)
    # ------------------------------------------------------------------

    def set_scope(self, nid: int) -> None:
        """Make ``nid`` the attribution target for subsequent charges."""
        self._leaf = nid
        self._path = self._chains[nid]

    def record(self, category: Category, energy: float, latency: float) -> None:
        stats = self._stats
        for nid in self._path:
            accumulate(stats[nid], category, energy, latency)
        self._self_energy[self._leaf] += energy
        self._self_latency[self._leaf] += latency

    def count_instructions(self, n: int) -> None:
        stats = self._stats
        for nid in self._path:
            stats[nid].instructions += n

    def count_restart(self) -> None:
        stats = self._stats
        for nid in self._path:
            stats[nid].restarts += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def root(self) -> Breakdown:
        """The whole-run breakdown (bit-exact vs. the ledger's)."""
        return self._stats[0]

    def node_path(self, nid: int) -> tuple[str, ...]:
        return tuple(self._names[i] for i in self._chains[nid][1:])

    def rows(self) -> list[ScopeRow]:
        """All scopes that saw any charge, root first, then by energy."""
        out = [
            ScopeRow(
                path=self.node_path(nid),
                breakdown=self._stats[nid],
                self_energy=self._self_energy[nid],
                self_latency=self._self_latency[nid],
            )
            for nid in range(len(self._names))
            if nid == 0
            or self._stats[nid].total_energy > 0
            or self._stats[nid].total_latency > 0
            or self._stats[nid].instructions > 0
        ]
        return [out[0]] + sorted(
            out[1:], key=lambda r: r.breakdown.total_energy, reverse=True
        )

    def table(self, top: Optional[int] = None) -> list[ScopeRow]:
        rows = self.rows()
        return rows if top is None else rows[: top + 1]

    def render(self, top: int = 20) -> str:
        """Human-readable attribution table."""
        rows = self.table(top)
        total = self.root.total_energy or 1.0
        lines = [
            f"{'scope':<48} {'energy':>12} {'%':>6} "
            f"{'self':>12} {'time':>10} {'instr':>8}"
        ]
        for row in rows:
            b = row.breakdown
            lines.append(
                f"{row.name[:48]:<48} {b.total_energy:>12.4e} "
                f"{100.0 * b.total_energy / total:>5.1f}% "
                f"{row.self_energy:>12.4e} {b.total_latency:>10.3e} "
                f"{b.instructions:>8d}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Flamegraphs
    # ------------------------------------------------------------------

    def flamegraph_lines(self, metric: str = "energy") -> list[str]:
        """Collapsed-stack lines with integer self values.

        ``metric`` is ``"energy"`` (attojoules) or ``"time"``
        (picoseconds).  Every scope contributes its *self* value — the
        part of its inclusive total not attributed to a deeper scope —
        so stack tools reconstruct the inclusive hierarchy themselves.
        """
        scale = _METRIC_SCALES.get(metric)
        if scale is None:
            raise ValueError(
                f"unknown metric {metric!r}; expected one of "
                f"{sorted(_METRIC_SCALES)}"
            )
        values = self._self_energy if metric == "energy" else self._self_latency
        lines = []
        for nid, value in enumerate(values):
            scaled = round(value * scale)
            if scaled <= 0:
                continue
            frames = (self.root_name,) + self.node_path(nid)
            lines.append(f"{';'.join(frames)} {scaled}")
        return lines

    def write_collapsed(
        self, path: Union[str, Path], metric: str = "energy"
    ) -> int:
        """Write a collapsed-stack file; returns the number of stacks."""
        lines = self.flamegraph_lines(metric)
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")
        return len(lines)


def validate_collapsed(path: Union[str, Path]) -> int:
    """Lint a collapsed-stack flamegraph file; returns the stack count.

    Checks the folded format contract: every non-empty line is
    ``frame(;frame)* <positive int>``, frames are non-empty and carry
    no embedded whitespace, and no stack repeats.
    """
    seen: set[str] = set()
    count = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            stack, sep, value = line.rpartition(" ")
            if not sep or not stack:
                raise ValueError(f"{path}:{lineno}: not 'stack value'")
            if not value.isdigit() or int(value) <= 0:
                raise ValueError(
                    f"{path}:{lineno}: value {value!r} is not a positive int"
                )
            frames = stack.split(";")
            if any(not frame or frame != frame.strip() for frame in frames):
                raise ValueError(f"{path}:{lineno}: malformed frame in {stack!r}")
            if stack in seen:
                raise ValueError(f"{path}:{lineno}: duplicate stack {stack!r}")
            seen.add(stack)
            count += 1
    if count == 0:
        raise ValueError(f"{path}: no stacks")
    return count
