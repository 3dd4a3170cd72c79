"""repro.perf — hot-path acceleration for the MOUSE simulator.

Four coordinated pieces, all bound by one hard invariant: **energy
ledgers, accuracy numbers, and report JSON stay byte-identical to the
scalar reference implementation** (the equivalence tests in
``tests/test_perf_equivalence.py`` and the lint cost-pass cross-check
are the referees).

* :mod:`repro.perf.kernels` — per-``(DeviceParameters, GateSpec)``
  frozen NumPy lookup tables (``r_total`` ladder, per-count currents,
  ``will_switch`` thresholds, ``gate_energy`` ladder), computed once and
  indexed by ``n_ones`` thereafter.  :class:`repro.array.tile.Tile`
  consumes these instead of rebuilding the tables on every gate.
* :mod:`repro.perf.batched` — lock-step batched inference: a
  :class:`BatchedMouse` carries a ``(batch, rows, cols)`` state tensor
  through one shared instruction stream (CRAM control flow is
  input-independent), producing bit-identical per-sample predictions
  and per-sample :class:`~repro.energy.metrics.Breakdown` ledgers.
* :mod:`repro.perf.parallel` — opt-in ``--jobs N`` process fan-out for
  the embarrassingly parallel sweeps (Fig. 9 points, accuracy rows,
  fault-campaign trials) with deterministic per-task seeding and
  ordered merges.
* :mod:`repro.perf.bench` — the microbenchmark + trajectory harness
  behind ``python -m repro bench`` and the hot-path speedup gates of
  ``make test``, writing ``BENCH_PR9.json`` (schema ``repro.bench/v1``).

See ``docs/PERFORMANCE.md`` for what is cached, the invalidation rules,
and the batched engine's semantics.
"""

from repro.perf.kernels import (
    ElectricalKernel,
    cache_stats,
    electrical_kernel,
    publish_cache_stats,
)
from repro.perf.batched import BatchedLedger, BatchedMouse, BatchedTile
from repro.perf.parallel import (
    get_default_jobs,
    parallel_map,
    parallel_tasks,
    set_default_jobs,
)

__all__ = [
    "ElectricalKernel",
    "electrical_kernel",
    "cache_stats",
    "publish_cache_stats",
    "BatchedMouse",
    "BatchedTile",
    "BatchedLedger",
    "parallel_map",
    "parallel_tasks",
    "get_default_jobs",
    "set_default_jobs",
]
