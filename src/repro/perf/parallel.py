"""Opt-in process fan-out for embarrassingly parallel experiments.

The repo's big sweeps — Fig. 9 latency points, accuracy over a dataset,
fault-campaign trials — are independent tasks whose outputs are merged
in task order.  This module runs them across forked worker processes
while keeping the results **byte-identical** to a serial run:

* **Determinism**: tasks carry their own seeds (e.g. the campaign's
  ``default_rng([seed, trial])``), so results do not depend on which
  worker ran them or in what order.
* **Ordered merge**: results always come back in submission order,
  regardless of completion order.
* **Fork inheritance, no pickling of work**: the experiment layers
  build closures over trained models and golden states, which do not
  pickle.  Workers are forked, so they inherit the task list by memory
  snapshot; only the (plain-data) *results* cross the pipe.
* **Sharded telemetry**: a forked child sharing the parent's sink file
  descriptor would interleave writes and corrupt the event log, so
  each worker writes its own JSONL shard (worker id + task index in
  every record) and the parent merges the shards deterministically —
  ordered by task, independent of scheduling — when the pool drains
  (see :mod:`repro.obs.fanout`).  When the ambient hub has no events
  file, workers run with telemetry DISABLED as before.

Anything that can go wrong with process pools (no fork support,
daemonic context, a single task, ``jobs=1``) degrades to the plain
serial loop — parallelism here is a throughput knob, never a semantic
one.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Process-wide default for ``jobs=None`` (set by the CLI's ``--jobs``).
_default_jobs = 1

#: Fork-inherited task list; valid only between pool setup and teardown
#: in the parent, and for the whole (short) life of a worker.
_ACTIVE_THUNKS: Optional[Sequence[Callable[[], object]]] = None

#: Stats of the most recent fan-out (for run manifests): jobs, tasks,
#: and — when telemetry was sharded — shard/event counts.
_LAST_FANOUT: Optional[dict] = None


def last_fanout() -> Optional[dict]:
    """Stats of the most recent :func:`parallel_tasks` call (or None)."""
    return _LAST_FANOUT


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (1 = serial)."""
    global _default_jobs
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    _default_jobs = jobs


def get_default_jobs() -> int:
    return _default_jobs


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return _default_jobs
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


def _child_init(worker_counter=None, events_path: Optional[str] = None) -> None:
    """Run in each forked worker before any task: re-point telemetry
    and make SIGTERM exit cleanly.

    The child inherited the parent's hub — including any open sink file
    descriptors.  Writing to them from multiple processes would
    interleave events, so the ambient hub is replaced: with an
    ``events_path`` the worker gets its own shard hub (see
    :mod:`repro.obs.fanout`), otherwise DISABLED as before.

    SIGTERM (what ``Pool.terminate`` and a Ctrl-C'd parent send) is
    rebound to ``sys.exit(143)`` so ``finally`` blocks run — in
    particular, the atomic-write helpers unlink their half-written temp
    files instead of leaving them for someone else to sweep.
    """
    import signal
    import sys

    from repro.obs import telemetry

    if events_path is not None and worker_counter is not None:
        with worker_counter.get_lock():
            worker_id = worker_counter.value
            worker_counter.value += 1
        from repro.obs import fanout

        telemetry._current = fanout.worker_hub(events_path, worker_id)
    else:
        telemetry._current = telemetry.DISABLED
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))


def _run_thunk(index: int):
    assert _ACTIVE_THUNKS is not None
    from repro.obs import fanout

    fanout.set_current_task(index)
    return _ACTIVE_THUNKS[index]()


def parallel_tasks(
    thunks: Sequence[Callable[[], T]], jobs: Optional[int] = None
) -> list[T]:
    """Run zero-argument callables, returning results in task order.

    With ``jobs <= 1`` (or one task, or no usable fork context) this is
    exactly ``[t() for t in thunks]``.  Otherwise the thunks are
    inherited by forked workers and executed ``jobs`` at a time; task
    ``i``'s result is always at position ``i``.
    """
    thunks = list(thunks)
    jobs = _resolve_jobs(jobs)
    if jobs <= 1 or len(thunks) <= 1:
        return [t() for t in thunks]

    global _ACTIVE_THUNKS, _LAST_FANOUT
    if _ACTIVE_THUNKS is not None:
        # Nested fan-out (a parallel task spawning parallel tasks):
        # run the inner level serially rather than oversubscribing.
        return [t() for t in thunks]

    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork always exists on Linux
        return [t() for t in thunks]

    from repro.obs import current as _current_hub

    hub = _current_hub()
    events_path = hub.events_path if hub.enabled else None
    processes = min(jobs, len(thunks))
    info = {"jobs": processes, "tasks": len(thunks)}

    _ACTIVE_THUNKS = thunks
    try:
        worker_counter = context.Value("i", 0)
        with context.Pool(
            processes=processes,
            initializer=_child_init,
            initargs=(worker_counter, events_path),
        ) as pool:
            results = pool.map(_run_thunk, range(len(thunks)))
            # Let the idle workers take their stop sentinels and exit
            # before the pool's exit terminates it: a SIGTERM that lands
            # just as a worker blocks on the task queue's lock runs its
            # handler only after a wait that never ends, and the join
            # after it hangs.
            pool.close()
            pool.join()
    except (OSError, AssertionError):  # pragma: no cover - no fork/daemon
        return [t() for t in thunks]
    finally:
        _ACTIVE_THUNKS = None
    if events_path is not None:
        from repro.obs import fanout

        info.update(fanout.merge_shards(hub))
    _LAST_FANOUT = info
    return results


def parallel_map(
    fn: Callable[..., T], tasks: Sequence, jobs: Optional[int] = None
) -> list[T]:
    """``[fn(task) for task in tasks]``, optionally across workers.

    ``fn`` and the tasks need not pickle — they are captured in thunks
    and inherited by fork, like :func:`parallel_tasks`.
    """
    return parallel_tasks([_bind(fn, task) for task in tasks], jobs)


def _bind(fn: Callable[..., T], task) -> Callable[[], T]:
    return lambda: fn(task)


def cpu_count() -> int:
    """Usable CPUs (for ``--jobs 0`` = "all cores" CLI semantics)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
