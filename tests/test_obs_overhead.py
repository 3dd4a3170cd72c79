"""The zero-overhead-when-off contract.

Tier-1 latency benchmarks run with telemetry disabled; the guard here
asserts the disabled hot path performs no per-instruction allocations
attributable to the obs layer — tracked with tracemalloc filtered to
the ``repro/obs`` source files, which catches any accidental event
construction, string formatting, or closure allocation on the
disabled path.
"""

import os
import tracemalloc

import repro.obs
from repro.core.accelerator import Mouse
from repro.devices.parameters import MODERN_STT
from repro.isa.assembler import assemble
from repro.obs import InMemorySink, NullSink, Telemetry

OBS_DIR = os.path.dirname(repro.obs.__file__)

SOURCE = """
ACTIVATE t0 cols 0..7
PRESET0  t0 row 1
NAND     t0 in 0,2 out 1
PRESET1  t0 row 3
AND      t0 in 0,2 out 3
HALT
"""


def machine():
    m = Mouse(MODERN_STT, rows=32, cols=8)
    m.load(assemble(SOURCE))
    return m


def run_instructions(m, n=200):
    for _ in range(n):
        m.reset_for_rerun()
        m.run()


def obs_allocations(snapshot):
    return [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.startswith(OBS_DIR)
    ]


class TestDisabledHotPath:
    def test_no_obs_allocations_when_detached(self):
        m = machine()
        run_instructions(m, n=5)  # warm caches outside the window
        tracemalloc.start()
        try:
            run_instructions(m, n=200)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = obs_allocations(snapshot)
        assert stats == [], f"obs allocated on the disabled path: {stats}"

    def test_no_obs_allocations_with_null_sink_attached(self):
        m = machine()
        m.attach_telemetry(Telemetry(NullSink()))
        run_instructions(m, n=5)
        tracemalloc.start()
        try:
            run_instructions(m, n=200)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = obs_allocations(snapshot)
        assert stats == [], f"obs allocated with a NullSink attached: {stats}"

    def test_guard_is_a_single_pointer_check(self):
        """The contract the benchmarks rely on: a disabled hub attaches
        as None at every instrumented site."""
        m = machine()
        m.attach_telemetry(Telemetry())  # disabled hub
        assert m.controller._obs is None
        assert m.ledger.obs is None
        m.attach_telemetry(Telemetry(NullSink()))
        assert m.controller._obs is None

    def test_sanity_enabled_path_does_allocate(self):
        """The tracemalloc filter actually sees obs allocations when a
        live sink is attached (guards against a vacuous test)."""
        m = machine()
        m.attach_telemetry(Telemetry(InMemorySink()))
        run_instructions(m, n=2)
        tracemalloc.start()
        try:
            run_instructions(m, n=20)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert obs_allocations(snapshot), "filter failed to see obs allocations"


class TestImportFootprint:
    def test_importing_repro_loads_no_server_or_pool(self):
        """The HTTP exporter and the process pool load their stdlib
        modules only when a server or a pool is built, so importing the
        package costs neither (about 3 MB of RSS)."""
        import subprocess
        import sys

        probe = (
            "import sys, repro, repro.obs, repro.perf.parallel\n"
            "print(sorted(m for m in ('ssl', 'http.server', 'multiprocessing')"
            " if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "[]"
