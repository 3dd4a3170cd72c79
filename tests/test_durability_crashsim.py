"""The fork/SIGKILL crash-injection harness.

A small adder campaign with mid-write kills and generation fuzzing must
come back byte-identical with an internally consistent report; the
acceptance matrix (210 kills over the SVM and BNN intermittent
workloads) and a campaign powered by a fluctuating solar trace must
resume byte-identically too.
"""

import os
import sys

import pytest

from repro.durability.crashsim import (
    CrashPlan,
    CrashReport,
    _fuzz_generation,
    run_crash_campaign,
)
from repro.durability.image import NoValidImageError, NVImageStore

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.platform == "win32",
    reason="crash injection needs fork()",
)


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory) -> CrashReport:
        plan = CrashPlan(
            workload="adder",
            kills=8,
            seed=3,
            mid_write_fraction=0.5,
            fuzz_fraction=0.5,
            period=8,
        )
        return run_crash_campaign(plan, tmp_path_factory.mktemp("images"))

    def test_byte_identical(self, report):
        assert report.identical
        assert report.final == report.reference

    def test_every_kill_happened(self, report):
        assert report.kills == 8
        # kills + the final clean attempt
        assert report.attempts == 9

    def test_mid_write_and_fuzz_exercised(self, report):
        assert report.mid_write_kills > 0
        assert report.fuzzed > 0

    def test_every_fuzz_was_detected(self, report):
        assert report.fallbacks >= report.fuzzed

    def test_report_serialises(self, report):
        obj = report.to_json_obj()
        assert obj["workload"] == "adder"
        assert obj["identical"] is True

    def test_deterministic(self, tmp_path, report):
        plan = CrashPlan(
            workload="adder",
            kills=8,
            seed=3,
            mid_write_fraction=0.5,
            fuzz_fraction=0.5,
            period=8,
        )
        again = run_crash_campaign(plan, tmp_path / "again")
        assert again.to_json_obj() == report.to_json_obj()


class TestKillMatrix:
    """200+ seeded SIGKILLs at instruction boundaries, a seeded share
    of them mid-image-write and a seeded share followed by torn/corrupt
    generation fuzzing."""

    #: (workload, kills, seed): 210 kill points.
    MATRIX = (("svm", 120, 11), ("bnn", 90, 12))

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory) -> list:
        base = tmp_path_factory.mktemp("matrix")
        return [
            run_crash_campaign(
                CrashPlan(workload=workload, kills=kills, seed=seed),
                base / f"images-{workload}-{seed}",
            )
            for workload, kills, seed in self.MATRIX
        ]

    def test_at_least_200_kills(self, reports):
        assert sum(r.kills for r in reports) >= 200

    def test_every_resume_byte_identical(self, reports):
        for report in reports:
            assert report.identical, report.workload

    def test_mid_write_kills_and_fuzzing_exercised(self, reports):
        assert sum(r.mid_write_kills for r in reports) >= 1
        assert sum(r.fuzzed for r in reports) >= 1

    def test_every_fuzzed_generation_fell_back(self, reports):
        """CRC rejected each fuzzed generation and the surviving one
        took over: one fallback per fuzz."""
        for report in reports:
            assert report.fallbacks == report.fuzzed, report.workload


def test_resume_under_solar_trace_byte_identical(tmp_path):
    plan = CrashPlan(
        workload="svm", kills=6, seed=3, trace_family="solar", trace_seed=1
    )
    report = run_crash_campaign(plan, tmp_path / "crash-solar")
    assert report.identical
    assert report.kills == 6


class TestGuards:
    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown crash workload"):
            run_crash_campaign(CrashPlan(workload="nope"), tmp_path)

    def test_nonempty_image_dir_rejected(self, tmp_path):
        (tmp_path / "stale").write_text("x")
        with pytest.raises(ValueError, match="not empty"):
            run_crash_campaign(CrashPlan(workload="adder", kills=2), tmp_path)

    def test_too_many_kills_rejected(self, tmp_path):
        # The adder workload is ~100 instructions.
        with pytest.raises(ValueError, match="cannot place"):
            run_crash_campaign(
                CrashPlan(workload="adder", kills=5000), tmp_path
            )


class TestFuzzer:
    def test_fuzz_corrupts_newest_generation(self, tmp_path):
        import numpy as np

        store = NVImageStore(tmp_path)
        store.commit({"n": 1})
        store.commit({"n": 2})
        assert _fuzz_generation(store, np.random.default_rng(0))
        probe = NVImageStore(tmp_path)
        payload, _ = probe.load()
        assert payload == {"n": 1}
        assert probe.fallbacks == 1

    def test_fuzz_on_empty_store_is_noop(self, tmp_path):
        import numpy as np

        store = NVImageStore(tmp_path)
        assert not _fuzz_generation(store, np.random.default_rng(0))
        with pytest.raises(NoValidImageError):
            store.load()
