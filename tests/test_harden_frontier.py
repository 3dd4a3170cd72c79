"""The frontier sweep: checks, determinism, resume, the lint round trip
of the hardened program, and the energy-overhead gate against the
committed ``BENCH_PR7.json``."""

from pathlib import Path

import pytest

from repro.devices.parameters import MODERN_STT
from repro.harden.frontier import (
    SCHEMA,
    binomial_tail,
    check_frontier,
    format_table,
    report_json,
    run_frontier,
    tech_slug,
)
from repro.perf.bench import compare_reports, load_report
from tests.conftest import TINY_FRONTIER

#: The committed energy-overhead baseline of ``TINY_FRONTIER``.
BENCH_PR7 = Path(__file__).resolve().parents[1] / "BENCH_PR7.json"
#: A hardened energy bound more than 30 % above the baseline's fails.
BENCH_THRESHOLD = 0.30


def point(workload="w", tech="T", level=0.0, sdc=0.0, bound=1.0):
    return {
        "workload": workload,
        "technology": tech,
        "level": level,
        "sdc_rate": sdc,
        "sdc_bound": {"total": bound},
        "bound_dominates": bound >= sdc,
    }


class TestChecks:
    def test_dominance_failure_reported(self):
        report = {"points": [point(level=0.0, sdc=0.5, bound=0.1)]}
        checks = check_frontier(report)
        assert not checks["ok"]
        assert any("bound" in f for f in checks["failures"])

    def test_improvement_failure_reported(self):
        report = {
            "points": [
                point(level=0.0, sdc=0.4, bound=1.0),
                point(level=1.0, sdc=0.2, bound=1.0),
            ]
        }
        checks = check_frontier(report)
        assert not checks["ok"]
        assert any("10x" in f or "improves" in f for f in checks["failures"])

    def test_zero_unhardened_rate_is_a_failure(self):
        report = {
            "points": [
                point(level=0.0, sdc=0.0, bound=1.0),
                point(level=1.0, sdc=0.0, bound=1.0),
            ]
        }
        checks = check_frontier(report)
        assert not checks["ok"]
        assert any("zero" in f for f in checks["failures"])

    def test_zero_hardened_rate_is_infinite_improvement(self):
        report = {
            "points": [
                point(level=0.0, sdc=0.5, bound=1.0),
                point(level=1.0, sdc=0.0, bound=0.01),
            ]
        }
        checks = check_frontier(report)
        assert checks["ok"]
        assert checks["improvement"]["w / T"] == "inf"

    def test_single_level_sweep_skips_improvement(self):
        report = {"points": [point(level=0.5, sdc=0.1, bound=0.5)]}
        assert check_frontier(report)["ok"]

    def test_tech_slug(self):
        assert tech_slug(MODERN_STT) == "modern-stt"


class TestBinomialGuard:
    def test_tail_matches_exact_enumeration(self):
        import math

        def brute(x, n, p):
            return sum(
                math.comb(n, k) * p**k * (1 - p) ** (n - k)
                for k in range(x, n + 1)
            )

        for x, n, p in [(2, 32, 0.0187), (8, 32, 0.2498), (1, 8, 0.5)]:
            assert binomial_tail(x, n, p) == pytest.approx(brute(x, n, p))

    def test_tail_edge_cases(self):
        assert binomial_tail(0, 32, 0.1) == 1.0
        assert binomial_tail(5, 32, 0.0) == 0.0
        assert binomial_tail(5, 32, 1.0) == 1.0

    def test_noise_over_tight_bound_passes(self):
        """One count over a tight bound at small n is sampling noise,
        not a refutation: 8/32 against bound 0.2498 has tail ~0.57."""
        pt = point(level=0.0, sdc=8 / 32, bound=0.2498)
        pt["trials"] = 32
        assert check_frontier({"points": [pt]})["ok"]

    def test_statistical_refutation_fails(self):
        """A rate far above the bound at large n is a real violation."""
        pt = point(level=0.0, sdc=0.5, bound=0.05)
        pt["trials"] = 256
        checks = check_frontier({"points": [pt]})
        assert not checks["ok"]
        assert any("p=" in f for f in checks["failures"])

    def test_handbuilt_points_keep_strict_comparison(self):
        checks = check_frontier(
            {"points": [point(level=0.0, sdc=0.5, bound=0.1)]}
        )
        assert not checks["ok"]


class TestSweep:
    def test_tiny_sweep_passes_its_own_checks(self, tiny_frontier):
        assert tiny_frontier["schema"] == SCHEMA
        assert len(tiny_frontier["points"]) == 2
        assert tiny_frontier["checks"]["ok"], tiny_frontier["checks"]["failures"]
        for pt in tiny_frontier["points"]:
            assert pt["bound_dominates"]
            assert 0.0 <= pt["sdc_rate"] <= 1.0
            assert pt["yield"] == 1.0 - pt["sdc_rate"]
        hardened = next(p for p in tiny_frontier["points"] if p["level"] == 1.0)
        assert hardened["protection"]["tmr_groups"] > 0
        assert hardened["protection"]["verify_pcs"] > 0
        assert hardened["energy_overhead"] > 0.0
        table = format_table(tiny_frontier)
        assert "checks: ok" in table

    def test_byte_identical_across_jobs(self, tiny_frontier):
        parallel = report_json(run_frontier(**TINY_FRONTIER, jobs=2))
        assert report_json(tiny_frontier) == parallel

    def test_resume_reuses_checkpointed_points(self, tmp_path, tiny_frontier):
        ck = tmp_path / "ck"
        first = report_json(run_frontier(**TINY_FRONTIER, checkpoint_dir=str(ck)))
        assert first == report_json(tiny_frontier)
        # All points persisted: a re-run recomputes nothing and merges
        # to the same bytes.
        done = list(ck.glob("*"))
        assert done
        second = report_json(run_frontier(**TINY_FRONTIER, checkpoint_dir=str(ck)))
        assert first == second

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_frontier(workloads=("nope",), technologies=(MODERN_STT,))

    def test_plan_embeds_scaling_provenance(self, tiny_frontier):
        meta = tiny_frontier["points"][0]["plan"]["meta"]
        assert meta["technology"] == MODERN_STT.name
        assert "scale" in meta and "floor" in meta


def test_hardened_bnn_lints_clean_above_its_bound_only(tiny_frontier):
    """The fully hardened BNN, re-hardened from the frontier point's
    flip rates, re-derives the point's proven SDC bound, passes the full
    lint pipeline (SDC pass included) just above that bound, and trips
    SDC001 below it."""
    from repro.faults.campaign import WORKLOADS
    from repro.harden import analyse, harden_program, sdc_bound
    from repro.lint import LintConfig, lint_program

    point = next(p for p in tiny_frontier["points"] if p["level"] == 1.0)
    machine = WORKLOADS["bnn"](MODERN_STT).build()
    bank = machine.bank
    shape = dict(n_data_tiles=len(bank.data_tiles), rows=bank.rows, cols=bank.cols)
    rates = dict(point["plan"]["gate_flip_rates"])
    hardened = harden_program(machine.program, rates, LintConfig(**shape))

    bound = sdc_bound(hardened, rates, LintConfig(**shape), verify_marked=True)
    assert abs(bound.total - point["sdc_bound"]["total"]) <= 1e-12
    loose = lint_program(
        hardened,
        LintConfig(**shape, flip_rates=rates, sdc_target=bound.total + 1e-9),
    )
    assert loose.ok, [d.rule for d in loose.diagnostics]
    tight = lint_program(
        hardened,
        LintConfig(**shape, flip_rates=rates, sdc_target=bound.total / 2),
    )
    assert "SDC001" in {d.rule for d in tight.diagnostics}
    assert analyse(hardened, rates, LintConfig(**shape)).records


def energy_report(frontier: dict) -> dict:
    """The frontier's energy story as a ``repro.bench/v1`` report.

    ``ns_per_op`` carries each hardened point's worst-case energy bound
    in nanojoules and ``baseline_ns_per_op`` the unhardened bound, so
    ``bench --compare`` flags protection that got more expensive.
    """
    results = []
    for point in frontier["points"]:
        if point["level"] <= 0:
            continue
        hardened_nj = point["energy_bound_j"]["hardened"] * 1e9
        baseline_nj = point["energy_bound_j"]["original"] * 1e9
        results.append(
            {
                "op": f"harden_{point['workload']}_L{point['level']:g}",
                "config": {
                    "technology": point["technology"],
                    "level": point["level"],
                    "tmr_groups": point["protection"]["tmr_groups"],
                    "verify_pcs": point["protection"]["verify_pcs"],
                },
                "reps": point["trials"],
                "ns_per_op": round(hardened_nj, 4),
                "baseline": "unhardened",
                "baseline_ns_per_op": round(baseline_nj, 4),
                "speedup": round(baseline_nj / hardened_nj, 4),
            }
        )
    return {"schema": "repro.bench/v1", "quick": True, "results": results}


class TestEnergyGate:
    def test_committed_baseline_passes(self, tiny_frontier):
        """The sweep's energy bounds have not grown past the threshold
        against ``BENCH_PR7.json``, which must exist, parse and carry
        the bench schema, and which names no op the sweep dropped."""
        comparison = compare_reports(
            load_report(str(BENCH_PR7)),
            energy_report(tiny_frontier),
            threshold=BENCH_THRESHOLD,
        )
        assert comparison["ops"]
        assert not comparison["regressions"], comparison["ops"]
        assert not comparison["only_old"]

    def test_fails_on_energy_regression(self, tiny_frontier):
        cheap = energy_report(tiny_frontier)
        for entry in cheap["results"]:
            entry["ns_per_op"] = entry["ns_per_op"] / 10.0  # old was cheap
        comparison = compare_reports(
            cheap, energy_report(tiny_frontier), threshold=BENCH_THRESHOLD
        )
        assert comparison["regressions"]
