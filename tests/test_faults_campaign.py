"""Seeded campaigns: determinism, outcome classification, reports."""

import json

import pytest

from repro.devices.parameters import MODERN_STT
from repro.faults import (
    FaultCampaign,
    FaultPlan,
    OUTCOMES,
    adder_workload,
    render,
    svm_workload,
    validate_report,
)

GATE_PLAN = FaultPlan(
    gate_flip_rates={"NAND": 0.05, "AND": 0.1, "BUF": 0.01, "NOT": 0.001},
    verify_retry=True,
)


def run_campaign(plan, trials=4, seed=7, workload=None):
    workload = workload or adder_workload(MODERN_STT)
    return FaultCampaign(workload, plan, trials=trials, seed=seed).run()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        first = run_campaign(GATE_PLAN)
        second = run_campaign(GATE_PLAN)
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self):
        first = run_campaign(GATE_PLAN, seed=7)
        second = run_campaign(GATE_PLAN, seed=8)
        assert first.to_json() != second.to_json()


class TestOutcomeClassification:
    def test_gate_flips_with_retry_zero_sdc(self):
        """The acceptance criterion: recovery empties the SDC class."""
        report = run_campaign(GATE_PLAN, trials=6)
        assert report.sdc == 0
        assert report.detected_recovered > 0

    def test_gate_flips_without_retry_produce_sdc(self):
        plan = FaultPlan(gate_flip_rates={"NAND": 0.2}, verify_retry=False)
        report = run_campaign(plan, trials=4)
        assert report.sdc > 0

    def test_no_injection_is_clean(self):
        report = run_campaign(FaultPlan(), trials=2)
        assert report.outcomes["clean"] == 2
        assert all(v == 0 for v in report.totals["injected"].values())

    def test_nv_disturbs_are_masked(self):
        """Figure 7: a corrupted invalid copy never surfaces."""
        plan = FaultPlan(nv_corruption_rate=0.1, verify_retry=False)
        report = run_campaign(plan, trials=3)
        assert report.sdc == 0
        assert report.outcomes["masked"] + report.outcomes["clean"] == 3
        assert report.totals["injected"].get("nv", 0) > 0

    def test_outages_never_corrupt(self):
        plan = FaultPlan(outage_rate=0.01, verify_retry=False)
        report = run_campaign(plan, trials=3)
        assert report.sdc == 0
        assert report.totals["injected"].get("outage", 0) > 0

    def test_tiny_retry_budget_aborts_not_corrupts(self):
        plan = FaultPlan(
            gate_flip_rates={"NAND": 0.9, "AND": 0.9, "BUF": 0.9, "NOT": 0.9},
            verify_retry=True,
            retry_budget=0,
        )
        report = run_campaign(plan, trials=3)
        assert report.outcomes["detected_aborted"] > 0
        assert report.sdc == 0  # fail-stop, never silent

    def test_golden_mismatch_raises(self):
        workload = adder_workload(MODERN_STT)
        broken = type(workload)(
            name=workload.name,
            build=workload.build,
            readout=workload.readout,
            reference=[0, 0, 0],
        )
        with pytest.raises(RuntimeError, match="golden"):
            FaultCampaign(broken, FaultPlan(), trials=1).run()


class TestSvmCampaigns:
    """Campaigns on the SVM decision program."""

    def test_variation_rates_with_retry_recover_without_sdc(self):
        """Gate flips at Table-II-derived rates (Modern STT, 5 % device
        variation) with verify-and-retry: the resilience layer's
        acceptance criterion."""
        plan = FaultPlan.from_variation(
            MODERN_STT, sigma=0.05, trials=5_000, verify_retry=True
        )
        report = FaultCampaign(
            svm_workload(MODERN_STT), plan, trials=5, seed=7
        ).run()
        validate_report(report.to_json_obj())
        assert report.sdc == 0
        assert report.detected_recovered >= 1

    def test_resumed_from_one_trial_store_matches_straight_run(self, tmp_path):
        """A campaign killed after its first trial resumes from the
        per-trial store to the straight run's exact JSON; outages with
        retry never corrupt."""
        workload = svm_workload(MODERN_STT)
        plan = FaultPlan(outage_rate=0.01, verify_retry=True)
        straight = FaultCampaign(workload, plan, trials=3, seed=5).run()
        validate_report(straight.to_json_obj())
        assert straight.sdc == 0
        assert straight.totals["injected"].get("outage", 0) > 0
        store = str(tmp_path / "campaign-store")
        FaultCampaign(workload, plan, trials=1, seed=5).run(checkpoint_dir=store)
        resumed = FaultCampaign(workload, plan, trials=3, seed=5).run(
            checkpoint_dir=store
        )
        assert resumed.to_json() == straight.to_json()


class TestReport:
    def test_validates_and_serialises(self):
        report = run_campaign(GATE_PLAN, trials=3)
        obj = json.loads(report.to_json())
        validate_report(obj)
        assert obj["workload"] == "adder4x3"
        assert sum(obj["outcomes"].values()) == 3
        assert len(obj["details"]) == 3

    def test_validation_catches_bad_counts(self):
        report = run_campaign(FaultPlan(), trials=2)
        obj = report.to_json_obj()
        obj["outcomes"]["sdc"] = 99
        with pytest.raises(ValueError, match="sum"):
            validate_report(obj)

    def test_validation_catches_unknown_site(self):
        report = run_campaign(FaultPlan(), trials=2)
        obj = report.to_json_obj()
        obj["totals"] = {"injected": {"cosmic": 1}}
        with pytest.raises(ValueError, match="site"):
            validate_report(obj)

    def test_render_mentions_every_outcome(self):
        text = render(run_campaign(GATE_PLAN, trials=2))
        for outcome in OUTCOMES:
            assert outcome in text

    def test_svm_workload_reference(self):
        """The SVM workload's golden run matches its host-side math."""
        report = FaultCampaign(
            svm_workload(MODERN_STT), FaultPlan(), trials=1
        ).run()
        assert report.outcomes["clean"] == 1

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            FaultCampaign(adder_workload(MODERN_STT), FaultPlan(), trials=0)


class TestReportV12:
    """The v1.2 schema additions: structured aborts, retry totals, the
    hardening block, and the retries-per-trial histogram (PR 7)."""

    ABORT_PLAN = FaultPlan(
        gate_flip_rates={"NAND": 0.9, "AND": 0.9, "BUF": 0.9, "NOT": 0.9},
        verify_retry=True,
        retry_budget=0,
    )

    def test_structured_abort_record(self):
        report = run_campaign(self.ABORT_PLAN, trials=3)
        aborted = [d for d in report.details if "abort" in d]
        assert aborted
        for detail in aborted:
            abort = detail["abort"]
            assert set(abort) == {"pc", "gate", "retries"}
            assert isinstance(abort["pc"], int) and abort["pc"] >= 0
            assert isinstance(abort["gate"], str) and abort["gate"]
            assert abort["retries"] == 0  # budget was zero
            assert "abort_reason" in detail  # legacy field kept

    def test_max_retries_per_trial_total(self):
        report = run_campaign(GATE_PLAN, trials=6)
        totals = report.totals
        assert "max_retries_per_trial" in totals
        per_trial = [d["retries"] for d in report.details]
        assert totals["max_retries_per_trial"] == max(per_trial)
        assert totals["retries"] == sum(per_trial)

    def test_retries_per_trial_histogram(self):
        from repro import obs

        hub = obs.Telemetry(obs.InMemorySink())
        workload = adder_workload(MODERN_STT)
        with obs.use(hub):
            # jobs=1 keeps trials in-process so the observations land
            # on this hub, not a fan-out worker's shard hub.
            FaultCampaign(workload, GATE_PLAN, trials=4, seed=7).run(jobs=1)
        snap = hub.snapshot()
        hist = snap["histograms"].get("fault.retries_per_trial")
        assert hist is not None
        assert hist["count"] == 4

    def test_hardening_block_for_hardened_workload(self):
        from repro.harden import HardenPolicy, harden_program
        from repro.harden.frontier import _hardened_workload
        from repro.lint import LintConfig

        base = adder_workload(MODERN_STT)
        machine = base.build()
        program = machine.program
        config = LintConfig(
            n_data_tiles=len(machine.bank.data_tiles),
            rows=machine.bank.rows,
            cols=machine.bank.cols,
        )
        rates = {"NAND": 0.02, "BUF": 0.01, "NOT": 0.01}
        hardened = harden_program(
            program, rates, config, HardenPolicy(level=1.0, tmr_share=0.25)
        )
        workload = _hardened_workload(base, hardened)
        report = run_campaign(FaultPlan(), trials=2, workload=workload)
        block = report.hardening
        assert block is not None
        assert block["schema"] == "repro.harden/v1"
        assert block["verify_pcs"] > 0
        assert {"masked", "tmr", "unprotected", "verify"} <= set(
            block["assignment"]
        )
        obj = json.loads(report.to_json())
        validate_report(obj)
        assert obj["hardening"] == block

    def test_unhardened_report_omits_block_and_validates(self):
        report = run_campaign(FaultPlan(), trials=2)
        assert report.hardening is None
        obj = json.loads(report.to_json())
        assert "hardening" not in obj
        validate_report(obj)

    def test_validation_rejects_bad_abort_record(self):
        report = run_campaign(self.ABORT_PLAN, trials=3)
        obj = json.loads(report.to_json())
        bad = next(d for d in obj["details"] if "abort" in d)
        bad["abort"]["retries"] = -1
        with pytest.raises(ValueError, match="retries"):
            validate_report(obj)

    def test_validation_rejects_bad_hardening_block(self):
        report = run_campaign(FaultPlan(), trials=2)
        obj = json.loads(report.to_json())
        obj["hardening"] = {"tmr_groups": "three", "verify_pcs": 0}
        with pytest.raises(ValueError, match="hardening"):
            validate_report(obj)
