"""The `python -m repro` command-line interface."""

import json

import pytest

from repro.__main__ import AmbiguousSlug, _experiment_map, cmd_list, cmd_run, main


class TestCli:
    def test_list(self, capsys):
        assert cmd_list() == 0
        out = capsys.readouterr().out
        assert "table-i-idempotency" in out
        assert "figure-9-latency-vs-power" in out

    def test_run_known(self, capsys):
        assert main(["run", "table-i-idempotency"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert main(["run", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "Modern STT" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "table3_area.csv" in out
        assert (tmp_path / "out" / "table3_area.csv").exists()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSlugResolution:
    def test_ambiguous_short_name_is_an_error(self, capsys):
        assert main(["run", "table"]) == 2
        out = capsys.readouterr().out
        assert "ambiguous" in out
        assert "table-i-idempotency" in out
        assert "table-ii-devices" in out

    def test_unique_short_name_still_works(self, capsys):
        assert main(["run", "ablations"]) == 0
        assert "checkpoint" in capsys.readouterr().out.lower()

    def test_map_marks_collisions(self):
        table = _experiment_map()
        assert isinstance(table["table"], AmbiguousSlug)
        assert len(table["table"].candidates) == 4
        assert not isinstance(table["table-i-idempotency"], AmbiguousSlug)


class TestTelemetryFlags:
    def test_run_with_events_trace_and_manifest(self, tmp_path, capsys):
        events = str(tmp_path / "ev.jsonl")
        trace = str(tmp_path / "t.json")
        manifest_dir = str(tmp_path / "run")
        assert (
            main(
                [
                    "run",
                    "table-i-idempotency",
                    "--events",
                    events,
                    "--trace",
                    trace,
                    "--manifest",
                    manifest_dir,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "manifest:" in out

        from repro.obs.schema import validate_events_jsonl, validate_perfetto

        assert validate_events_jsonl(events) >= 0
        assert validate_perfetto(trace) > 0  # at least the experiment span
        payload = json.load(open(tmp_path / "run" / "manifest.json"))
        assert payload["config"]["experiments"] == ["table-i-idempotency"]
        assert "sha" in payload["git"]

    def test_run_without_flags_has_no_telemetry_output(self, capsys):
        assert main(["run", "table-i-idempotency"]) == 0
        assert "telemetry:" not in capsys.readouterr().out


FAULTS_FAST = [
    "faults",
    "--workload",
    "adder",
    "--trials",
    "3",
    "--seed",
    "7",
    "--derive-trials",
    "2000",
]


class TestFaultsCommand:
    def test_report_byte_identical_across_runs(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(FAULTS_FAST + ["--out", str(first)]) == 0
        assert main(FAULTS_FAST + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_report_validates_and_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(FAULTS_FAST + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fault campaign" in text
        assert "detected_recovered" in text

        from repro.faults import validate_report

        payload = json.loads(out.read_text())
        validate_report(payload)
        assert payload["seed"] == 7
        assert payload["outcomes"]["sdc"] == 0
        assert payload["plan"]["meta"]["technology"] == "Modern STT"

    def test_json_on_stdout_without_out(self, capsys):
        assert main(FAULTS_FAST) == 0
        text = capsys.readouterr().out
        payload = json.loads(text[text.index("{") :])
        assert payload["schema"] == "repro.faults.report/v1.2"
        assert payload["lint"] == {"errors": 0, "rules": [], "warnings": 0}

    def test_unknown_tech(self, capsys):
        assert main(["faults", "--tech", "vacuum-tube"]) == 2
        assert "unknown technology" in capsys.readouterr().out

    def test_manifest_records_seed_and_plan(self, tmp_path, capsys):
        mdir = tmp_path / "run"
        assert main(FAULTS_FAST + ["--manifest", str(mdir)]) == 0
        payload = json.load(open(mdir / "manifest.json"))
        assert payload["seed"] == 7
        assert payload["config"]["workload"] == "adder"
        assert "gate_flip_rates" in payload["config"]["plan"]


class TestRunSeed:
    def test_seed_recorded_in_manifest(self, tmp_path, capsys):
        mdir = tmp_path / "run"
        assert (
            main(
                [
                    "run",
                    "table-i-idempotency",
                    "--seed",
                    "11",
                    "--manifest",
                    str(mdir),
                ]
            )
            == 0
        )
        payload = json.load(open(mdir / "manifest.json"))
        assert payload["seed"] == 11

    def test_seed_sets_global_rngs(self):
        import random

        import numpy as np

        from repro.__main__ import _seed_everything

        expected_py = random.Random(123).random()
        expected_np = np.random.RandomState(123).random_sample()
        _seed_everything(123)
        assert random.random() == expected_py
        assert np.random.random() == expected_np


class TestStats:
    def test_stats_replays_an_event_log(self, tmp_path, capsys):
        events = str(tmp_path / "ev.jsonl")
        assert (
            main(["run", "figures-10-12-breakdown", "--events", events]) == 0
        )
        capsys.readouterr()
        assert main(["stats", events, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "events replayed" in out
        assert "energy / latency by category" in out
        assert "compute" in out

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/ev.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_stats_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["stats", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "cannot read" in out
        assert "line 1" in out

    def test_run_unwritable_events_path(self, capsys):
        assert (
            main(["run", "table-i-idempotency", "--events", "/no/dir/e.jsonl"])
            == 2
        )
        assert "cannot open telemetry output" in capsys.readouterr().out


HARDEN_FAST = [
    "harden",
    "--workloads",
    "bnn",
    "--tech",
    "modern-stt",
    "--levels",
    "0",
    "1",
    "--trials",
    "8",
    "--seed",
    "11",
]


class TestHardenCommand:
    """``HARDEN_FAST`` is the ``tiny_frontier`` sweep, so the CLI's
    report must match the shared serial library run byte for byte."""

    def test_writes_valid_frontier_report(self, tmp_path, capsys, tiny_frontier):
        from repro.harden.frontier import report_json

        out = tmp_path / "frontier.json"
        assert main(HARDEN_FAST + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "checks: ok" in text
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.harden.frontier/v1"
        assert len(payload["points"]) == 2
        assert all(p["bound_dominates"] for p in payload["points"])
        assert out.read_text() == report_json(tiny_frontier)

    def test_byte_identical_across_jobs(self, tmp_path, monkeypatch, tiny_frontier):
        from repro.harden.frontier import report_json
        from repro.perf import parallel

        # main() makes --jobs the process-wide default; restore it so
        # later tests in this process do not inherit jobs=2.
        monkeypatch.setattr(parallel, "_default_jobs", parallel.get_default_jobs())
        out = tmp_path / "parallel.json"
        assert main(HARDEN_FAST + ["--out", str(out), "--jobs", "2"]) == 0
        assert out.read_text() == report_json(tiny_frontier)

    def test_unknown_tech(self, capsys):
        assert main(["harden", "--tech", "vacuum-tube"]) == 2
        assert "unknown technology" in capsys.readouterr().out

    def test_experiment_registered(self, capsys):
        assert cmd_list() == 0
        assert (
            "hardening-frontier-yield-vs-energy-overhead"
            in capsys.readouterr().out
        )
