"""The `python -m repro` option surface, interrupt path and argument bounds.

* ``tests/data/cli_options.json`` pins every subcommand's options:
  option strings, dest, default, const, nargs, choices, metavar,
  required and action class (help text and ``type`` are left out).
  The options compare as a set, so declaring a flag once in a shared
  parent parser, which reorders them, still matches.
* SIGINT/SIGTERM during a command's work exits ``128 + signum`` after
  flushing telemetry and the manifest, and writes no ``--out`` report.
* Out-of-range numbers are rejected by argparse (exit 2, naming the
  flag) before any work starts; the boundary values still parse.
"""

from __future__ import annotations

import argparse
import json
import signal
from pathlib import Path
from unittest import mock

import pytest

from repro.__main__ import main

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = Path(__file__).parent / "data" / "cli_options.json"
ASM = str(Path(__file__).parent / "data" / "lint_corpus" / "dead_code.asm")
BENCH_REPORT = str(ROOT / "BENCH_PR9.json")

_parse_args = argparse.ArgumentParser.parse_args


class _Captured(Exception):
    def __init__(self, parser: argparse.ArgumentParser) -> None:
        super().__init__("parser captured")
        self.parser = parser


def built_parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds, caught as it starts parsing."""

    def capture(self, *args, **kwargs):
        raise _Captured(self)

    with mock.patch.object(argparse.ArgumentParser, "parse_args", capture):
        try:
            main(["list"])
        except _Captured as exc:
            return exc.parser
    raise AssertionError("main() did not parse its arguments")


def option_rows(parser: argparse.ArgumentParser, command: str = "") -> list:
    """One JSON-ready row per option of ``parser`` and its subparsers."""
    rows = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows.extend(option_rows(sub, f"{command} {name}".strip()))
            choices = sorted(action.choices)
        rows.append(
            {
                "command": command,
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "const": action.const,
                "nargs": action.nargs,
                "choices": None if choices is None else list(choices),
                "metavar": action.metavar,
                "required": action.required,
                "action": type(action).__name__,
            }
        )
    return rows


def _canonical(rows) -> set[str]:
    return {json.dumps(row, sort_keys=True) for row in rows}


def write_snapshot(path: Path = SNAPSHOT) -> None:
    """Regenerate the snapshot from the current parser, one row a line."""
    lines = sorted(_canonical(option_rows(built_parser())))
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


class TestOptionSnapshot:
    def test_options_match_the_snapshot(self):
        rows = option_rows(built_parser())
        pinned = json.loads(SNAPSHOT.read_text())
        current, expected = _canonical(rows), _canonical(pinned)
        assert len(current) == len(rows)
        assert sorted(current - expected) == []
        assert sorted(expected - current) == []


def _interrupt_with(signum):
    def work(*args, **kwargs):
        signal.raise_signal(signum)
        raise AssertionError("the signal did not interrupt the work")

    return work


def _assert_interrupted(status, signum, capsys) -> str:
    out = capsys.readouterr().out
    assert status == 128 + signum
    assert f"interrupted (received {signal.Signals(signum).name})" in out
    return out


def _manifest(directory: Path) -> dict:
    return json.loads((directory / "manifest.json").read_text())


SIGNALS = pytest.mark.parametrize(
    "signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
)


@SIGNALS
class TestInterrupts:
    def test_run(self, signum, tmp_path, monkeypatch, capsys):
        from repro.experiments import table1_idempotency
        from repro.obs.schema import validate_events_jsonl

        monkeypatch.setattr(table1_idempotency, "run", _interrupt_with(signum))
        ckpt, events = tmp_path / "ckpt", tmp_path / "ev.jsonl"
        status = main(
            [
                "run", "table-i-idempotency",
                "--checkpoint-dir", str(ckpt),
                "--manifest", str(tmp_path / "m"),
                "--events", str(events),
            ]
        )
        out = _assert_interrupted(status, signum, capsys)
        assert f"resume with: python -m repro resume {ckpt}" in out
        assert _manifest(tmp_path / "m")["interrupted"] is True
        assert validate_events_jsonl(events) >= 0

    def test_faults(self, signum, tmp_path, monkeypatch, capsys):
        from repro.faults import FaultCampaign

        monkeypatch.setattr(FaultCampaign, "run", _interrupt_with(signum))
        out = tmp_path / "report.json"
        status = main(
            [
                "faults", "--workload", "adder", "--derive-trials", "2000",
                "--out", str(out), "--manifest", str(tmp_path / "m"),
            ]
        )
        _assert_interrupted(status, signum, capsys)
        assert not out.exists()
        assert _manifest(tmp_path / "m")["interrupted"] is True

    def test_harden(self, signum, tmp_path, monkeypatch, capsys):
        from repro.harden import frontier

        monkeypatch.setattr(frontier, "run_frontier", _interrupt_with(signum))
        out = tmp_path / "frontier.json"
        status = main(
            [
                "harden", "--workloads", "adder", "--tech", "modern-stt",
                "--out", str(out), "--manifest", str(tmp_path / "m"),
            ]
        )
        _assert_interrupted(status, signum, capsys)
        assert not out.exists()
        assert _manifest(tmp_path / "m")["interrupted"] is True

    def test_bench(self, signum, tmp_path, monkeypatch, capsys):
        from repro.perf import bench

        monkeypatch.setattr(bench, "run_bench", _interrupt_with(signum))
        out = tmp_path / "bench.json"
        status = main(["bench", "--out", str(out)])
        _assert_interrupted(status, signum, capsys)
        assert not out.exists()


REPLAY = ["env", "replay", "svm-adult", "solar"]

#: Each invocation names one out-of-range flag (the second item).
OUT_OF_RANGE = [
    (["run", "table-i-idempotency", "--jobs", "-1"], "--jobs"),
    (["all", "--jobs", "-1"], "--jobs"),
    (["faults", "--trials", "0"], "--trials"),
    (["faults", "--jobs", "-2"], "--jobs"),
    (["faults", "--sigma", "-1"], "--sigma"),
    (["faults", "--gate-scale", "-1"], "--gate-scale"),
    (["faults", "--array-rate", "2"], "--array-rate"),
    (["faults", "--nv-rate", "2"], "--nv-rate"),
    (["faults", "--outage-rate", "-0.5"], "--outage-rate"),
    (["faults", "--retry-budget", "-1"], "--retry-budget"),
    (["faults", "--workload", "adder", "--derive-trials", "0"],
     "--derive-trials"),
    (["harden", "--trials", "0"], "--trials"),
    (["harden", "--levels", "2"], "--levels"),
    (["harden", "--tmr-share", "2"], "--tmr-share"),
    (["harden", "--target-flips", "-1"], "--target-flips"),
    (["lint", "--asm", ASM, "--rows", "0"], "--rows"),
    (["lint", "--asm", ASM, "--tiles", "0"], "--tiles"),
    (["verify", "--asm", ASM, "--period", "0"], "--period"),
    (["verify", "adder", "--hardened", "--level", "2"], "--level"),
    (["verify", "adder", "--hardened", "--tmr-share", "2"], "--tmr-share"),
    (["profile", "svm-adult", "--power", "0"], "--power"),
    (["env", "describe", "constant", "--watts", "0"], "--watts"),
    (REPLAY + ["--max-inferences", "0"], "--max-inferences"),
    (REPLAY + ["--checkpoint-period", "0"], "--checkpoint-period"),
    (REPLAY + ["--leakage", "-1"], "--leakage"),
    (REPLAY + ["--esr", "-1"], "--esr"),
    (REPLAY + ["--budget", "0"], "--budget"),
    (REPLAY + ["--budget", "-1"], "--budget"),
    (["bench", "--compare", BENCH_REPORT, BENCH_REPORT, "--threshold", "-1"],
     "--threshold"),
]


class TestArgumentBounds:
    @pytest.mark.parametrize(
        "argv,flag",
        OUT_OF_RANGE,
        ids=[" ".join(a[:1] + a[-2:]) for a, _ in OUT_OF_RANGE],
    )
    def test_out_of_range_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert captured.out == ""

    def test_boundary_values_parse(self):
        parser = built_parser()
        cases = [
            (["run", "x", "--jobs", "0"], {"jobs": 0}),
            (["all", "--jobs", "0"], {"jobs": 0}),
            (["resume", "d", "--jobs", "0"], {"jobs": 0}),
            (
                [
                    "faults", "--trials", "1", "--derive-trials", "1",
                    "--jobs", "0", "--retry-budget", "0", "--sigma", "0",
                    "--gate-scale", "0", "--array-rate", "0",
                    "--nv-rate", "1", "--outage-rate", "1",
                ],
                {
                    "trials": 1, "derive_trials": 1, "jobs": 0,
                    "retry_budget": 0, "sigma": 0.0, "gate_scale": 0.0,
                    "array_rate": 0.0, "nv_rate": 1.0, "outage_rate": 1.0,
                },
            ),
            (
                [
                    "harden", "--trials", "1", "--levels", "0", "1",
                    "--tmr-share", "0", "--target-flips", "0",
                ],
                {
                    "trials": 1, "levels": [0.0, 1.0], "tmr_share": 0.0,
                    "target_flips": 0.0,
                },
            ),
            (
                ["lint", "--rows", "2", "--tiles", "1", "--cols", "1"],
                {"rows": 2, "tiles": 1, "cols": 1},
            ),
            (
                [
                    "verify", "--rows", "2", "--period", "1",
                    "--level", "0", "--tmr-share", "1",
                ],
                {"rows": 2, "period": 1, "level": 0.0, "tmr_share": 1.0},
            ),
            (
                REPLAY + [
                    "--max-inferences", "1", "--checkpoint-period", "1",
                    "--leakage", "0", "--esr", "0",
                ],
                {
                    "max_inferences": 1, "checkpoint_period": 1,
                    "leakage": 0.0, "esr": 0.0,
                },
            ),
            (["bench", "--threshold", "0"], {"threshold": 0.0}),
        ]
        for argv, expected in cases:
            args = _parse_args(parser, argv)
            got = {key: getattr(args, key) for key in expected}
            assert got == expected, argv
