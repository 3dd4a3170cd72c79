"""The `python -m repro env` subcommands and trace/buffer state codecs."""

import json

import pytest

from repro.__main__ import main
from repro.durability.state import (
    decode_buffer,
    decode_source,
    encode_buffer,
    encode_source,
)
from repro.env import HarvestTrace, TraceSource, constant, solar_diurnal
from repro.harvest import EnergyBuffer


class TestEnvCli:
    def test_list_names_every_family(self, capsys):
        assert main(["env", "list"]) == 0
        out = capsys.readouterr().out
        for family in ("constant", "rf_burst", "solar", "kinetic"):
            assert family in out

    def test_describe_human_and_json(self, capsys):
        assert main(["env", "describe", "solar", "--seed", "5"]) == 0
        human = capsys.readouterr().out
        assert "solar" in human
        assert main(["env", "describe", "solar", "--seed", "5", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["family"] == "solar"
        assert info["samples"] > 1

    def test_describe_save_round_trips(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["env", "describe", "rf_burst", "--seed", "2",
             "--save", str(path)]
        ) == 0
        capsys.readouterr()
        saved = HarvestTrace.load(path)
        assert saved == __import__("repro.env", fromlist=["rf_burst"]).rf_burst(
            seed=2
        )
        # A saved file is itself a valid trace argument.
        assert main(["env", "describe", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == saved.n_samples

    def test_replay_reports_outcome_json(self, capsys):
        assert main(
            ["env", "replay", "svm-adult", "solar", "--seed", "1",
             "--budget", "0.2", "--max-inferences", "4", "--json"]
        ) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["trace"].startswith("solar")
        assert outcome["inferences"] >= 0
        assert "degraded" in outcome

    def test_replay_adaptive_flag(self, capsys):
        assert main(
            ["env", "replay", "svm-adult", "constant", "--watts", "1e-4",
             "--max-inferences", "2", "--adaptive", "--json"]
        ) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["policy"] == "adaptive"
        assert outcome["inferences"] == 2

    def test_unknown_family_and_workload_fail_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["env", "describe", "plutonium"])
        with pytest.raises(SystemExit):
            main(["env", "replay", "nonsense-workload", "solar"])

    def test_malformed_trace_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro.env.trace/v1", "samples": 1}\n[0.0, 1e-4]\n')
        with pytest.raises(SystemExit, match="cannot read trace .*'name'"):
            main(["env", "replay", "svm-adult", str(path)])
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["env", "describe", str(tmp_path)])

    def test_env_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["env"])


class TestEnvStateCodec:
    def test_trace_source_round_trip(self):
        source = TraceSource(solar_diurnal(seed=9))
        decoded = decode_source(encode_source(source))
        assert isinstance(decoded, TraceSource)
        assert decoded.trace == source.trace

    def test_constant_trace_source_keeps_fast_path(self):
        decoded = decode_source(encode_source(TraceSource(constant(3e-4))))
        assert decoded.watts == 3e-4

    def test_ideal_buffer_payload_has_no_new_keys(self):
        # Old images decode on new code AND new ideal images decode on
        # old code: the non-ideality knobs only appear when non-zero.
        payload = encode_buffer(
            EnergyBuffer(capacitance=100e-6, v_off=0.32, v_on=0.34)
        )
        assert "leakage_amps" not in payload
        assert "esr_ohms" not in payload

    def test_non_ideal_buffer_round_trips(self):
        buffer = EnergyBuffer(
            capacitance=100e-6, v_off=0.32, v_on=0.34,
            voltage=0.33, leakage_amps=2e-9, esr_ohms=0.5,
        )
        decoded = decode_buffer(encode_buffer(buffer))
        assert decoded.leakage_amps == 2e-9
        assert decoded.esr_ohms == 0.5
        assert decoded.voltage == buffer.voltage
        assert not decoded.is_ideal
