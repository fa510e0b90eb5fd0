"""CLI surface: ``python -m repro replay record|run|fuzz``."""

import json

import pytest

from repro.cli import REPLAY_WORKLOAD_NAMES, main
from repro.replay import BoundaryStream
from repro.replay.workloads import REPLAY_WORKLOADS


def test_cli_workload_names_match_registry():
    # The CLI choices are a hand-kept literal; keep it honest.
    assert set(REPLAY_WORKLOAD_NAMES) == set(REPLAY_WORKLOADS)


class TestRecordVerb:
    def test_record_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "echo.json"
        assert main(["replay", "record", "echo", "--seed", "7",
                     "--requests", "2", "--out", str(out)]) == 0
        stream = BoundaryStream.load(str(out))
        assert stream.workload == "echo"
        assert stream.params == {"seed": 7, "requests": 2, "backend": "kvm"}
        text = capsys.readouterr().out
        assert stream.signature() in text
        assert str(out) in text


class TestRunVerb:
    def test_run_reports_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "serverless.json"
        main(["replay", "record", "serverless", "--seed", "3",
              "--requests", "2", "--out", str(out)])
        assert main(["replay", "run", str(out)]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_hyperv_round_trip(self, tmp_path, capsys):
        # The replay device on the Hyper-V platform row, through the CLI.
        out = tmp_path / "hv-echo.json"
        assert main(["replay", "record", "echo", "--backend", "hyperv",
                     "--out", str(out)]) == 0
        assert BoundaryStream.load(str(out)).params["backend"] == "hyperv"
        assert main(["replay", "run", str(out)]) == 0
        text = capsys.readouterr().out
        assert "backend=hyperv" in text
        assert "byte-identical" in text

    def test_run_fails_on_tampered_artifact(self, tmp_path, capsys):
        out = tmp_path / "serverless.json"
        main(["replay", "record", "serverless", "--seed", "3",
              "--requests", "2", "--out", str(out)])
        payload = json.loads(out.read_text())
        tampered = False
        for event in payload["events"]:
            if event["kind"] == "hosted_run":
                for op in event["ops"]:
                    if op[0] == "hypercall" and op[3] == "ok":
                        op[4] = {"__bytes__": "dGFtcGVyZWQ="}
                        tampered = True
                        break
            if tampered:
                break
        assert tampered
        out.write_text(json.dumps(payload))
        assert main(["replay", "run", str(out)]) == 1
        assert "diverg" in capsys.readouterr().out

    def test_run_rejects_malformed_artifact(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            main(["replay", "run", str(bad)])


class TestFuzzVerb:
    def test_fuzz_clean_run(self, tmp_path, capsys):
        out = tmp_path / "echo.json"
        main(["replay", "record", "echo", "--seed", "5",
              "--requests", "2", "--out", str(out)])
        assert main(["replay", "fuzz", str(out), "--cases", "8",
                     "--seed", "42"]) == 0
        text = capsys.readouterr().out
        assert "seed 42" in text
        assert "hostile-guest invariant held" in text

    def test_fuzz_seed_from_environment(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "echo.json"
        main(["replay", "record", "echo", "--seed", "5",
              "--requests", "2", "--out", str(out)])
        monkeypatch.setenv("REPRO_IFUZZ_SEED", "77")
        assert main(["replay", "fuzz", str(out), "--cases", "4"]) == 0
        assert "seed 77" in capsys.readouterr().out

    def test_fuzz_single_case_replay(self, tmp_path, capsys):
        out = tmp_path / "echo.json"
        main(["replay", "record", "echo", "--seed", "5",
              "--requests", "2", "--out", str(out)])
        assert main(["replay", "fuzz", str(out), "--cases", "8",
                     "--seed", "42", "--case", "3"]) == 0
        assert "1 case" in capsys.readouterr().out
