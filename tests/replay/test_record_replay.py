"""Boundary-stream record/replay: determinism contract + substrate.

The tentpole invariants: the same seeded workload records the same
artifact byte-for-byte; replaying an artifact re-executes the *live*
handler plane (hypercall dispatch, device models, supervisor taxonomy)
with **no guest interpreter in the loop** and reproduces the recorded
handler responses, taxonomy verdicts, and trace attribution exactly.
"""

import json
from pathlib import Path

import pytest

from repro.replay import BoundaryStream, record, replay
from repro.replay.workloads import REPLAY_WORKLOADS

CORPUS = Path(__file__).resolve().parents[2] / "corpus" / "replay"
WORKLOADS = sorted(REPLAY_WORKLOADS)


class TestRecordDeterminism:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_record_twice_is_byte_identical(self, workload):
        first = record(workload, seed=21, requests=3)
        second = record(workload, seed=21, requests=3)
        assert first.to_json() == second.to_json()
        assert first.signature() == second.signature()

    def test_different_seeds_record_different_streams(self):
        assert (record("echo", seed=1, requests=2).signature()
                != record("echo", seed=2, requests=2).signature())

    def test_artifact_roundtrips_through_disk(self, tmp_path):
        stream = record("serverless", seed=5, requests=2)
        path = tmp_path / "stream.json"
        stream.save(str(path), indent=2)
        loaded = BoundaryStream.load(str(path))
        assert loaded.signature() == stream.signature()
        assert loaded.workload == "serverless"
        assert loaded.version == stream.version


class TestReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_replay_is_byte_identical(self, workload):
        stream = record(workload, seed=9, requests=3)
        report = replay(stream)
        assert report.ok, report.divergences
        assert report.recorded_signature == report.replayed_signature
        assert report.leftover == {}

    def test_replay_instantiates_no_guest_interpreter(self, monkeypatch):
        stream = record("serverless", seed=4, requests=2)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("guest interpreter constructed during replay")

        monkeypatch.setattr("repro.hw.vmx.Interpreter", forbidden)
        report = replay(stream)
        assert report.ok, report.divergences

    def test_replay_reproduces_trace_attribution(self):
        stream = record("http_snapshot", seed=6, requests=2)
        report = replay(stream)
        assert report.ok, report.divergences
        assert (report.replayed.meta["attribution_by_name"]
                == stream.meta["attribution_by_name"])
        assert (report.replayed.meta["attribution_by_category"]
                == stream.meta["attribution_by_category"])
        assert stream.meta["attribution_by_name"]  # non-trivial

    def test_replay_reproduces_supervision_verdicts(self):
        stream = record("faulty", seed=3, requests=4)
        crashes = [row for row in stream.meta["supervision"]
                   if row[4] == "crash"]
        assert crashes, "faulty workload should crash at least once"
        report = replay(stream)
        assert report.ok, report.divergences
        assert report.replayed.meta["supervision"] == stream.meta["supervision"]

    def test_replay_reproduces_handler_responses(self):
        stream = record("echo", seed=11, requests=2)
        report = replay(stream)
        assert report.ok, report.divergences
        assert (report.replayed.meta["stats"]["outcomes"]
                == stream.meta["stats"]["outcomes"])

    def test_hyperv_backend_roundtrip(self):
        stream = record("echo", seed=2, requests=2, backend="hyperv")
        report = replay(stream)
        assert report.ok, report.divergences

    def test_tampered_handler_response_diverges(self):
        stream = record("serverless", seed=8, requests=2)
        payload = json.loads(stream.to_json())
        tampered_one = False
        for event in payload["events"]:
            if event["kind"] != "hosted_run" or tampered_one:
                continue
            for op in event["ops"]:
                if op[0] == "hypercall" and op[3] == "ok":
                    op[4] = {"__bytes__": "dGFtcGVyZWQ="}
                    tampered_one = True
                    break
        assert tampered_one
        report = replay(BoundaryStream.from_json(json.dumps(payload)))
        assert not report.ok
        assert any("diverged" in d for d in report.divergences)

    def test_malformed_params_rejected(self):
        stream = record("echo", seed=1, requests=1)
        stream.params["backend"] = "xen"
        with pytest.raises(ValueError, match="malformed params"):
            replay(stream)

    def test_unknown_workload_rejected(self):
        stream = record("echo", seed=1, requests=1)
        stream.workload = "nonesuch"
        with pytest.raises(ValueError, match="unknown workload"):
            replay(stream)


class TestCorpus:
    """The committed mini-corpus replays byte-for-byte (the CI gate)."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_corpus_entry_replays(self, name):
        path = CORPUS / f"{name}.json"
        assert path.exists(), f"corpus entry {path} missing"
        stream = BoundaryStream.load(str(path))
        report = replay(stream)
        assert report.ok, report.divergences

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_corpus_entry_rerecords(self, name):
        """A live recording with the file's params emits what the
        committed file holds: replay alone would not notice a change in
        what the live sites send the recorder."""
        committed = BoundaryStream.load(str(CORPUS / f"{name}.json"))
        params = committed.params
        live = record(committed.workload, seed=params["seed"],
                      requests=params["requests"], backend=params["backend"])
        assert live.signature() == committed.signature()

    def test_corpus_covers_every_workload(self):
        assert {p.stem for p in CORPUS.glob("*.json")} == set(REPLAY_WORKLOADS)


class TestArtifactValidation:
    def test_version_gate(self):
        with pytest.raises(ValueError, match="unsupported stream version"):
            BoundaryStream.from_json(json.dumps(
                {"version": 999, "workload": "echo", "params": {},
                 "events": [], "meta": {}}))

    def test_envelope_gate(self):
        with pytest.raises(ValueError, match="not JSON"):
            BoundaryStream.from_json("{nope")
        with pytest.raises(ValueError, match="events must be a list"):
            BoundaryStream.from_json(json.dumps(
                {"version": 1, "workload": "echo", "params": {},
                 "events": {}, "meta": {}}))
        with pytest.raises(ValueError, match="string 'kind'"):
            BoundaryStream.from_json(json.dumps(
                {"version": 1, "workload": "echo", "params": {},
                 "events": [{"no": "kind"}], "meta": {}}))
