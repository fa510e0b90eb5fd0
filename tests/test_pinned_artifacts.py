"""Pinned CLI artifacts: the bytes of seeded runs must not drift.

CI compares two runs of one commit, which catches nondeterminism but
not a change between commits.  These digests pin the stdout of the
seeded trace, telemetry, metrics and chaos commands, so a refactor that
moves a single event, counter or fault draw fails here.  Every command
passes its seed explicitly, so ``REPRO_SEED`` cannot change them.

When a change alters one of these outputs on purpose, regenerate the
digest with ``python -m repro <command> | sha256sum`` and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

#: ``repro`` argv -> sha256 of its stdout (Python 3.11).
PINNED = {
    "trace echo --seed 1234 --format json":
        "4022d1409d7f06d6c52b4004fa4c407fc1a0b211d4dee2288c5c06101ba77d9f",
    "trace echo --seed 1234 --format json --telemetry":
        "d1e8a836e75390c2174aac96904fc8bb5d6e52bacd728d28165b42faed1a0f4d",
    "trace http --seed 1234 --format json":
        "a06f8d7bf60642d9b1e942f7f3ee0491581896622dabe10a74240afb47b630cb",
    "trace http --seed 1234 --format json --telemetry":
        "16693fef5e6b47422664c16cdf4bf8ee76226fa748da9120eed3b25cff5cf998",
    "trace serverless --seed 1234 --format json":
        "74203b91d223faddac3904f76f093f74baaec498488bb00d5818513814b412e4",
    "trace serverless --seed 1234 --format json --telemetry":
        "ea6992e8b28661fc3844f2da9dc86f5f5dd86e2361958286bea01321ec89dc64",
    "telemetry serverless --seed 7 --requests 8 --format json":
        "163d04b088a5588ced95f1fd701e548c27d7c6c5c90876f5c8a82433c3517ca7",
    "telemetry --cores 4 --seed 7 --requests 12 --format json":
        "82d87960083d728a93182c574fbb3c14d4dc413f7ef6b802e9fd77cd6ef8bec3",
    "metrics --seed 7 --requests 60 --json":
        "6e1cbdf7fd02df32c29e06deb0f4847f376c8d3fcbfad50bca13e4b7b1c395c7",
    "metrics --seed 7 --requests 60 --json --cores 4":
        "56d1b5afe5262da1f4526de7bc74674ebfc9234c6f02a4673167336376d3b672",
    "chaos --seed 1234 --cases 50 --json":
        "2387d0c8948ccaa55276965b0e31f57a50a694f160b8ac939c657d4457051f01",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_output_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]
