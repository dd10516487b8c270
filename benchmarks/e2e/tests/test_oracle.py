"""A wrong result digest fails every operation and the exit status."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.oracle import SCHEMA
from benchmarks.e2e.workloads import ROOT, SMOKE

RUN = Path(__file__).resolve().parents[1] / "run.py"


def _run(args: list[str]) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_tampered_digest_fails_the_run(tmp_path):
    seed = 5
    key = SMOKE.studies[0].config(seed, 0).key()
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({
        "schema": SCHEMA,
        "corpora": {key: {"inputs": {}, "aggregate_sha256": "0" * 64}},
        "serve": {},
    }))
    status, result = _run(["--workload", "study-full", "--smoke",
                           "--seed", str(seed), "--seconds", "0.2",
                           "--expected", str(expected)])
    assert status != 0
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]


def test_checked_run_passes(tmp_path):
    status, result = _run(["--workload", "study-incremental", "--smoke",
                           "--seed", "5", "--seconds", "0.2"])
    assert status == 0
    assert result["correct"] is True and result["failed"] == 0
