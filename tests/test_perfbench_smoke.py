"""The benchmark harness runs each workload, passes its checks and matches
the reference output digest, so neither the harness nor the digests rot."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fleet-csv", "identify-forest", "virtual-collect"])
def test_workload_correct_and_digest_matches(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed1-trace1.json").read_text())
    assert report["digest_matches_reference"] is True
