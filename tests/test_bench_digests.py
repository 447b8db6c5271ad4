"""The benchmark's determinism gate, run as a test.

``perfbench/run.py`` checks every pass of a workload against the digests
recorded in ``perfbench/digests.json``: the executed traces, findings,
dismissals and minimized traces must come out byte-identical.  One short
untraced run per workload runs each step once, the minimize steps included,
so a change that moves any recorded output fails here, not only when the
benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = sorted(json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_benchmark_run_reproduces_the_recorded_digests(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
    assert result["attempted"] > 0
