"""The benchmark's known answers hold: ``bench/run.py --smoke`` runs two
ops of every workload, traced and untraced, and judges each against an
answer computed without genmat, so a wrong verdict fails here too."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_is_correct():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    # The PROBLEM lines that say why a run is not correct go to stderr.
    assert result["correct"] is True, run.stderr[-2000:]
    assert result["attempted"] > 0 and result["failed"] == 0
