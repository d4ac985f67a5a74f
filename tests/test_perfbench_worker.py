"""Smoke test of the benchmark worker protocol.

perfbench/worker.py reads one job on stdin and writes one JSON line per
request and a last line with the pass totals.  A change that makes the
worker exit non-zero ends a benchmark run with no result; this runs one
small job through it, untraced and traced, the way perfbench/run.py
does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [False, True])
def test_worker_runs_one_small_job(trace):
    reference = json.loads((ROOT / "perfbench" / "data" / "reference.json")
                           .read_text(encoding="utf-8"))
    requests = [
        {"argv": ["enumerate", "layers", "--type", "A2"], "stdin": None},
        {"argv": ["check", "rank", "--type", "A2"], "stdin": None},
        {"argv": ["subspace", "-"], "stdin": reference["pool"][0]["spec"]},
    ]
    job = {"src": str(ROOT / "src"), "trace": trace, "setup_only": False,
           "period": 0.1, "setup_samples": 2, "requests": requests}
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "perfbench/worker.py"],
                          input=json.dumps(job), capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == len(requests) + 1
    for result in lines[:-1]:
        assert result["rc"] == 0, result["err"]
    assert "maxrss_kb" in lines[-1]
