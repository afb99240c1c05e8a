"""Smoke runs of the benchmark harness with tracing on.

A traced run calls the library in process and must still end in exactly one
strict-JSON result line: a library that prints, warns or hands the harness a
value that serializes as NaN or Infinity breaks that line.  The line must
also carry every per-layer metric that ``BENCHMARK.json`` declares: the
harness leaves out a metric whose probe finds no counter or argument to read.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize("workload", ["detect-default", "detect-lam400", "replicate-b"])
def test_traced_run_ends_in_one_strict_json_line(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    result = json.loads(lines[0], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    missing = [name for name in DECLARED if name not in result["metrics"]]
    assert not missing, f"declared metrics missing: {missing}"
    assert proc.stderr == ""
