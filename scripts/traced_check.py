"""Check that a checkout's traced benchmark runs each end in one result line.

For every workload of the checkout's ``BENCHMARK.json`` the script runs

    python3 perfbench/run.py --workload W --seed S --trace 1

from the root of the checkout, at the benchmark's default run length.  A run
passes when it exits 0, prints exactly one line to stdout, and that line
parses as strict JSON (NaN and Infinity are rejected) with ``correct`` true,
``failed`` 0 and every ``per_layer`` metric that ``BENCHMARK.json`` declares,
and when it writes nothing to stderr.  The harness leaves out a metric whose
probe finds no counter or argument to read, so a program change that drops
one shows only here.  The one-second runs
of ``tests/test_perfbench_smoke.py`` check the same line, but a full-length
run executes many more rounds, so output that only some rounds produce shows
here and not there.

Usage, from anywhere:

    python3 scripts/traced_check.py --seed 1 .

It prints one line per workload, with the reasons a run failed and the tail
of its output, and exits with 1 if any run failed and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite constant {name}")


def problems(code: int, stdout: str, stderr: str, declared: list[str]) -> list[str]:
    """Every way one traced run's output falls short of a result line.

    ``declared`` names the metrics the result line must carry.
    """
    found = []
    if code != 0:
        found.append(f"exit code {code}")
    lines = stdout.splitlines()
    if len(lines) != 1:
        found.append(f"{len(lines)} stdout lines, not 1")
    if lines:
        try:
            result = json.loads(lines[-1], parse_constant=_reject_constant)
        except ValueError as exc:
            found.append(f"last stdout line is not strict JSON: {exc}")
        else:
            if not isinstance(result, dict):
                found.append("last stdout line is not a JSON object")
            else:
                if result.get("correct") is not True:
                    found.append(f"correct is {result.get('correct')!r}")
                if result.get("failed") != 0:
                    found.append(f"failed is {result.get('failed')!r}")
                missing = [name for name in declared if name not in (result.get("metrics") or {})]
                if missing:
                    found.append(f"missing declared metrics: {', '.join(missing)}")
    if stderr:
        found.append(f"{len(stderr.splitlines())} stderr lines")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    if not (root / "perfbench" / "run.py").is_file():
        parser.error(f"{root} has no perfbench/run.py")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    declared = [m["name"] for m in bench["per_layer"]]

    failed = 0
    for workload in workloads:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--trace", "1"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        found = problems(proc.returncode, proc.stdout, proc.stderr, declared)
        print(f"{workload}: {'FAIL' if found else 'ok'} ({elapsed:.0f} s, seed {args.seed})", flush=True)
        if found:
            failed += 1
            for reason in found:
                print(f"  {reason}")
            for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                for line in text.splitlines()[-5:]:
                    print(f"  {name}: {line[:200]}")
    print(f"{len(workloads) - failed} of {len(workloads)} traced runs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
