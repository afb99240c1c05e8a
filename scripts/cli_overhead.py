"""Split the cost of one ``seppchange`` CLI call into its start-up layers.

Each step below is one new Python process, run from outside, with the
checkout's ``src`` on ``PYTHONPATH`` and one BLAS thread, as the benchmark
runs the CLI:

    start          python -c pass
    numpy          python -c "import numpy"
    cli import     python -c "import seppchange.cli"
    W              python -m seppchange.cli <the command of workload W>
    W, os._exit    the same command through main(), then os._exit
    replicate-b, --jobs 1
                   replicate-b's command on one process instead of two workers

``W`` ends the way the checkout's CLI ends; ``W, os._exit`` flushes stdout
and stderr and leaves without any interpreter shutdown, so the difference
of the two is what the checkout's exit costs.  The workloads are the three
of ``perfbench/run.py``: a default-tuning detect and a lam-400, grid-30
detect of its setting (a) series, and its 16-replication setting (b) batch
on two workers.  The same batch with ``--jobs 1`` shows what the two workers
gain or lose against one process.

Usage, from anywhere:

    python3 scripts/cli_overhead.py --parent ../parent --change . --runs 15

Without ``--parent`` only the change checkout is measured.  Runs alternate:
within each run every step runs once on each side, and the side that goes
first alternates from run to run.  The script prints, per step and side, the
median and quartiles of the wall time and of the child's CPU time (user plus
system, its reaped workers included), and for the CLI commands the medians of
the peak RSS and of the involuntary context switches (``ru_nivcsw``) that
wait4 reports.  The switch count sums the command's process and the workers
it reaped, so it cannot tell which of them waited for a CPU.  This script
imports nothing heavy itself, so that peak is the command's own.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The series of perfbench's detect workloads: setting (a), rho 0.35, root
# seed 20260810, replication 0.
SIMULATE = ["simulate", "--setting", "a", "--rho", "0.35", "--seed", "20260810", "--replication", "0"]
EXIT_NOW = (
    "import os, sys\n"
    "from seppchange.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush(); sys.stderr.flush()\n"
    "os._exit(code)\n"
)


REPLICATE_B = ["replicate", "--setting", "b", "--T", "90", "--seed", "1", "--reps", "16"]
JOBS_1 = "replicate-b, --jobs 1"


def workloads(inputs: Path, out: Path) -> dict[str, list[str]]:
    detect = ["detect", str(inputs / "counts.csv"), "--truth", str(inputs / "truth.json"),
              "-o", str(out / "report.json")]
    return {
        "detect-default": detect,
        "detect-lam400": detect + ["--lambda", "400.0", "--grid", "30"],
        "replicate-b": REPLICATE_B + ["--jobs", "2", "-o", str(out / "batch")],
    }


def steps(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    py = [sys.executable]
    found = [
        ("start", py + ["-c", "pass"]),
        ("numpy", py + ["-c", "import numpy"]),
        ("cli import", py + ["-c", "import seppchange.cli"]),
    ]
    for name, argv in workloads(inputs, out).items():
        found.append((name, py + ["-m", "seppchange.cli", *argv]))
        found.append((f"{name}, os._exit", py + ["-c", EXIT_NOW, *argv]))
    found.append((JOBS_1, py + ["-m", "seppchange.cli", *REPLICATE_B, "--jobs", "1",
                                "-o", str(out / "batch")]))
    return found


def env_for(checkout: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(cmd: list[str], env: dict[str, str], cwd: Path) -> tuple[float, float, float, int]:
    """Wall seconds, child CPU seconds, peak RSS (MiB) and involuntary
    context switches of one command."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    err = proc.stderr.read()
    proc.stderr.close()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {code}: {err.decode(errors='replace')}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, usage.ru_nivcsw


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt_ms(values: list[float]) -> str:
    q1, med, q3 = (1000.0 * v for v in quartiles(values))
    return f"{med:7.1f} [{q1:6.1f}, {q3:6.1f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, default=None, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    checkouts = {"change": args.change.resolve()}
    if args.parent is not None:
        checkouts = {"parent": args.parent.resolve(), **checkouts}
    for side, path in checkouts.items():
        if not (path / "src" / "seppchange" / "cli.py").is_file():
            parser.error(f"--{side} {path} has no src/seppchange/cli.py")
    sides = list(checkouts)

    work = Path(tempfile.mkdtemp(prefix="cli_overhead_"))
    try:
        inputs = work / "inputs"
        subprocess.run([sys.executable, "-m", "seppchange.cli", *SIMULATE, "-o", str(inputs)],
                       env=env_for(checkouts["change"]), cwd=work, check=True, stdout=subprocess.DEVNULL)
        (work / "out").mkdir()
        plan = steps(inputs, work / "out")
        samples = {(name, side): [] for name, _ in plan for side in sides}
        for run in range(args.runs):
            order = sides if run % 2 == 0 else sides[::-1]
            for name, cmd in plan:
                for side in order:
                    samples[name, side].append(measure(cmd, env_for(checkouts[side]), work))
            print(f"run {run + 1} of {args.runs} done", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.runs} alternating runs, {os.cpu_count()} CPUs, Python {sys.version.split()[0]}; "
          "medians [quartiles] in ms")
    print(f"{'step':<24} {'side':<7} {'wall':>24} {'child CPU':>24} {'peak RSS':>10} {'invol. cs':>9}")
    commands = {*workloads(work, work), JOBS_1}
    for name, _ in plan:
        for side in sides:
            runs = samples[name, side]
            rss = nivcsw = ""
            if name in commands:
                rss = f"{statistics.median(r[2] for r in runs):6.1f} MiB"
                nivcsw = f"{statistics.median(r[3] for r in runs):g}"
            print(f"{name:<24} {side:<7} {fmt_ms([r[0] for r in runs]):>24} "
                  f"{fmt_ms([r[1] for r in runs]):>24} {rss:>10} {nivcsw:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
