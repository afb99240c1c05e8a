"""Benchmark of seppchange: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout (the package is read from ``src/``):

    python3 perfbench/run.py --workload detect-default --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run measures the ``seppchange`` CLI from outside and
reports the end-to-end metrics; with ``--trace 1`` it also calls the layers
in-process under spans and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every output is checked by
``checks.py``.  See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# One BLAS thread per process: with replicate's two workers the load stays
# within two cores.  Set before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import math
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# The detect workloads run one fixed replication (setting (a), rho = 0.35,
# root seed 20260810, replication 0) whose units the benchmark seed relabels.
SERIES_SEED = 20260810
SETUPS = 5
RUN_LIMIT_S = 170.0
# Host-speed scaling (README, "Host-speed scaling"): every CLI call is paused
# this often and `host_probe` runs in the pause.
PROBE_INTERVAL_S = 0.1
# The host probe's time at the reference speed; scaled times are seconds at it.
REFERENCE_PROBE_S = 0.0045


@dataclass(frozen=True)
class Workload:
    scenario: dict  # ScenarioSpec fields other than the seed
    lam: float | None  # None: the CLI's default tuning, lam = 90 ln(TM)
    grid: int
    reps: int = 0  # replications per `replicate` batch; 0 for a detect workload
    jobs: int = 1
    detects: int = 1  # detects per round

    def scenario_args(self) -> list[str]:
        args = ["--setting", self.scenario["kind"]]
        for key in ("rho", "T", "M"):
            if self.scenario.get(key) is not None:
                args += [f"--{key}", str(self.scenario[key])]
        return args

    def detect_args(self) -> list[str]:
        args = [] if self.lam is None else ["--lambda", repr(self.lam)]
        return args + ([] if self.grid == 1 else ["--grid", str(self.grid)])


# Why each workload exists is recorded in BENCHMARK.json and README.md.
SETTING_A = {"kind": "a", "rho": 0.35}
WORKLOADS = {
    "detect-default": Workload(SETTING_A, lam=None, grid=1),
    "detect-lam400": Workload(SETTING_A, lam=400.0, grid=30),
    "replicate-b": Workload({"kind": "b", "T": 90}, lam=None, grid=1, reps=16, jobs=2, detects=3),
}


class Fatal(Exception):
    """The benchmark cannot run here (no program, bad arguments, failed set-up)."""


_PROBE_RNG = np.random.default_rng(0)
_PROBE_G = np.minimum(_PROBE_RNG.poisson(1.6, (30, 300)), 6).astype(np.float64)
_PROBE_X = _PROBE_RNG.poisson(1.6, (30, 300)).astype(np.float64)


def host_probe() -> float:
    """Time a fixed piece of work of the program's kind: 3 to 6 ms here.

    Forty proximal-gradient steps on a 30 x 300 design (small numpy calls),
    then a pure-Python loop.  It shares no code with the program, so a change
    to the program cannot move it; only the host's speed does.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        a = np.zeros((30, 30))
        for _ in range(20):
            z = 0.5 + a @ _PROBE_G
            ez = np.exp(np.minimum(z, 30.0))
            a = a - 1e-3 / 300 * ((ez - _PROBE_X) @ _PROBE_G.T)
            a = np.sign(a) * np.maximum(np.abs(a) - 5e-5, 0.0)
    acc: dict[int, float] = {}
    for i in range(12000):
        acc[i % 97] = acc.get(i % 97, 0.0) + 0.5 * i
    return time.perf_counter() - t0


@dataclass
class Call:
    wall_s: float  # time the command ran, its pauses left out
    elapsed_s: float  # from start to exit, pauses included
    rss_mb: float
    code: int
    host_probes: list[float]  # host_probe times taken just before and during the call

    @property
    def host_probe_s(self) -> float:
        return statistics.fmean(self.host_probes)

    def scale(self, seconds: float) -> float:
        """`seconds` of this call at the reference host speed."""
        return seconds * REFERENCE_PROBE_S / self.host_probe_s

    @property
    def scaled_s(self) -> float:
        return self.scale(self.wall_s)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass  # already reaped


def run_cli(args: list, log_path: Path, deadline: float, cpus: list[int]) -> Call:
    """Run one `seppchange` command on `cpus`; time it, sample the host's speed.

    Every PROBE_INTERVAL_S the command's process group is stopped, `host_probe`
    runs once on each of `cpus`, and the group continues.  The command's wall
    time leaves the pauses out.  Its peak RSS comes from wait4, which covers
    the child and the workers it reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    home = os.sched_getaffinity(0)
    probes: list[float] = []

    def sample() -> None:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            probes.append(host_probe())
        os.sched_setaffinity(0, cpus)

    with open(log_path, "wb") as log:
        try:
            sample()  # also pins this process, and so the child, to `cpus`
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "seppchange.cli", *map(str, args)],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
            timer = threading.Timer(
                max(deadline - time.perf_counter(), 1.0), _signal_group, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ran, resumed = 0.0, t0
                    while True:
                        exited, _, _ = select.select([pidfd], [], [], PROBE_INTERVAL_S)
                        if not exited:
                            _signal_group(proc.pid, signal.SIGSTOP)
                        ran += time.perf_counter() - resumed
                        # Reports the stop, or the exit if the command ended first.
                        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(status):
                            break
                        sample()
                        resumed = time.perf_counter()
                        _signal_group(proc.pid, signal.SIGCONT)
                finally:
                    os.close(pidfd)
                elapsed = time.perf_counter() - t0
            except BaseException:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
        finally:
            os.sched_setaffinity(0, home)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(ran, elapsed, usage.ru_maxrss / 1024.0, proc.returncode, probes)


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Run:
    """One benchmark run: set-up, measured rounds, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool) -> None:
        self.name, self.wl, self.seed, self.seconds, self.trace = name, WORKLOADS[name], seed, seconds, trace
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.op_errors: list[str] = []  # failed operations, counted in `failed`
        self.check_errors: list[str] = []  # wrong outputs of operations that ran
        self.detects: list[Call] = []
        self.batches: list[tuple[Call, list[dict]]] = []
        self.reports: list[dict] = []
        self.efficiency: list[float] = []
        self.host_probe_times: list[float] = []
        self.probes: list[tuple[dict, list[int]]] = []  # (per-layer metrics, change points)
        self.tracer = None
        if trace:
            import layers

            self.layers = layers
            self.tracer = layers.Tracer()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def cli(self, args: list, tag: str, jobs: int = 1) -> Call:
        cpus = sorted(os.sched_getaffinity(0))[:jobs]
        call = run_cli(args, self.dir / f"{tag}.log", self.deadline, cpus)
        self.host_probe_times += call.host_probes
        return call

    # -- inputs ------------------------------------------------------------

    def set_up(self) -> list[float]:
        """Make the inputs SETUPS times with `seppchange simulate`; time each."""
        if self.wl.reps:
            # The batch draws its own series from the seed; the inputs are the
            # one replication that each round also runs through detect.
            self.sim_seed, self.replication = self.seed, self.seed % self.wl.reps
        else:
            self.sim_seed, self.replication = SERIES_SEED, 0
        times = []
        for i in range(SETUPS):
            d = self.dir / f"inputs{i}"
            call = self.cli(
                ["simulate", *self.wl.scenario_args(), "--seed", self.sim_seed,
                 "--replication", self.replication, "-o", d],
                f"simulate{i}",
            )
            if call.code != 0:
                raise Fatal(f"simulate exited with {call.code}; see {d}.log")
            t0 = time.perf_counter()
            if not self.wl.reps:
                self._relabel(d)
            times.append(call.scale(call.wall_s + time.perf_counter() - t0))
        self.inputs = d
        self.counts = checks.load_counts(d / "counts.csv")
        truth = _load_json(d / "truth.json")
        self.v, self.clip = float(truth["model"]["v"]), float(truth["model"]["clip"])
        self.truth_cps = [int(c) for c in truth["change_points"]]
        M, T = self.counts.shape
        self.lam = self.wl.lam if self.wl.lam is not None else 90.0 * math.log(T * M)
        self.gamma = math.log(M) ** 2 / 2.0
        return times

    def _relabel(self, d: Path) -> None:
        """Permute the units of the series by the seed.

        Every seed poses the same problem up to the order of the units, so the
        work is the same; the program still reads a different file per seed.
        """
        counts = checks.load_counts(d / "counts.csv")
        perm = np.random.default_rng(self.seed).permutation(counts.shape[0])
        checks.write_counts(d / "counts.csv", counts[perm])
        truth = _load_json(d / "truth.json")
        for seg in truth["segments"]:
            seg["matrix"] = np.asarray(seg["matrix"])[np.ix_(perm, perm)].tolist()
        truth["relabelled_by"] = perm.tolist()
        with open(d / "truth.json", "w", encoding="utf-8") as fh:
            json.dump(truth, fh, indent=2, sort_keys=True)

    # -- measured operations ----------------------------------------------

    def detect_once(self) -> None:
        i = len(self.detects)
        path = self.dir / f"report{i}.json"
        self.attempted += 1
        with self.span("cli.detect"):
            call = self.cli(
                ["detect", self.inputs / "counts.csv", "--truth", self.inputs / "truth.json",
                 *self.wl.detect_args(), "-o", path],
                f"detect{i}",
            )
        self.detects.append(call)
        if call.code != 0:
            self.failed += 1
            self.op_errors.append(f"detect {i} exited with {call.code}")
            return
        report = _load_json(path)
        self.reports.append(report)
        if not self.wl.reps:
            self.efficiency.append(float(report["timing"]["wall_s"]) / call.elapsed_s)

    def replicate_once(self) -> None:
        i = len(self.batches)
        d = self.dir / f"batch{i}"
        self.attempted += self.wl.reps
        with self.span("cli.replicate"):
            call = self.cli(
                ["replicate", *self.wl.scenario_args(), "--seed", self.seed, *self.wl.detect_args(),
                 "--reps", self.wl.reps, "--jobs", self.wl.jobs, "-o", d],
                f"replicate{i}",
                jobs=self.wl.jobs,
            )
        rows = _read_rows(d / "replications.csv")
        self.batches.append((call, rows))
        self.failed += self.wl.reps - len(rows)
        if call.code != 0:
            self.op_errors.append(f"replicate batch {i} exited with {call.code}")
        if rows:
            busy = math.fsum(float(r["wall_s"]) for r in rows)
            self.efficiency.append(busy / (self.wl.jobs * call.elapsed_s))

    def round(self) -> None:
        if self.wl.reps:
            self.replicate_once()
        for _ in range(self.wl.detects):
            self.detect_once()

    def measure(self) -> None:
        """Whole rounds while another one fits in the run length (at least one)."""
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            if self.trace:
                with self.span("round"):
                    self.round()
                    if self.reports:
                        self.probes.append(self.layers.probe(self.tracer, self._probe_context()))
            else:
                self.round()
            now = time.perf_counter()
            if now - t0 + (now - r0) > self.seconds or now + (now - r0) > self.deadline - 20.0:
                break

    def _probe_context(self) -> dict:
        return {
            "counts_path": self.inputs / "counts.csv",
            "report": self.reports[-1],
            "scenario": self.wl.scenario,
            "sim_seed": self.sim_seed,
            "replication": self.replication,
            "v": self.v,
            "clip": self.clip,
            "truth_cps": self.truth_cps,
            "scratch_dir": self.dir,
        }

    # -- checks ------------------------------------------------------------

    def check(self) -> None:
        try:
            self._check()
        except checks.CheckFailed as exc:
            self.check_errors.append(f"check failed: {exc}")

    def _check(self) -> None:
        counts, v, clip, lam, gamma = self.counts, self.v, self.clip, self.lam, self.gamma
        for report in self.reports:
            opts = report["options"]
            if not (math.isclose(opts["lam"], lam, rel_tol=1e-12) and math.isclose(opts["gamma"], gamma, rel_tol=1e-12)):
                raise checks.CheckFailed(f"report ran lam={opts['lam']}, gamma={opts['gamma']}")
            checks.check_report(report, counts, v, clip, lam, gamma)
        if self.wl.lam is None:
            screen = checks.zero_screen(counts, v, clip, lam, self.wl.grid, 2)
            for report in self.reports:
                checks.check_zero_consistency(report, screen, gamma)
        else:
            for report in self.reports:
                checks.check_kkt(report, counts, v, clip, lam)
            self._check_against_reference_partitions()
        if self.wl.reps:
            T = self.counts.shape[1]
            for _, rows in self.batches:
                checks.check_replication_rows(rows, self.truth_cps, T, self.wl.reps)
                for row in rows:
                    if int(row["rep"]) == self.replication:
                        for report in self.reports:
                            checks.check_row_reproduced(row, report)
        for _, found in self.probes:
            for report in self.reports:
                if found != report["change_points"]:
                    raise checks.CheckFailed(
                        f"in-process detect found {found}, the CLI {report['change_points']}"
                    )

    def _check_against_reference_partitions(self) -> None:
        """The objective is no worse than the one-block and the true partition, fitted cold."""
        import seppchange

        series = seppchange.EventSeries(self.counts)
        config = seppchange.ModelConfig(v=self.v, clip=self.clip)
        T = series.T
        for what, cps in (("one-block partition", []), ("true partition", self.truth_cps)):
            blocks = list(zip([1] + cps, [c - 1 for c in cps] + [T]))
            fits = []
            for s, e in blocks:
                window = seppchange.Interval(max(s - 1, 1), e)
                fit = seppchange.fit_interval(series, window, self.lam, config)
                fits.append((window.start, window.end, np.asarray(fit.matrix)))
            ref = checks.partition_objective(self.counts, self.v, self.clip, self.lam, self.gamma, fits)
            for report in self.reports:
                checks.check_not_worse(report, ref, what)

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, setup_times: list[float]) -> dict:
        ok = [c for c in self.detects if c.code == 0]
        if not ok or (self.wl.reps and not any(rows for _, rows in self.batches)):
            return {}  # nothing ran to its end: the failures say why
        if self.wl.reps:
            done = sum(len(rows) for _, rows in self.batches)
            rps = done / math.fsum(c.scaled_s for c, _ in self.batches)
            rss = max(c.rss_mb for c, _ in self.batches)
        else:
            rps = len(ok) / math.fsum(c.scaled_s for c in ok)
            rss = max(c.rss_mb for c in ok)
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            # The mean, not the median: with 3 to 12 identical detects per run
            # it spreads less between runs (see README).
            "detect_s": (statistics.mean(c.scaled_s for c in ok), "s"),
            "replications_per_s": (rps, "1/s"),
            "peak_rss_mb": (rss, "MiB"),
        }

    def per_layer(self) -> dict:
        out = {}
        for key in dict.fromkeys(k for metrics, _ in self.probes for k in metrics):
            values = [metrics[key] for metrics, _ in self.probes if key in metrics]
            out[key] = (statistics.median(v for v, _ in values), values[0][1])
        if self.efficiency:
            out["cli.pool_efficiency"] = (statistics.median(self.efficiency), "ratio")
        ok = [c for c in self.detects if c.code == 0]
        if ok:
            out["cli.detect_wall_s"] = (statistics.mean(c.wall_s for c in ok), "s")
        out["host.probe_ms"] = (1e3 * statistics.median(self.host_probe_times), "ms")
        traced = math.fsum(self.tracer.durations("round"))
        per_span = self.layers.span_cost_s()
        out["trace.overhead_pct"] = (100.0 * per_span * len(self.tracer.spans) / traced, "%")
        self.tracer.write(self.dir / "spans.json")
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "seppchange" / "cli.py").is_file():
        raise Fatal(f"no seppchange package under {SRC}; run from the root of a checkout")

    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    setup_times = run.set_up()
    run.measure()
    run.check()
    metrics = run.per_layer() if run.trace else run.end_to_end(setup_times)
    for msg in run.op_errors + run.check_errors:
        print(f"perfbench: {msg}", file=sys.stderr)
    result = {
        "correct": not run.check_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
