"""Command-line pipeline: simulate, detect, evaluate, replicate.

File formats are stable and versioned:

* counts CSV: UTF-8, LF line endings, header ``t,x1,...,xM``, one row per
  1-based time point, integer cells.
* truth / report / metrics JSON: ``schema_version`` field, schemas shipped
  under ``seppchange/schemas``.
* event CSV (optional ingestion): header ``time,unit``; ``--bin-width`` turns
  it into binned counts.

All randomness flows from ``--seed``; replications derive per-index
counter-based substreams, so ``--jobs N`` changes wall time, never results.
``replicate`` builds its scenario and detect options once, then splits the
batch into ``min(N, reps)`` shares for ``--jobs N`` (one share where the
platform cannot fork): the command process runs one, and a forked child each
of the others.  Each process starts on its own CPU of the command's affinity
mask, then may run on any of them.
Exit codes: 0 success, 1 usage, 2 data error, 3 solver hard failure,
4 partial replication failure.

A command process ends through ``run()``: it calls ``main()``, moves every
object then alive into the collector's permanent generation with
``gc.freeze()``, and exits with ``main()``'s code.  The collections that
interpreter shutdown runs then skip the tens of thousands of objects that
numpy and this package create at import: about 15 ms per command on a 2-vCPU
x86-64 host (``scripts/cli_overhead.py``).  Shutdown itself still runs:
atexit handlers run, and stdout and stderr are flushed and closed, so nothing
written late is lost (``os._exit`` would drop it).  ``main()`` never freezes,
so a caller that runs it in process keeps a normal heap.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import pickle
import sys
import time

import numpy as np

from . import __version__
from .core import (
    ChangePointSet,
    CoefficientSequence,
    DataError,
    EventSeries,
    ModelConfig,
    SolverFailure,
)
from .detect import DetectOptions, default_tuning, detect
from .glm import SolverOptions
from .metrics import EvalResult, aggregate, evaluate, table_cell
from .sim import ScenarioSpec, build_scenario, generate_series

METRICS_SCHEMA_VERSION = 1
# Version 2: the model object drops the history depth ``memory``.
TRUTH_SCHEMA_VERSION = 2
# Version 2: report segments give each block's fitted window [max(s-1, 1), e].
# Version 3: the cache object counts the block costs the zero test screened.
# Version 4: the cache object counts the costs the bound alone screened
# (``bounded``); ``options`` drops ``cache_policy`` and ``cache_capacity``, and
# ``model`` drops ``memory``.
# Version 5: ``options`` drops the solver constants ``beta`` and ``init_step``.
REPORT_SCHEMA_VERSION = 5
OUTDIR_ENV = "SEPPCHANGE_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


# ---------------------------------------------------------------------------
# file formats


def write_counts_csv(path: str, series: EventSeries) -> None:
    counts = series.counts
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t," + ",".join(f"x{m}" for m in range(1, series.M + 1)) + "\n")
        for t in range(series.T):
            fh.write(f"{t + 1}," + ",".join(str(int(c)) for c in counts[:, t]) + "\n")


def read_counts_csv(path: str) -> EventSeries:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0] != "t" or any(
            h != f"x{i}" for i, h in enumerate(header[1:], start=1)
        ):
            raise DataError(f"{path}: header must be t,x1,...,xM")
        m = len(header) - 1
        if m < 1:
            raise DataError(f"{path}: no count columns")
        columns = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != m + 1:
                raise DataError(
                    f"{path}: line {lineno}: expected {m + 1} cells, got {len(row)}"
                )
            try:
                cells = [int(c) for c in row]
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: non-integer cell"
                ) from None
            if cells[0] != lineno - 1:
                raise DataError(
                    f"{path}: line {lineno}: expected t={lineno - 1}, got {cells[0]}"
                )
            if any(c < 0 for c in cells[1:]):
                raise DataError(f"{path}: line {lineno}: negative count")
            columns.append(cells[1:])
        if len(columns) < 2:
            raise DataError(f"{path}: need at least two time points")
    counts = np.asarray(columns, dtype=np.int64).T
    return EventSeries(counts, source="ingested", provenance=os.path.abspath(path))


def read_event_csv(path: str, bin_width: float) -> EventSeries:
    """Bin an event-timestamp CSV (header time,unit) into counts."""
    if bin_width <= 0:
        raise DataError("bin width must be positive")
    times: list[float] = []
    units: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header[:2]] != ["time", "unit"]:
            raise DataError(f"{path}: header must be time,unit")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ts = float(row[0])
                unit = int(row[1])
            except (ValueError, IndexError):
                raise DataError(f"{path}: line {lineno}: bad event row") from None
            if ts < 0 or unit < 1:
                raise DataError(
                    f"{path}: line {lineno}: need time >= 0 and unit >= 1"
                )
            times.append(ts)
            units.append(unit)
    if not times:
        raise DataError(f"{path}: no events")
    m = max(units)
    T = max(2, int(math.floor(max(times) / bin_width)) + 1)
    counts = np.zeros((m, T), dtype=np.int64)
    for ts, unit in zip(times, units):
        counts[unit - 1, min(int(ts // bin_width), T - 1)] += 1
    return EventSeries(counts, source="ingested", provenance=os.path.abspath(path))


def _dump_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path: str, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if obj.get("kind") != kind:
        raise DataError(f"{path}: expected kind={kind!r}, got {obj.get('kind')!r}")
    return obj


def _matrix_json(a: np.ndarray) -> list:
    """A matrix as nested lists, with its exact zeros written as the integer 0.

    Fitted matrices are sparse, and at the default tuning wholly zero.  A JSON
    reader shares one object for every 0 but makes a new float for every 0.0,
    so a parsed 40 x 40 zero matrix holds about 15 KiB instead of 52 KiB.
    """
    return [[0 if x == 0 else x for x in row] for row in a.tolist()]


def truth_json(
    seq: CoefficientSequence,
    config: ModelConfig,
    T: int,
    scenario: dict,
    manifest: dict,
) -> dict:
    return {
        "schema_version": TRUTH_SCHEMA_VERSION,
        "kind": "truth",
        "T": T,
        "M": seq.M,
        "model": {"v": config.v, "clip": config.clip},
        "change_points": list(seq.change_points),
        "segments": [
            {"start": s, "matrix": _matrix_json(a)} for s, a in seq.segments
        ],
        "scenario": scenario,
        "manifest": manifest,
    }


def report_json(series: EventSeries, config: ModelConfig, rep, manifest: dict) -> dict:
    opts = rep.options
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "report",
        "T": series.T,
        "M": series.M,
        "change_points": list(rep.change_points.points),
        "total_objective": rep.total_objective,
        "segments": [
            {
                "start": seg.interval.start,
                "end": seg.interval.end,
                "cost": seg.cost,
                "unpenalized_nll": seg.unpenalized_nll,
                "iterations": seg.iterations.tolist(),
                "converged": seg.converged.tolist(),
                "matrix": _matrix_json(seg.matrix),
            }
            for seg in rep.segments
        ],
        "options": {
            "lam": opts.lam,
            "gamma": opts.gamma,
            "min_segment": opts.min_segment,
            "grid": opts.grid,
            "tol": opts.solver.tol,
            "max_iter": opts.solver.max_iter,
        },
        "model": {"v": config.v, "clip": config.clip},
        "cache": rep.cache_stats,
        "nonconverged_fits": rep.nonconverged_fits,
        "timing": {"wall_s": rep.wall_time_s},
        "manifest": manifest,
    }


def metrics_json(result, estimate, truth, T: int, manifest: dict) -> dict:
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "metrics",
        "T": T,
        "hausdorff": result.hausdorff,
        "flagged": result.flagged,
        "k_error": result.k_error,
        "estimate": sorted(int(x) for x in estimate),
        "truth": sorted(int(x) for x in truth),
        "manifest": manifest,
    }


def _manifest(command: str, argv: list[str], seed: int | None = None) -> dict:
    out = {"command": command, "argv": list(argv), "version": __version__}
    if seed is not None:
        out["seed"] = seed
    return out


# ---------------------------------------------------------------------------
# subcommands


def _outdir(args) -> str:
    out = args.output or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _scenario_spec(args) -> ScenarioSpec:
    return ScenarioSpec(
        kind=args.setting,
        rho=getattr(args, "rho", None),
        T=getattr(args, "T", None),
        M=getattr(args, "M", None),
        seed=args.seed,
    )


def _scenario_dict(spec: ScenarioSpec) -> dict:
    return {
        "kind": spec.kind,
        "rho": spec.rho,
        "T": spec.T,
        "M": spec.M,
        "seed": spec.seed,
    }


def cmd_simulate(args, argv: list[str]) -> int:
    spec = _scenario_spec(args)
    seq, config, T = build_scenario(spec)
    series = generate_series(seq, config, T, seed=args.seed, replication=args.replication)
    out = _outdir(args)
    manifest = _manifest("simulate", argv, seed=args.seed)
    write_counts_csv(os.path.join(out, "counts.csv"), series)
    _dump_json(
        os.path.join(out, "truth.json"),
        truth_json(seq, config, T, _scenario_dict(spec), manifest),
    )
    print(f"wrote {out}/counts.csv ({series.M} x {series.T}) and {out}/truth.json")
    return EXIT_OK


def _detect_options(args, T: int, M: int) -> DetectOptions:
    """Detect options from the tuning flags; None takes the default tuning."""
    lam, gamma = args.lam, args.gamma
    if lam is None or gamma is None:
        d_lam, d_gamma = default_tuning(T, M, base=args.log_base)
        lam = d_lam if lam is None else lam
        gamma = d_gamma if gamma is None else gamma
    return DetectOptions(
        lam=lam,
        gamma=gamma,
        min_segment=args.min_segment,
        grid=args.grid,
        solver=SolverOptions(tol=args.tol, max_iter=args.max_iter),
    )


def _sidecar_model(args) -> tuple[float, float] | None:
    path = args.truth
    if path is None:
        guess = os.path.join(os.path.dirname(os.path.abspath(args.input)), "truth.json")
        if os.path.exists(guess):
            path = guess
    if path is None:
        return None
    model = _load_json(path, "truth")["model"]
    return float(model["v"]), float(model["clip"])


def cmd_detect(args, argv: list[str]) -> int:
    if args.bin_width is not None:
        series = read_event_csv(args.input, args.bin_width)
    else:
        series = read_counts_csv(args.input)
    v, clip = args.v, args.clip
    if v is None or clip is None:
        sidecar = _sidecar_model(args)
        if sidecar is not None:
            v = sidecar[0] if v is None else v
            clip = sidecar[1] if clip is None else clip
    if v is None:
        raise ValueError("intercept v not given and no truth.json sidecar found")
    if clip is None:
        raise ValueError("clip not given and no truth.json sidecar found")
    config = ModelConfig(v=v, clip=clip)
    opts = _detect_options(args, series.T, series.M)
    report = detect(series, config, opts)
    out = args.output or os.path.join(os.environ.get(OUTDIR_ENV, "."), "report.json")
    _dump_json(
        out,
        report_json(series, config, report, _manifest("detect", argv)),
    )
    cps = ",".join(str(p) for p in report.change_points.points) or "none"
    bad = report.nonconverged_fits
    note = f", {bad} fit{'s' if bad > 1 else ''} did not converge" if bad else ""
    print(
        f"change points: {cps}  (objective {report.total_objective:.6g}, "
        f"{report.wall_time_s:.1f}s{note})"
    )
    return EXIT_OK


def cmd_evaluate(args, argv: list[str]) -> int:
    truth_doc = _load_json(args.truth, "truth")
    truth_cps = [int(x) for x in truth_doc["change_points"]]
    T = int(truth_doc["T"])
    if args.estimate_csv is not None:
        estimate = _read_cps_csv(args.estimate_csv)
    else:
        estimate = [int(x) for x in _load_json(args.report, "report")["change_points"]]
    result = evaluate(estimate, truth_cps, T)
    doc = metrics_json(result, estimate, truth_cps, T, _manifest("evaluate", argv))
    out = args.output or os.path.join(os.environ.get(OUTDIR_ENV, "."), "metrics.json")
    _dump_json(out, doc)
    flag = " (flagged: empty-set convention)" if result.flagged else ""
    print(f"hausdorff={result.hausdorff}{flag}  |K-Khat|={result.k_error}")
    return EXIT_OK


def _read_cps_csv(path: str) -> list[int]:
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().lower() in ("", "change_point", "cp", "t"):
                continue
            try:
                points.append(int(row[0]))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad change point") from None
    return points


def _run_replication(batch: tuple, rep: int) -> dict:
    """Simulate, detect and evaluate replication ``rep`` of a batch.

    ``batch`` is (seq, config, T, opts, seed), built once by ``cmd_replicate``.
    """
    seq, config, T, opts, seed = batch
    series = generate_series(seq, config, T, seed=seed, replication=rep)
    t0 = time.perf_counter()
    report = detect(series, config, opts)
    result = evaluate(report.change_points.points, seq.change_points, T)
    return {
        "rep": rep,
        "hausdorff": result.hausdorff,
        "flagged": int(result.flagged),
        "k_error": result.k_error,
        "k_hat": len(report.change_points),
        "change_points": ";".join(str(p) for p in report.change_points.points),
        "nonconverged_fits": report.nonconverged_fits,
        "wall_s": round(time.perf_counter() - t0, 3),
    }


_REP_FIELDS = [
    "rep",
    "hausdorff",
    "flagged",
    "k_error",
    "k_hat",
    "change_points",
    "nonconverged_fits",
    "wall_s",
]


def _start_on(cpus: list[int], k: int) -> None:
    """Move this process to CPU ``cpus[k % len(cpus)]``, then give it every CPU
    of ``cpus`` back: the move places it without pinning it for good."""
    if cpus:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def _forked_map(batch: tuple, reps: int, workers: int) -> list[tuple[dict | None, str | None]]:
    """``_run_replication_safe`` of replications 0, ..., ``reps`` - 1 of ``batch``, in order.

    This process and ``workers - 1`` forked children each run one share: share
    k holds the replications k, k + W, k + 2W, ... for W = ``workers`` >= 1,
    so one share forks no child and runs the whole batch here.  Child k
    starts on the k-th CPU of this process's mask and this process on the
    first (``_start_on``).  Each child sends its share's results back as one
    pickled list through its own pipe and leaves through ``os._exit``, so
    neither the stdio buffers nor the atexit handlers it inherited run twice.
    A child that does not exit 0 has each replication of its share recorded
    as failed, with its exit status (minus the signal's number if a signal
    killed it).  No child outlives the call: one that is not reaped when this
    process leaves, say on KeyboardInterrupt, is killed.  A child holds a copy
    of the calling thread only, so the caller must run no other thread: the
    command process starts none.
    """
    # numpy imports numpy.random on first use, which is a replication's first
    # `generate_series`; imported here, the children inherit it instead of
    # each paying about 10 ms for it.  gc.freeze() then moves this process's
    # heap into the permanent generation, so the children's collections
    # neither scan it nor write to its pages (the pre-fork idiom of the gc
    # module's documentation).  stdout and stderr are flushed first, so no
    # child holds a copy of what they buffer.  signal is imported here too:
    # it adds about 0.6 ms to every CLI start, and only this call uses it.
    import signal

    import numpy.random  # noqa: F401

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    results: list = [None] * reps
    children: dict = {}  # pid -> (share, read end of its pipe)
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    try:
        _start_on(cpus, 0)
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    _start_on(cpus, k)
                    share = [(i, _run_replication_safe(batch, i))
                             for i in range(k, reps, workers)]
                    with os.fdopen(write_end, "wb") as fh:
                        pickle.dump(share, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children[pid] = (k, os.fdopen(read_end, "rb"))
        for i in range(0, reps, workers):
            results[i] = _run_replication_safe(batch, i)
        for pid, (k, pipe) in list(children.items()):
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pipe.close()
            del children[pid]
            if status == 0:
                for i, result in pickle.loads(data):
                    results[i] = result
            else:
                err = f"worker {k} exited with status {os.waitstatus_to_exitcode(status)}"
                for i in range(k, reps, workers):
                    results[i] = (None, err)
    finally:
        for pid, (_, pipe) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        gc.unfreeze()
    return results


def cmd_replicate(args, argv: list[str]) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    # The batch is built once, so a bad scenario fails here, before any
    # output or child exists, and warns once.
    seq, config, T = build_scenario(_scenario_spec(args))
    batch = (seq, config, T, _detect_options(args, T, seq.M), args.seed)
    out = _outdir(args)
    # One share of the batch runs in this process, the others in forked
    # children (`_forked_map`).  Each share starts on its own CPU.  Forked
    # processes start on the parent's CPU, and on a 2-vCPU x86-64 host two
    # forked workers stayed there for a whole 16-replication batch: a
    # replication took 10-14 ms of wall time for 6-7 ms of CPU time, and
    # --jobs 2 ran slower than --jobs 1.  Each process gets the full mask
    # back at once, so the scheduler can still move it off a CPU that
    # other work keeps busy; a lasting pin measured no faster.
    workers = max(1, min(args.jobs, args.reps)) if hasattr(os, "fork") else 1
    results = _forked_map(batch, args.reps, workers)
    rows = [row for row, err in results if err is None]
    failures = [(rep, err) for rep, (_, err) in enumerate(results) if err is not None]

    rep_path = os.path.join(out, "replications.csv")
    with open(rep_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    param = {"a": args.rho, "b": args.T, "c": args.M}.get(args.setting)
    summary_path = os.path.join(out, "summary.csv")
    header = [
        "setting",
        "param",
        "reps",
        "failures",
        "hausdorff_mean",
        "hausdorff_se",
        "hausdorff_cell",
        "k_error_mean",
        "k_error_se",
        "k_error_cell",
        "flagged",
    ]
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if rows:
            agg = aggregate(
                [
                    EvalResult(
                        hausdorff=row["hausdorff"],
                        flagged=bool(row["flagged"]),
                        k_error=row["k_error"],
                    )
                    for row in rows
                ]
            )
            writer.writerow(
                [
                    args.setting,
                    param,
                    len(rows),
                    len(failures),
                    agg["hausdorff_mean"],
                    agg["hausdorff_se"] if agg["hausdorff_se"] is not None else "",
                    table_cell(agg["hausdorff_mean"], agg["hausdorff_se"]),
                    agg["k_error_mean"],
                    agg["k_error_se"] if agg["k_error_se"] is not None else "",
                    table_cell(agg["k_error_mean"], agg["k_error_se"]),
                    agg["flagged"],
                ]
            )
            print(
                f"setting ({args.setting}) param={param} reps={len(rows)}: "
                f"D={table_cell(agg['hausdorff_mean'], agg['hausdorff_se'])} "
                f"|K-Khat|={table_cell(agg['k_error_mean'], agg['k_error_se'])}"
            )
    for rep, err in failures:
        print(f"replication {rep} failed: {err}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def _run_replication_safe(batch: tuple, rep: int) -> tuple[dict | None, str | None]:
    try:
        return _run_replication(batch, rep), None
    except Exception as exc:  # noqa: BLE001 - replication failures are recorded
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--setting", required=True, choices=["a", "b", "c"])
    p.add_argument("--rho", type=float, help="jump size for setting (a)")
    p.add_argument("--T", type=int, help="series length for setting (b)")
    p.add_argument("--M", type=int, help="dimension for setting (c)")
    p.add_argument("--seed", type=int, default=0)


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="l1 penalty level (default 90 log(TM))")
    p.add_argument("--gamma", type=float, default=None,
                   help="per-block penalty (default log(M)^2 / 2)")
    p.add_argument("--log-base", type=float, default=math.e,
                   help="base of the logs in the default tuning formulas")
    p.add_argument("--min-segment", dest="min_segment", type=int, default=2)
    p.add_argument("--grid", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=5000)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seppchange", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario series")
    _add_scenario_flags(p)
    p.add_argument("--replication", type=int, default=0)
    p.add_argument("-o", "--output", help="output directory")

    p = sub.add_parser("detect", help="detect change points in a counts CSV")
    p.add_argument("input", help="counts CSV (or event CSV with --bin-width)")
    p.add_argument("--v", type=float, default=None, help="known intercept")
    p.add_argument("--clip", type=float, default=None, help="design clip level")
    p.add_argument("--truth", default=None, help="truth.json sidecar for v/clip")
    p.add_argument("--bin-width", dest="bin_width", type=float, default=None,
                   help="bin an event-timestamp CSV at this width first")
    _add_detect_flags(p)
    p.add_argument("-o", "--output", help="report JSON path (default report.json)")

    p = sub.add_parser("evaluate", help="score a report against a truth file")
    p.add_argument("report", nargs="?", default=None)
    p.add_argument("truth")
    p.add_argument("--estimate-csv", dest="estimate_csv", default=None,
                   help="score a plain CSV of change points instead of a report")
    p.add_argument("-o", "--output", help="metrics JSON path (default metrics.json)")

    p = sub.add_parser("replicate", help="simulate-detect-evaluate many times")
    _add_scenario_flags(p)
    _add_detect_flags(p)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output", help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "simulate":
            return cmd_simulate(args, argv)
        if args.command == "detect":
            return cmd_detect(args, argv)
        if args.command == "evaluate":
            if args.report is None and args.estimate_csv is None:
                raise DataError("evaluate needs a report JSON or --estimate-csv")
            return cmd_evaluate(args, argv)
        if args.command == "replicate":
            return cmd_replicate(args, argv)
        raise AssertionError(f"unhandled command {args.command}")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Entry point of the `seppchange` command: ``main()``, then exit.

    The freeze lets interpreter shutdown skip collecting the heap that the
    imports built (module docstring); the exit code is ``main()``'s.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
