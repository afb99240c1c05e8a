"""Per-layer probes: spans around the benchmark's own calls into each layer.

The traced run calls the program's public functions in-process and records
one span (name, start, end, parent) around each call.  Spans stay in memory
and are written out when the run ends.  Nothing here reads a private name of
the program; a counter or argument the program stops offering makes its
metrics absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager

import seppchange
from seppchange import cli as sc_cli

EVALUATE_CALLS = 2000
REPEATS = 3
# A cold fit this fast is timed several times, so the median is not clock noise.
QUICK_FIT_S = 0.05


class Tracer:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median_s(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def span_cost_s(samples: int = 20000) -> float:
    """Cost of one empty span, measured against an empty loop of the same length."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        pass
    empty = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return max(time.perf_counter() - t0 - empty, 0.0) / samples


def probe(tracer: Tracer, ctx: dict) -> tuple[dict, list[int]]:
    """Call each layer once (or a few times) under spans.

    ``ctx`` holds the run's inputs: the counts CSV, the CLI report of the same
    series, the scenario, the truth change points and the seed.  Returns the
    per-layer metrics as {name: (value, unit)} and the change points that the
    in-process detect found.
    """
    out: dict = {}
    for _ in range(REPEATS + 2):
        with tracer.span("cli.read_counts"):
            series = sc_cli.read_counts_csv(ctx["counts_path"])

    spec = seppchange.ScenarioSpec(**ctx["scenario"])
    seq, config, T = seppchange.build_scenario(spec)
    for _ in range(REPEATS):
        with tracer.span("sim.generate_series"):
            seppchange.generate_series(seq, config, T, seed=ctx["sim_seed"], replication=ctx["replication"])

    opts_doc = ctx["report"]["options"]
    solver = seppchange.SolverOptions(tol=opts_doc["tol"], max_iter=opts_doc["max_iter"])
    opts = seppchange.DetectOptions(
        lam=opts_doc["lam"],
        gamma=opts_doc["gamma"],
        min_segment=opts_doc["min_segment"],
        grid=opts_doc["grid"],
        solver=solver,
    )
    config = seppchange.ModelConfig(v=ctx["v"], clip=ctx["clip"])
    half = series.T // 2
    fit_s, fit_iters = 0.0, []
    for lo, hi in ((1, half), (half + 1, series.T)):
        interval = seppchange.Interval(lo, hi)
        name = f"glm.fit[{lo},{hi}]"
        with tracer.span(name):
            fit = seppchange.fit_interval(series, interval, opts.lam, config, solver)
        if tracer.durations(name)[-1] < QUICK_FIT_S:
            for _ in range(REPEATS + 2):
                with tracer.span(name):
                    seppchange.fit_interval(series, interval, opts.lam, config, solver)
        fit_s += tracer.median_s(name)
        fit_iters.append(int(fit.iterations.max()))
    out["glm.fit_ms"] = (1e3 * fit_s, "ms")
    out["glm.iterations_per_fit"] = (max(fit_iters), "count")
    out["glm.ms_per_iteration"] = (1e3 * fit_s / sum(fit_iters), "ms")

    takes_cache = "cache" in inspect.signature(seppchange.detect).parameters
    cache_cls = getattr(seppchange, "CostCache", None)
    cache = cache_cls() if takes_cache and cache_cls is not None else None
    with tracer.span("detect.cold"):
        report = (
            seppchange.detect(series, config, opts, cache)
            if cache is not None
            else seppchange.detect(series, config, opts)
        )
    detect_s = tracer.durations("detect.cold")[-1]
    out["detect.nonconverged_fits"] = (report.nonconverged_fits, "count")
    stats = getattr(report, "cache_stats", None) or {}
    if "misses" in stats:
        out["detect.fits"] = (stats["misses"], "count")
    if "entries" in stats:
        out["detect.cache_entries"] = (stats["entries"], "count")

    # A second detect on the filled cache makes no fits: its time is the DP
    # plus the refit.  Timing it in turn with the refit alone splits the
    # sweep, DP and refit by subtraction.
    dp_s = []
    for _ in range(REPEATS):
        if cache is not None:
            with tracer.span("detect.filled"):
                seppchange.detect(series, config, opts, cache)
        with tracer.span("glm.refit"):
            for seg in report.segments:
                seppchange.fit_interval(series, seg.interval, opts.lam, config, solver)
        if cache is not None:
            dp_s.append(tracer.durations("detect.filled")[-1] - tracer.durations("glm.refit")[-1])
    refit_s = tracer.median_s("glm.refit")
    out["detect.refit_s"] = (refit_s, "s")
    if cache is not None:
        sweep_s = detect_s - statistics.median(dp_s) - refit_s
        out["detect.dp_s"] = (statistics.median(dp_s), "s")
        out["detect.sweep_s"] = (sweep_s, "s")
        if "misses" in stats:
            out["detect.fits_per_s"] = (stats["misses"] / sweep_s, "1/s")

    manifest = {"command": "detect", "argv": [], "version": seppchange.__version__}
    for i in range(REPEATS):
        with tracer.span("cli.write_report"):
            doc = sc_cli.report_json(series, config, report, manifest)
            with open(ctx["scratch_dir"] / f"probe_report{i}.json", "w", encoding="utf-8", newline="") as fh:
                fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    estimate = list(report.change_points.points)
    with tracer.span("metrics.evaluate"):
        for _ in range(EVALUATE_CALLS):
            seppchange.evaluate(estimate, ctx["truth_cps"], series.T)
    out["metrics.evaluate_us"] = (1e6 * tracer.durations("metrics.evaluate")[-1] / EVALUATE_CALLS, "us")
    out["cli.read_counts_ms"] = (1e3 * tracer.median_s("cli.read_counts"), "ms")
    out["sim.generate_series_ms"] = (1e3 * tracer.median_s("sim.generate_series"), "ms")
    out["cli.write_report_ms"] = (1e3 * tracer.median_s("cli.write_report"), "ms")
    return out, estimate
