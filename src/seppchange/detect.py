"""Exact penalized dynamic programming over interval partitions.

The partition estimate minimizes

    sum_{I in P} H(Ahat(W(I)), W(I))  +  gamma * |P|

over all partitions P of [1, T] into blocks of length at least ``min_segment``
whose starts lie on the candidate grid.  A regime block I = [s, e] is charged
with the fit on its window W(I) = [max(s-1, 1), e], which holds exactly the
transitions t -> t+1 whose target t+1 lies in I.  The windows of any partition
therefore cover the transitions 1 -> 2, ..., T-1 -> T exactly once, and a split
is paid for only by gamma and a better fit, never by a transition that no
block counts.  The Bellman recursion

    B[e] = min_s  B[s-1] + cost([s, e]) + gamma,      B[0] = 0,
    cost([s, e]) = H(Ahat(W), W),   W = [max(s-1, 1), e],

is exact; ties are resolved toward fewer blocks and then the lexicographically
smallest change-point vector.  Block costs are memoized, and consecutive
fits along a sweep share warm starts, which is what makes the O(T^2) scan
affordable.  ``exhaustive_search`` enumerates every admissible partition
through the same cost cache and exists to validate ``detect``.

Most windows need no solver at all.  Zero lies strictly inside the row-norm
ball, so by the KKT condition at A = 0 row m of the fit on window W is exactly
zero iff

    max_j | sum_{t in W} (e^v - X_m(t+1)) g_j(t) |  <=  lam * sqrt(|W|),

the non-strict ``<=`` matching the soft-threshold, which maps a coordinate
of magnitude exactly the threshold to zero.  When every row passes, the
window's cost is the zero-matrix nll sum_{t in W} sum_m (e^v - v X_m(t+1))
and the fit is skipped (the exact form of the safe and strong screening
rules of El Ghaoui et al. 2010 and Tibshirani et al. 2012).  The sweep keeps
the gradient at zero as one M x M running sum per start, extended by the new
columns as the end advances, so screening adds O(M^2) memory, nothing that
grows with T.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ChangePointSet, EventSeries, Interval, ModelConfig, induced_partition
from .glm import SegmentFit, SolverOptions, _fit_kernel, design_matrices, fit_interval

ENUMERATION_GUARD = 2**20


@dataclass(frozen=True)
class DetectOptions:
    """Tuning and search controls for the partition scan.

    ``lam`` scales the per-interval l1 penalty, ``gamma`` is the per-block
    partition penalty.  ``grid`` restricts candidate segment starts to the
    lattice {1, 1+grid, 1+2*grid, ...} (grid=1 searches every index).  The
    cache policy is either ``"all"`` (keep every interval cost) or ``"lru"``
    with a positive ``cache_capacity``.
    """

    lam: float
    gamma: float
    min_segment: int = 2
    grid: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)
    cache_policy: str = "all"
    cache_capacity: int = 0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.min_segment < 2:
            raise ValueError("min_segment must be >= 2")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")
        if self.cache_policy not in ("all", "lru"):
            raise ValueError("cache_policy must be 'all' or 'lru'")
        if self.cache_policy == "lru" and self.cache_capacity < 1:
            raise ValueError("lru cache needs a positive capacity")


@dataclass(frozen=True)
class DetectionReport:
    """Everything a detection run produced, sufficient to rebuild its objective.

    ``segments`` holds one fit per regime block, in order, each on the block's
    window [max(s-1, 1), e]; the blocks themselves are induced by
    ``change_points``.
    """

    change_points: ChangePointSet
    segments: tuple[SegmentFit, ...]
    total_objective: float
    wall_time_s: float
    cache_stats: dict
    options: DetectOptions
    nonconverged_fits: int = 0

    @property
    def K(self) -> int:
        return len(self.change_points)


class CostCache:
    """Memo of costs keyed by (start, end), with hit/miss counters.

    A cache instance is bound to one (series, lam, config, solver) context and
    to one key meaning: regime blocks for detect() and exhaustive_search(),
    fitted intervals for interval_cost().  It refuses reuse under a different
    context, so detect() and exhaustive_search() can safely share one instance.
    ``screened`` counts the block costs the sweep took from the zero test
    instead of a fit; each of them is also counted as a miss.
    """

    def __init__(self, policy: str = "all", capacity: int = 0) -> None:
        if policy not in ("all", "lru"):
            raise ValueError("policy must be 'all' or 'lru'")
        self.policy = policy
        self.capacity = capacity
        self._data: OrderedDict[tuple[int, int], tuple[float, bool, int]] = OrderedDict()
        self._context: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.screened = 0

    def bind(self, context: tuple) -> None:
        if self._context is None:
            self._context = context
        elif self._context != context:
            raise ValueError("cost cache reused under a different context")

    def get(self, key: tuple[int, int]):
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.policy == "lru":
            self._data.move_to_end(key)
        return entry

    def put(self, key: tuple[int, int], entry: tuple[float, bool, int]) -> None:
        self._data[key] = entry
        if self.policy == "lru" and len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._data),
            "screened": self.screened,
        }


def default_tuning(T: int, M: int, base: float = math.e) -> tuple[float, float]:
    """Default penalty levels lam = 90*log(T*M) and gamma = log(M)^2 / 2.

    Logarithms default to the natural base; pass ``base`` to rescale.  The
    degenerate case log(T*M) = 0 or log(M) = 0 is allowed but flagged with a
    warning, since a zero penalty disables the corresponding control.
    """
    if T < 1 or M < 1:
        raise ValueError("T and M must be >= 1")
    scale = math.log(base)
    lam = 90.0 * math.log(T * M) / scale
    gamma = (math.log(M) / scale) ** 2 / 2.0
    if lam <= 0 or gamma <= 0:
        warnings.warn(
            f"degenerate tuning for T={T}, M={M}: lam={lam}, gamma={gamma}",
            stacklevel=2,
        )
    return lam, gamma


def _context(
    keys: str,
    series: EventSeries,
    config: ModelConfig,
    lam: float,
    solver: SolverOptions,
) -> tuple:
    # The series is keyed on its content: an id() is reused once the array is
    # garbage-collected, and would let a cache serve another series' costs.
    counts = series.counts
    return (
        keys,
        counts.shape,
        counts.dtype.str,
        counts.tobytes(),
        lam,
        config.v,
        config.clip,
        solver.tol,
        solver.max_iter,
    )


def interval_cost(
    series: EventSeries,
    interval: Interval,
    lam: float,
    config: ModelConfig,
    opts: SolverOptions = SolverOptions(),
    cache: CostCache | None = None,
) -> float:
    """Memoized penalized cost of the fit on one interval.

    This is the fit over every transition inside ``interval``; the partition
    objective charges a regime block [s, e] with the fit on [max(s-1, 1), e].
    """
    key = (interval.start, interval.end)
    if cache is not None:
        cache.bind(_context("interval", series, config, lam, opts))
        hit = cache.get(key)
        if hit is not None:
            return hit[0]
    fit = fit_interval(series, interval, lam, config, opts)
    if cache is not None:
        cache.put(key, (fit.cost, bool(fit.converged.all()), int(fit.iterations.max())))
    return fit.cost


def _grid_points(T: int, opts: DetectOptions) -> tuple[list[int], list[int]]:
    """Admissible block starts and ends under the grid and T."""
    starts = list(range(1, T + 1, opts.grid))
    ends = sorted({s - 1 for s in starts if s > 1} | {T})
    return starts, ends


def _window(s: int, e: int) -> Interval:
    """Fitted window of regime block [s, e]: the transitions with target in [s, e]."""
    return Interval(max(s - 1, 1), e)


def _cached_cost(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cache: CostCache,
    s: int,
    e: int,
) -> float:
    """Cost of block [s, e] from the cache, recomputing on an LRU eviction."""
    entry = cache.get((s, e))
    if entry is not None:
        return entry[0]
    fit = fit_interval(
        series, _window(s, e), opts.lam, config, replace(opts.solver, init=None)
    )
    cache.put((s, e), (fit.cost, bool(fit.converged.all()), int(fit.iterations.max())))
    return fit.cost


def _sweep_costs(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cache: CostCache,
) -> int:
    """Fill the cache with every admissible block cost; returns nonconverged count.

    For each admissible start the ends are visited in increasing order.  The
    gradient of the nll at A = 0 over the current window, grad0, and its
    zero-matrix nll, cost0, are running sums over the window's columns, so
    advancing the end adds only the new columns: O(M^2) memory per start.  A
    window with max|grad0| <= lam * sqrt(|W|) has the zero matrix as its exact
    optimum (KKT at 0, see the module docstring) and costs cost0 without a
    fit.  Any other window runs the solver, warm-started from the previous
    window's fit (zero after a screened window), so most solves need only a
    few iterations.
    """
    g_all, xp_all = design_matrices(series, config)
    ev = math.exp(config.v)
    zero_cols = (ev - config.v * xp_all).sum(axis=0)  # zero-matrix nll per column
    T, M = series.T, series.M
    starts, ends = _grid_points(T, opts)
    solver = opts.solver
    nonconverged = 0
    for s in starts:
        warm = None
        lo = _window(s, T).start
        summed = lo - 1  # grad0 and cost0 hold the columns [lo - 1, summed)
        grad0 = np.zeros((M, M))
        cost0 = 0.0
        for e in ends:
            if e - s + 1 < opts.min_segment:
                continue
            if cache.get((s, e)) is not None:
                continue
            grad0 += (ev - xp_all[:, summed : e - 1]) @ g_all[:, summed : e - 1].T
            cost0 += float(zero_cols[summed : e - 1].sum())
            summed = e - 1
            thr = opts.lam * math.sqrt(e - lo + 1)
            if np.abs(grad0).max() <= thr:
                cache.screened += 1
                warm = None
                cache.put((s, e), (cost0, True, 0))
                continue
            g = g_all[:, lo - 1 : e - 1]
            xp = xp_all[:, lo - 1 : e - 1]
            A, f_rows, iters, converged, _ = _fit_kernel(
                g, xp, config.v, thr, solver, warm
            )
            warm = A
            cost = float(f_rows.sum()) + thr * float(np.abs(A).sum())
            ok = bool(converged.all())
            if not ok:
                nonconverged += 1
            cache.put((s, e), (cost, ok, int(iters.max())))
    return nonconverged


def _refit_segments(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    partition: list[Interval],
) -> tuple[SegmentFit, ...]:
    solver = replace(opts.solver, init=None)
    return tuple(
        fit_interval(series, _window(b.start, b.end), opts.lam, config, solver)
        for b in partition
    )


def _report(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cps: tuple[int, ...],
    cache: CostCache,
    nonconverged: int,
    t0: float,
) -> DetectionReport:
    change_points = ChangePointSet(cps)
    partition = induced_partition(change_points, series.T)
    segments = _refit_segments(series, config, opts, partition)
    total = 0.0
    for seg in segments:
        total = total + seg.cost + opts.gamma
    return DetectionReport(
        change_points=change_points,
        segments=segments,
        total_objective=total,
        wall_time_s=time.perf_counter() - t0,
        cache_stats=cache.stats(),
        options=opts,
        nonconverged_fits=nonconverged,
    )


def detect(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cache: CostCache | None = None,
) -> DetectionReport:
    """Exact minimization of the penalized partition objective.

    Among minimizers the returned partition has the fewest blocks and then the
    lexicographically smallest change points.  Solver non-convergence inside
    any interval fit is propagated as a count, never an abort.
    """
    t0 = time.perf_counter()
    T = series.T
    if cache is None:
        cache = CostCache(opts.cache_policy, opts.cache_capacity)
    cache.bind(_context("block", series, config, opts.lam, opts.solver))
    nonconverged = _sweep_costs(series, config, opts, cache)

    if T < 2 * opts.min_segment:
        return _report(series, config, opts, (), cache, nonconverged, t0)

    starts, ends = _grid_points(T, opts)
    # B maps a covered prefix end to (objective, blocks, change points).
    B: dict[int, tuple[float, int, tuple[int, ...]]] = {0: (0.0, 0, ())}
    for e in ends:
        best = None
        for s in starts:
            if s > e - opts.min_segment + 1:
                break
            prev = B.get(s - 1)
            if prev is None:
                continue
            cost = _cached_cost(series, config, opts, cache, s, e)
            value = prev[0] + cost + opts.gamma
            cand = (value, prev[1] + 1, prev[2] + (s,) if s > 1 else prev[2])
            if best is None or cand < best:
                best = cand
        if best is not None:
            B[e] = best
    final = B[T]
    return _report(series, config, opts, final[2], cache, nonconverged, t0)


def count_partitions(T: int, opts: DetectOptions) -> int:
    """Number of admissible partitions of [1, T] under min_segment and grid."""
    starts, ends = _grid_points(T, opts)
    n: dict[int, int] = {0: 1}
    for e in ends:
        total = 0
        for s in starts:
            if s > e - opts.min_segment + 1:
                break
            if s - 1 in n:
                total += n[s - 1]
        if total:
            n[e] = total
    return n.get(T, 0)


def exhaustive_search(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cache: CostCache | None = None,
) -> DetectionReport:
    """Enumerate every admissible partition and return the objective minimizer.

    Uses the same interval costs and the same accumulation order and
    tie-breaking as detect(); exists solely as a validation oracle and refuses
    instances with more than 2**20 admissible partitions.
    """
    t0 = time.perf_counter()
    T = series.T
    n_parts = count_partitions(T, opts)
    if n_parts > ENUMERATION_GUARD:
        raise ValueError(
            f"{n_parts} admissible partitions exceed the enumeration guard "
            f"({ENUMERATION_GUARD})"
        )
    if cache is None:
        cache = CostCache(opts.cache_policy, opts.cache_capacity)
    cache.bind(_context("block", series, config, opts.lam, opts.solver))
    nonconverged = _sweep_costs(series, config, opts, cache)

    if T < 2 * opts.min_segment:
        return _report(series, config, opts, (), cache, nonconverged, t0)

    starts, ends = _grid_points(T, opts)
    start_set = set(starts)
    best: tuple[float, int, tuple[int, ...]] | None = None

    # Depth-first over block boundaries; the running value folds cost + gamma
    # per block exactly like the Bellman recursion does.
    stack = [(0, 0.0, 0, ())]
    while stack:
        covered, value, k, cps = stack.pop()
        if covered == T:
            cand = (value, k, cps)
            if best is None or cand < best:
                best = cand
            continue
        s = covered + 1
        if s not in start_set:
            continue
        for e in ends:
            if e - s + 1 < opts.min_segment:
                continue
            cost = _cached_cost(series, config, opts, cache, s, e)
            stack.append(
                (e, value + cost + opts.gamma, k + 1, cps + (s,) if s > 1 else cps)
            )
    return _report(series, config, opts, best[2], cache, nonconverged, t0)
