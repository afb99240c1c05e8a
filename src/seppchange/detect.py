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

    max_j | sum_{t in W} r_m(t) g_j(t) |  <=  lam * sqrt(|W|),
    r(t) = e^v - X(t+1),

the non-strict ``<=`` matching the soft-threshold, which maps a coordinate
of magnitude exactly the threshold to zero.  When every row passes, the
window's cost is the zero-matrix nll sum_{t in W} sum_m (e^v - v X_m(t+1))
and the fit is skipped (the exact form of the safe and strong screening
rules of El Ghaoui et al. 2010 and Tibshirani et al. 2012).

The sweep settles each window by the cheapest test that can decide it:

1. A bound.  Since g >= 0, every entry of the gradient at zero is at most
   the row bound sum_t |r_m(t)| max_j g_j(t) and at most the column bound
   sum_t max_m |r_m(t)| g_j(t).  Both are sums of non-negative terms, so
   cumulative sums give them for every end of a start at once, in O(M T).
   A window whose smaller bound, inflated by the slack 1 + 4 n eps for its
   n columns, stays within lam * sqrt(|W|) is zero.  The slack exceeds the
   rounding error of the bound and of the exact gradient together, so the
   bound settles only windows that the exact test settles too.
2. The exact test, on an M x M running sum of the gradient that takes the
   columns since the last exact test in one matmul.
3. The solver, for the windows that fail both.

So the screened set, the warm-start chain and every cost are those of the
exact test alone, and the sweep needs O(M T) memory per start.
"""

from __future__ import annotations

import math
import time
import warnings
from itertools import repeat
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
    lattice {1, 1+grid, 1+2*grid, ...} (grid=1 searches every index).
    """

    lam: float
    gamma: float
    min_segment: int = 2
    grid: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.min_segment < 2:
            raise ValueError("min_segment must be >= 2")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")


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
    Entries are (cost, converged, iterations) and are never evicted: the sweep
    stores every block cost before the partition search reads one.
    ``screened`` counts the block costs the sweep took from the zero test
    instead of a fit, and ``bounded`` those among them that the bound settled
    without the exact test; each screened cost is also counted as a miss.
    """

    def __init__(self) -> None:
        self._data: dict[tuple[int, int], tuple[float, bool, int]] = {}
        self._context: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.screened = 0
        self.bounded = 0

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
        return entry

    def put(self, key: tuple[int, int], entry: tuple[float, bool, int]) -> None:
        self._data[key] = entry

    def cost(self, key: tuple[int, int]) -> float:
        """The cost of a stored block; raises KeyError for a block never swept."""
        self.hits += 1
        return self._data[key][0]

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._data),
            "screened": self.screened,
            "bounded": self.bounded,
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


_EPS = float(np.finfo(np.float64).eps)


def _sweep_costs(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cache: CostCache,
) -> int:
    """Fill the cache with every admissible block cost; returns nonconverged count.

    Each start is swept on its own, its ends in increasing order, through the
    three levels of the module docstring:

    * For all ends at once: the row and column bounds, as cumulative sums
      over the start's columns, and the zero-matrix nll cost0.  cost0 adds
      the columns between consecutive ends one chunk at a time, in the same
      order whichever level settles the window.
    * For each window the bound leaves open, in order: the exact test on
      grad0, the gradient at zero, an M x M running sum that adds every
      column since the previous open window in one matmul.
    * For each window the exact test leaves open: the solver, warm-started
      from the fit of the start's previous window if the solver ran there,
      else from zero.

    A start whose blocks are all cached is skipped; otherwise its blocks are
    swept and only the missing ones are stored.
    """
    g_all, xp_all = design_matrices(series, config)
    ev = math.exp(config.v)
    resid = ev - xp_all  # grad0 over window W is sum_{t in W} r(t) g(t)^T
    zero_cols = (ev - config.v * xp_all).sum(axis=0)  # zero-matrix nll per column
    abs_r = np.abs(resid)
    row_terms = abs_r * g_all.max(axis=0)  # |r_m(t)| max_j g_j(t)
    col_terms = abs_r.max(axis=0) * g_all  # max_m |r_m(t)| g_j(t)
    del abs_r
    T, M = series.T, series.M
    starts, ends = _grid_points(T, opts)
    # chunks[k]: the zero-matrix nll of the columns between ends k-1 and k
    chunks = np.array(
        [0.0] + [zero_cols[a - 1 : b - 1].sum() for a, b in zip(ends, ends[1:])]
    )
    data = cache._data
    solver = opts.solver
    nonconverged = 0
    first = 0  # ends[first] is the start's first admissible end
    for s in starts:
        while first < len(ends) and ends[first] - s + 1 < opts.min_segment:
            first += 1
        keys = list(zip(repeat(s), ends[first:]))
        new = [key not in data for key in keys]
        fresh = sum(new)
        cache.hits += len(keys) - fresh
        cache.misses += fresh
        if not fresh:
            continue
        lo = _window(s, T).start
        c0 = lo - 1  # window [lo, e] holds the columns [c0, e - 1)
        n = np.asarray(ends[first:]) - lo  # columns per window
        bound = np.minimum(
            np.cumsum(row_terms[:, c0:], axis=1)[:, n - 1].max(axis=0),
            np.cumsum(col_terms[:, c0:], axis=1)[:, n - 1].max(axis=0),
        )
        bounded = bound * (1.0 + 4.0 * n * _EPS) <= opts.lam * np.sqrt(n + 1)
        cost0 = chunks[first:].copy()
        cost0[0] = zero_cols[c0 : ends[first] - 1].sum()
        entries = list(zip(np.cumsum(cost0).tolist(), repeat(True), repeat(0)))
        n_bounded = int(np.count_nonzero(bounded & np.array(new)))
        screened = n_bounded

        grad0 = np.zeros((M, M))
        summed = c0  # grad0 holds the columns [c0, summed)
        warm, fitted = None, -1  # fitted: the last window the solver ran on
        for k in np.flatnonzero(~bounded).tolist():
            e = ends[first + k]
            grad0 += resid[:, summed : e - 1] @ g_all[:, summed : e - 1].T
            summed = e - 1
            thr = opts.lam * math.sqrt(e - lo + 1)
            if np.abs(grad0).max() <= thr:
                screened += new[k]
                continue
            g = g_all[:, c0 : e - 1]
            xp = xp_all[:, c0 : e - 1]
            A, f_rows, iters, converged, _ = _fit_kernel(
                g, xp, config.v, thr, solver, warm if fitted == k - 1 else None
            )
            warm, fitted = A, k
            cost = float(f_rows.sum()) + thr * float(np.abs(A).sum())
            ok = bool(converged.all())
            if new[k] and not ok:
                nonconverged += 1
            entries[k] = (cost, ok, int(iters.max()))
        cache.bounded += n_bounded
        cache.screened += screened
        if fresh == len(keys):
            data.update(zip(keys, entries))
        else:
            data.update(kv for kv, is_new in zip(zip(keys, entries), new) if is_new)
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
        cache = CostCache()
    cache.bind(_context("block", series, config, opts.lam, opts.solver))
    nonconverged = _sweep_costs(series, config, opts, cache)

    if T < 2 * opts.min_segment:
        return _report(series, config, opts, (), cache, nonconverged, t0)

    starts, ends = _grid_points(T, opts)
    cost, gamma = cache.cost, opts.gamma
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
            value = prev[0] + cost((s, e)) + gamma
            # A larger value loses whatever follows, so only a candidate that
            # can win or tie on value is built and compared in full.
            if best is not None and value > best[0]:
                continue
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
        cache = CostCache()
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
            stack.append(
                (
                    e,
                    value + cache.cost((s, e)) + opts.gamma,
                    k + 1,
                    cps + (s,) if s > 1 else cps,
                )
            )
    return _report(series, config, opts, best[2], cache, nonconverged, t0)
