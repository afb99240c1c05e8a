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
smallest change-point vector.

The module has one producer of block costs and one consumer.  ``_cost_rows``
sweeps the starts in increasing order and yields one row per start, an array
of costs over the start's ends; consecutive fits along a start's sweep share
warm starts, which is what makes the O(T^2) scan affordable.  ``_bellman``
runs the recursion push-style over those rows: B[s-1] is final when start s
comes up, because every block that ends at s-1 starts before s, so start s
relaxes the best value seen so far for all of its ends with one vector
operation on its row.  ``detect`` joins the two; without a ``CostCache`` it
keeps no cost table, only the O(T) state of the recursion and the current
row.  The float
operations are those of the textbook pull-style min, in the same order.  An
exact tie on value goes to fewer blocks, compared as a vector, and a tie on
blocks too to the smaller change points, found in Python by walking both
partitions back along their last-block starts until they meet.

Values are floats folded block by block, and that fold is not associative:
a prefix that loses by a rounding residue can round level with the winner
once a later block is added.  The recursion has then dropped it, so where
partitions tie in real arithmetic (gamma = 0 with every fit zero, say) the
returned partition is a minimizer of the float objective but not always the
one with the fewest blocks.  The test suite's exhaustive enumeration, which
compares whole float objectives over the same rows, shows where.

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
   bound settles only windows that the exact test settles too.  Rounding a
   product with the slack is monotone, so the smaller bound passes iff one
   of them does: the column bound is summed only for the starts where the
   row bound leaves a window open.
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
from dataclasses import dataclass, field

import numpy as np

from .core import ChangePointSet, EventSeries, Interval, ModelConfig, induced_partition
from .glm import SegmentFit, SolverOptions, _fit_kernel, design_matrices, fit_interval

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
    """The cost rows of one sweep, kept for later detects, and the sweep's counts.

    ``detect`` needs no cache: without one it streams each start's cost row
    into the recursion and keeps none of them.  The first detect given a
    cache binds it to its context (series content, lam, config, solver,
    grid and min_segment, which together fix every row) and stores all the
    rows of its sweep in ``rows``; a later detect in the same context,
    at any gamma, replays them and runs no fit.  A cache refuses any other
    context, so it never serves another series' costs.

    ``misses`` and ``entries`` count the block costs swept, ``screened`` those
    that the zero test settled instead of a fit, and ``bounded`` those among
    them that the bound settled without the exact test.  ``hits`` counts the
    block costs that the recursion read, and is the only count a replay
    adds to.  A detect without a cache reports the same counts as one with
    a fresh cache.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] | None = None
        self._context: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.entries = 0
        self.screened = 0
        self.bounded = 0

    def bind(self, context: tuple) -> None:
        if self._context is None:
            self._context = context
        elif self._context != context:
            raise ValueError("cost cache reused under a different context")

    def stats(self) -> dict:
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "entries": int(self.entries),
            "screened": int(self.screened),
            "bounded": int(self.bounded),
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


def _context(series: EventSeries, config: ModelConfig, opts: DetectOptions) -> tuple:
    # The series is keyed on its content: an id() is reused once the array is
    # garbage-collected, and would let a cache serve another series' costs.
    counts = series.counts
    return (
        counts.shape,
        counts.dtype.str,
        counts.tobytes(),
        opts.lam,
        config.v,
        config.clip,
        opts.solver.tol,
        opts.solver.max_iter,
        opts.grid,
        opts.min_segment,
    )


def _grid_points(T: int, opts: DetectOptions) -> tuple[list[int], list[int]]:
    """Admissible block starts and ends under the grid and T."""
    starts = list(range(1, T + 1, opts.grid))
    ends = sorted({s - 1 for s in starts if s > 1} | {T})
    return starts, ends


def _window(s: int, e: int) -> Interval:
    """Fitted window of regime block [s, e]: the transitions with target in [s, e]."""
    return Interval(max(s - 1, 1), e)


_EPS = float(np.finfo(np.float64).eps)
_GRAD_FLOATS = 2**13  # floats per batch of running gradients in _zero_gradient


def _cost_rows(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    counts: CostCache,
):
    """Yield (s, block_ends, costs, converged, iterations) for each start, s ascending.

    ``costs[k]`` is the cost of block (s, block_ends[k]), ``converged[k]``
    whether its fit converged and ``iterations[k]`` the fit's kernel
    iterations, 0 for a screened window.  The sweep's counts go to
    ``counts``.  Each start is swept on its own, its ends in increasing
    order, through the three levels of the module docstring:

    * For all ends at once: the row bound, a cumulative sum over the start's
      columns, and the zero-matrix nll cost0.  The column bound is summed
      only when the row bound leaves a window open, and only as far as the
      last such window.  cost0 adds the columns between consecutive ends one
      chunk at a time, in the same order whichever level settles the window.
    * For the windows the bounds leave open: the exact test on grad0, the
      gradient at zero, an M x M running sum that adds every column since
      the previous open window in one matmul (``_zero_gradient``).
    * For each window the exact test leaves open: the solver, warm-started
      from the fit of the start's previous window if the solver ran there,
      else from zero.
    """
    g_all, xp_all = design_matrices(series, config)
    ev = math.exp(config.v)
    resid = ev - xp_all  # grad0 over window W is sum_{t in W} r(t) g(t)^T
    zero_cols = (ev - config.v * xp_all).sum(axis=0)  # zero-matrix nll per column
    abs_r = np.abs(resid)
    row_terms = abs_r * g_all.max(axis=0)  # |r_m(t)| max_j g_j(t)
    col_terms = abs_r.max(axis=0) * g_all  # max_m |r_m(t)| g_j(t)
    del abs_r
    T = series.T
    # by window size n (columns): the bound's slack and the threshold
    sizes = np.arange(T + 1)
    slack = 1.0 + 4.0 * sizes * _EPS
    limit = opts.lam * np.sqrt(sizes + 1)
    starts, ends = _grid_points(T, opts)
    all_ends = np.asarray(ends)
    # chunks[k]: the zero-matrix nll of the columns between ends k-1 and k
    chunks = np.array(
        [0.0] + [zero_cols[a - 1 : b - 1].sum() for a, b in zip(ends, ends[1:])]
    )
    solver = opts.solver
    first = 0  # ends[first] is the start's first admissible end
    for s in starts:
        while first < len(ends) and ends[first] - s + 1 < opts.min_segment:
            first += 1
        if first == len(ends):
            return
        block_ends = all_ends[first:]
        counts.misses += len(block_ends)
        counts.entries += len(block_ends)
        lo = max(s - 1, 1)
        c0 = lo - 1  # window [lo, e] holds the columns [c0, e - 1)
        n = block_ends - lo  # columns per window
        slack_n, limit_n = slack[n], limit[n]
        bounded = np.cumsum(row_terms[:, c0:], axis=1).max(axis=0)[n - 1] * slack_n <= limit_n
        # min(rb, cb) * slack <= limit iff either one passes: rounding is monotone
        left = (~bounded).nonzero()[0]
        if len(left):
            span = c0 + n[left[-1]]
            col = np.cumsum(col_terms[:, c0:span], axis=1).max(axis=0)[n[left] - 1]
            bounded[left] = col * slack_n[left] <= limit_n[left]
            left = left[~bounded[left]]
        zero = bounded.copy()
        if len(left):
            zero[left] = _zero_gradient(resid, g_all, c0, block_ends[left] - 1, limit_n[left])
        cost0 = chunks[first:].copy()
        cost0[0] = zero_cols[c0 : ends[first] - 1].sum()
        costs = np.cumsum(cost0)
        flags = np.ones(len(block_ends), dtype=bool)
        iters = np.zeros(len(block_ends), dtype=np.int64)
        counts.bounded += int(np.count_nonzero(bounded))
        counts.screened += int(np.count_nonzero(zero))
        warm, fitted = None, -1  # fitted: the last window the solver ran on
        for k in (~zero).nonzero()[0].tolist():
            e = ends[first + k]
            thr = opts.lam * math.sqrt(e - lo + 1)
            g = g_all[:, c0 : e - 1]
            xp = xp_all[:, c0 : e - 1]
            A, f_rows, its, converged, _ = _fit_kernel(
                g, xp, config.v, thr, solver, warm if fitted == k - 1 else None
            )
            warm, fitted = A, k
            costs[k] = float(f_rows.sum()) + thr * float(np.abs(A).sum())
            flags[k] = converged.all()
            iters[k] = its.max()
        yield s, block_ends, costs, flags, iters


def _zero_gradient(
    resid: np.ndarray,
    g_all: np.ndarray,
    c0: int,
    stops: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """The exact zero test of the windows holding the columns [c0, stop).

    Returns, for each of the ascending ``stops``, whether max |grad0| is at
    most its limit.  grad0 is an M x M running sum: each window adds the
    columns since the previous one, in one matmul, or as their outer product
    when that is one column, which is the same product.  The steps of a batch
    of windows are made together and the max taken over all their sums.
    """
    M = resid.shape[0]
    per = max(1, _GRAD_FLOATS // (M * M))
    passed = np.empty(len(stops), dtype=bool)
    grad0 = np.zeros((M, M))
    begin = c0
    for lo in range(0, len(stops), per):
        ends = stops[lo : lo + per]
        begins = np.concatenate(([begin], ends[:-1]))
        sums = np.empty((len(ends), M, M))
        # einsum, unlike a broadcast multiply, makes the products in place
        np.einsum("ik,jk->kij", resid[:, begins], g_all[:, begins], out=sums)
        for i in (ends - begins > 1).nonzero()[0].tolist():
            a, b = begins[i], ends[i]
            sums[i] = resid[:, a:b] @ g_all[:, a:b].T
        for step in sums:
            np.add(grad0, step, out=step)
            grad0 = step
        grad0 = grad0.copy()  # the batch's last sum, before abs overwrites it
        np.abs(sums, out=sums)
        passed[lo : lo + per] = sums.reshape(len(ends), -1).max(axis=1) <= limits[lo : lo + per]
        begin = ends[-1]
    return passed


def _refit_segments(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    partition: list[Interval],
) -> tuple[SegmentFit, ...]:
    return tuple(
        fit_interval(series, _window(b.start, b.end), opts.lam, config, opts.solver)
        for b in partition
    )


def _report(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cps: tuple[int, ...],
    stats: dict,
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
        cache_stats=stats,
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
    lexicographically smallest change points, up to the rounding of near ties
    described in the module docstring.  Solver non-convergence inside
    any interval fit is propagated as a count, never an abort.  A ``cache``
    keeps the rows of the first sweep and replays them on later calls (see
    ``CostCache``).
    """
    t0 = time.perf_counter()
    if cache is None:
        cache = CostCache()  # counts only
        rows = _cost_rows(series, config, opts, cache)
    else:
        cache.bind(_context(series, config, opts))
        if cache.rows is None:
            cache.rows = list(_cost_rows(series, config, opts, cache))
        rows = cache.rows
    nonconverged = 0

    def tally():
        nonlocal nonconverged
        for row in rows:
            nonconverged += int(np.count_nonzero(~row[3]))
            yield row

    cps = _bellman(tally(), series.T, opts, cache)
    return _report(series, config, opts, cps, cache.stats(), nonconverged, t0)


def _bellman(rows, T: int, opts: DetectOptions, counts: CostCache) -> tuple[int, ...]:
    """Change points of the best partition of [1, T] over the cost ``rows``.

    ``rows`` yields (s, block_ends, costs, ...) with s ascending, as
    ``_cost_rows`` does, and is always read to its end.  Each block cost
    that the recursion reads is counted as a hit on ``counts``.
    """
    gamma = opts.gamma
    short = T < 2 * opts.min_segment  # no split fits: read no cost, keep [1, T]
    # For every end e, the best partition of [1, e] found so far: its
    # objective, its number of blocks and the start of its last block.
    value = np.full(T + 1, np.inf)
    blocks = np.zeros(T + 1, dtype=np.int64)
    last = np.zeros(T + 1, dtype=np.int64)
    reached = np.zeros(T + 1, dtype=bool)
    value[0], reached[0] = 0.0, True
    for s, block_ends, costs, *_ in rows:
        if short or not reached[s - 1]:
            continue
        # B[s-1] is final: every block that ends at s-1 starts before s.
        counts.hits += len(block_ends)
        cand = (value[s - 1] + costs) + gamma
        old, seen = value[block_ends], reached[block_ends]
        better = ~seen | (cand < old)
        # An exact tie on value goes to fewer blocks, then to the smaller
        # change points, as the tuple order (value, blocks, points) has it.
        ties = (seen & (cand == old)).nonzero()[0]
        if len(ties):
            mine, theirs = blocks[s - 1] + 1, blocks[block_ends[ties]]
            better[ties[mine < theirs]] = True
            for k in ties[mine == theirs].tolist():
                # reached by an earlier start, so last[e] < s
                better[k] = _smaller_points(last, s, int(last[block_ends[k]]))
        won = block_ends[better]
        value[won] = cand[better]
        blocks[won] = blocks[s - 1] + 1
        last[won] = s
        reached[won] = True
    return _change_points(last, T)


def _change_points(last: np.ndarray, e: int) -> tuple[int, ...]:
    """Change points of the best partition of [1, e], from last-block starts."""
    points = []
    while e > 0:
        s = int(last[e])
        if s > 1:
            points.append(s)
        e = s - 1
    return tuple(reversed(points))


def _smaller_points(last: np.ndarray, s: int, t: int) -> bool:
    """Whether ending in a block that starts at s gives smaller change points.

    The two partitions end in blocks that start at s and at t and have equal
    block counts, so walking both back one block at a time keeps them at the
    same depth.  Once their block starts meet, the earlier change points are
    shared, and the last pair that differed is the first difference.
    """
    smaller = False
    while s != t:
        smaller = s < t
        s, t = int(last[s - 1]), int(last[t - 1])
    return smaller
