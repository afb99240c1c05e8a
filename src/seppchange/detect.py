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
smallest change-point vector.  Block costs come as one row per start, an
array over the start's ends, and consecutive fits along a start's sweep share
warm starts, which is what makes the O(T^2) scan affordable.  Each row goes
into the recursion as soon as its start is swept: the recursion runs
push-style over starts, and B[s-1] is final when start s comes up, because
every block that ends at s-1 starts before s, so start s relaxes the best
value seen so far for all of its ends with one vector operation on its row.
So ``detect`` keeps no cost table: without a cache it holds the O(T) state
of the recursion and the current row, and only a ``CostCache`` passed in
keeps the rows.  The float operations are those of the textbook pull-style
min, in the same order.  An exact tie on value goes to fewer blocks,
compared as a vector, and a tie on blocks too to the smaller change points,
found in Python by walking both partitions back along their last-block
starts until they meet.

Values are floats folded block by block, and that fold is not associative:
a prefix that loses by a rounding residue can round level with the winner
once a later block is added.  The recursion has then dropped it, so where
partitions tie in real arithmetic (gamma = 0 with every fit zero, say) the
returned partition is a minimizer of the float objective but not always the
one with the fewest blocks.  ``exhaustive_search`` enumerates every
admissible partition through the same cost cache, compares whole float
objectives, and exists to validate ``detect``.

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
    """Memo of costs keyed by (start, end), stored in per-start rows.

    A cache instance is bound to one (series, lam, config, solver) context and
    to one key meaning: regime blocks for detect() and exhaustive_search(),
    fitted intervals for interval_cost().  It refuses reuse under a different
    context, so detect() and exhaustive_search() can safely share one instance.

    ``detect`` needs no cache: without one it streams each start's cost row
    into the recursion and keeps none of them.  A cache passed in is both a
    source and a sink.  Each start that is swept or ``put`` owns one row: a
    cost array (NaN where no cost is stored), a converged array and an
    iterations array, all indexed by end - start.  A row is allocated on its
    start's first sweep or ``put`` and grown when a ``put`` reaches past it, so
    memory is O(swept starts x T).  A start whose row holds all of its blocks
    is read instead of swept; a start with blocks missing is swept, only the
    missing blocks are written, and the recursion reads the row as the cache
    then holds it.  Entries are (cost, converged, iterations) and are never
    evicted.  ``hits`` and ``misses`` count block lookups, one per block,
    whether looked up alone or as part of a row.  ``screened`` counts the
    block costs the sweep took from the zero test instead of a fit, and
    ``bounded`` those among them that the bound settled without the exact
    test; each screened cost is also counted as a miss.  A detect without a
    cache reports the same counts as one with a fresh cache.
    """

    def __init__(self) -> None:
        self._rows: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._entries = 0
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

    def _row(self, s: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row of start s, allocated or grown to hold at least ``size`` ends."""
        row = self._rows.get(s)
        if row is None or len(row[0]) < size:
            grown = (
                np.full(size, np.nan),
                np.zeros(size, dtype=bool),
                np.zeros(size, dtype=np.int64),
            )
            if row is not None:
                for new, old in zip(grown, row):
                    new[: len(old)] = old
            row = self._rows[s] = grown
        return row

    def _lookup(self, key: tuple[int, int]) -> tuple[float, bool, int] | None:
        s, e = key
        row = self._rows.get(s)
        d = e - s
        if row is None or not 0 <= d < len(row[0]) or math.isnan(row[0][d]):
            return None
        return float(row[0][d]), bool(row[1][d]), int(row[2][d])

    def get(self, key: tuple[int, int]):
        entry = self._lookup(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple[int, int], entry: tuple[float, bool, int]) -> None:
        s, e = key
        cost, converged, iterations = entry
        if e < s:
            raise ValueError(f"block {key} ends before it starts")
        if math.isnan(cost):
            raise ValueError(f"block {key}: a NaN cost cannot be stored")
        costs, flags, iters = self._row(s, e - s + 1)
        self._entries += math.isnan(costs[e - s])
        costs[e - s], flags[e - s], iters[e - s] = cost, converged, iterations

    def cost(self, key: tuple[int, int]) -> float:
        """The cost of a stored block; raises KeyError for a block never swept."""
        self.hits += 1
        entry = self._lookup(key)
        if entry is None:
            raise KeyError(key)
        return entry[0]

    def items(self):
        """Yield ((start, end), (cost, converged, iterations)) for every stored block."""
        for s, (costs, flags, iters) in self._rows.items():
            for d in (~np.isnan(costs)).nonzero()[0].tolist():
                yield (s, s + d), (float(costs[d]), bool(flags[d]), int(iters[d]))

    def stats(self) -> dict:
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "entries": int(self._entries),
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
_GRAD_FLOATS = 2**13  # floats per batch of running gradients in _zero_gradient


def _cost_rows(
    series: EventSeries,
    config: ModelConfig,
    opts: DetectOptions,
    cache: CostCache,
    keep: bool = True,
):
    """Yield (s, block_ends, costs, nonconverged) for each start, s ascending.

    ``costs[k]`` is the cost of block (s, block_ends[k]) and ``nonconverged``
    the number of those costs, among the ones computed here, whose fit did
    not converge.  Each start is swept on its own, its ends in increasing
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

    With ``keep`` the cache is both source and sink: a start whose blocks
    are all stored is read, not swept; otherwise its blocks are swept, only
    the missing ones are written into the start's row, and the row is
    yielded as the cache then holds it.  Without ``keep`` nothing is stored
    and every start is swept; the cache only counts, as if it stored.
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
        cells = block_ends - s
        if keep:
            row_costs, row_flags, row_iters = cache._row(s, T - s + 1)
            new = np.isnan(row_costs[cells])
            fresh = int(np.count_nonzero(new))
            cache.hits += len(cells) - fresh
            if not fresh:
                yield s, block_ends, row_costs[cells], 0
                continue
        else:
            new = np.ones(len(cells), dtype=bool)
            fresh = len(cells)
        cache.misses += fresh
        cache._entries += fresh
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
        flags = np.ones(len(cells), dtype=bool)
        iters = np.zeros(len(cells), dtype=np.int64)
        n_bounded = int(np.count_nonzero(bounded & new))
        screened = int(np.count_nonzero(zero & new))
        nonconverged = 0
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
            if new[k] and not flags[k]:
                nonconverged += 1
        cache.bounded += n_bounded
        cache.screened += screened
        if keep:
            put = cells[new]
            row_costs[put], row_flags[put], row_iters[put] = costs[new], flags[new], iters[new]
            costs = row_costs[cells]
        yield s, block_ends, costs, nonconverged


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
    lexicographically smallest change points, up to the rounding of near ties
    described in the module docstring.  Solver non-convergence inside
    any interval fit is propagated as a count, never an abort.
    """
    t0 = time.perf_counter()
    T = series.T
    keep = cache is not None
    if cache is None:
        cache = CostCache()  # counts only
    cache.bind(_context("block", series, config, opts.lam, opts.solver))
    rows = _cost_rows(series, config, opts, cache, keep)
    if T < 2 * opts.min_segment:
        nonconverged = sum(bad for *_, bad in rows)
        return _report(series, config, opts, (), cache, nonconverged, t0)

    gamma = opts.gamma
    # For every end e, the best partition of [1, e] found so far: its
    # objective, its number of blocks and the start of its last block.
    value = np.full(T + 1, np.inf)
    blocks = np.zeros(T + 1, dtype=np.int64)
    last = np.zeros(T + 1, dtype=np.int64)
    reached = np.zeros(T + 1, dtype=bool)
    value[0], reached[0] = 0.0, True
    nonconverged = 0
    for s, block_ends, costs, bad in rows:
        nonconverged += bad
        if not reached[s - 1]:
            continue
        # B[s-1] is final: every block that ends at s-1 starts before s.
        cache.hits += len(block_ends)
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
    return _report(series, config, opts, _change_points(last, T), cache, nonconverged, t0)


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
    tie-breaking as detect(), applied to whole partitions; exists solely as a
    validation oracle and refuses instances with more than 2**20 admissible
    partitions.  Where a prefix lost by a rounding residue that a later block
    absorbs, the two can return different float minimizers (see the module
    docstring).
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
    nonconverged = sum(bad for *_, bad in _cost_rows(series, config, opts, cache))

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
