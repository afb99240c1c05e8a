"""Shared helpers for the test suite, and the exhaustive validation oracle."""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from seppchange import CoefficientSequence, CostCache, ModelConfig, generate_series
from seppchange.cli import _run_replication
from seppchange.detect import _cost_rows, _grid_points, _report

ENUMERATION_GUARD = 2**20


def random_feasible_matrix(rng, m, max_norm=1.0):
    a = rng.normal(size=(m, m))
    norms = np.abs(a).sum(axis=1)
    target = rng.uniform(0.2, max_norm, size=m)
    return a * (target / norms)[:, None]


def random_piecewise_sequence(rng, T, m, max_k=2):
    k = int(rng.integers(0, max_k + 1))
    cuts = sorted(rng.choice(np.arange(2, T + 1), size=k, replace=False)) if k else []
    segments = []
    prev = None
    for s in [1] + [int(c) for c in cuts]:
        while True:
            a = random_feasible_matrix(rng, m)
            if prev is None or np.linalg.norm(a - prev) > 0:
                break
        segments.append((s, a))
        prev = a
    return CoefficientSequence(tuple(segments))


def random_instance(rng, T=None, m=None):
    """A random piecewise-stationary series plus its model config."""
    T = T if T is not None else int(rng.integers(6, 13))
    m = m if m is not None else int(rng.integers(2, 4))
    seq = random_piecewise_sequence(rng, T, m)
    config = ModelConfig(v=float(rng.uniform(-0.2, 0.6)), clip=float(rng.uniform(2, 5)))
    series = generate_series(seq, config, T, seed=int(rng.integers(0, 2**32)))
    return series, config


def run_setting_a_batch(rho, reps, seed, grid=1, jobs=2):
    """Simulate-detect-evaluate replications of setting (a) at default tuning."""
    payloads = [
        {
            "setting": "a",
            "rho": rho,
            "T": None,
            "M": None,
            "seed": seed,
            "rep": rep,
            "lam": None,
            "gamma": None,
            "min_segment": 2,
            "grid": grid,
            "tol": 1e-8,
            "max_iter": 5000,
            "log_base": float(np.e),
        }
        for rep in range(reps)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_replication, payloads))
    return [_run_replication(p) for p in payloads]


def count_partitions(T, opts):
    """Number of admissible partitions of [1, T] under min_segment and grid."""
    starts, ends = _grid_points(T, opts)
    n = {0: 1}
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


def cost_table(series, config, opts):
    """{(s, e): (cost, converged, iterations)} of every block, drained from the sweep."""
    table = {}
    for s, *row in _cost_rows(series, config, opts, CostCache()):
        for e, cost, ok, its in zip(*(column.tolist() for column in row)):
            table[s, e] = (cost, ok, its)
    return table


def table_rows(table, T, opts):
    """Rows of a {(s, e): cost} table, in the sweep's shape, for ``_bellman``."""
    starts, ends = _grid_points(T, opts)
    for s in starts:
        block_ends = np.array([e for e in ends if e - s + 1 >= opts.min_segment], dtype=np.int64)
        if not len(block_ends):
            return
        costs = np.array([table[s, e] for e in block_ends.tolist()])
        flags, iters = np.ones(len(costs), dtype=bool), np.zeros(len(costs), dtype=np.int64)
        yield s, block_ends, costs, flags, iters


def best_partition(table, T, opts):
    """Change points of the best partition of [1, T] over a {(s, e): cost} table.

    Every admissible partition is enumerated and its objective folded
    cost + gamma block by block, in the recursion's accumulation order; whole
    objectives are compared, then block counts, then change points.  Refuses
    instances with more than ENUMERATION_GUARD admissible partitions.
    """
    n_parts = count_partitions(T, opts)
    if n_parts > ENUMERATION_GUARD:
        raise ValueError(
            f"{n_parts} admissible partitions exceed the enumeration guard ({ENUMERATION_GUARD})"
        )
    if T < 2 * opts.min_segment:
        return ()
    starts, ends = _grid_points(T, opts)
    start_set = set(starts)
    best = None
    # Depth-first over block boundaries.
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
            if e - s + 1 >= opts.min_segment:
                points = cps + (s,) if s > 1 else cps
                stack.append((e, value + table[s, e] + opts.gamma, k + 1, points))
    return best[2]


def exhaustive_search(series, config, opts):
    """The report of the enumerated minimizer over the sweep's block costs.

    A validation oracle for ``detect``: it shares the sweep and the refit but
    not the recursion.  Where a prefix lost by a rounding residue that a
    later block absorbs, the two can return different float minimizers (see
    the ``seppchange.detect`` module docstring).
    """
    t0 = time.perf_counter()
    full = cost_table(series, config, opts)
    cps = best_partition({key: entry[0] for key, entry in full.items()}, series.T, opts)
    nonconverged = sum(not entry[1] for entry in full.values())
    return _report(series, config, opts, cps, {}, nonconverged, t0)
