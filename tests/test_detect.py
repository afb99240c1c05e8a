import importlib
import math
import tracemalloc

import numpy as np
import pytest
from _support import best_partition, cost_table, count_partitions, exhaustive_search, table_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from seppchange import (
    ChangePointSet,
    CoefficientSequence,
    CostCache,
    DetectOptions,
    EventSeries,
    Interval,
    ModelConfig,
    ScenarioSpec,
    SolverOptions,
    build_scenario,
    default_tuning,
    detect,
    generate_series,
    induced_partition,
    fit_interval,
    nll,
    nll_gradient,
)
from seppchange.detect import _bellman, _window
from seppchange.glm import _fit_kernel, design_matrices


def random_instance(rng, T=None, m=None):
    """A random piecewise-stationary series plus its config."""
    T = T if T is not None else int(rng.integers(6, 13))
    m = m if m is not None else int(rng.integers(2, 4))
    k = int(rng.integers(0, 3))
    cuts = sorted(rng.choice(np.arange(2, T + 1), size=k, replace=False)) if k else []
    segments = []
    prev = None
    starts = [1] + [int(c) for c in cuts]
    for s in starts:
        while True:
            a = rng.normal(size=(m, m))
            a *= rng.uniform(0.2, 1.0, size=m)[:, None] / np.abs(a).sum(axis=1)[:, None]
            if prev is None or np.linalg.norm(a - prev) > 0:
                break
        segments.append((s, a))
        prev = a
    seq = CoefficientSequence(tuple(segments))
    config = ModelConfig(v=float(rng.uniform(-0.2, 0.6)), clip=float(rng.uniform(2, 5)))
    series = generate_series(seq, config, T, seed=int(rng.integers(0, 2**32)))
    return series, config


class TestDefaultTuning:
    def test_formulas(self):
        lam, gamma = default_tuning(300, 30)
        assert lam == pytest.approx(90 * math.log(9000), rel=1e-15)
        assert gamma == pytest.approx(math.log(30) ** 2 / 2, rel=1e-15)

    def test_degenerate_warns(self):
        with pytest.warns(UserWarning):
            lam, gamma = default_tuning(1, 1)
        assert lam == 0.0 and gamma == 0.0

    def test_monotone_in_T_and_M(self):
        base = default_tuning(100, 10)[0]
        assert default_tuning(200, 10)[0] > base
        assert default_tuning(100, 20)[0] > base

    def test_log_base_knob(self):
        lam, gamma = default_tuning(300, 30, base=10)
        assert lam == pytest.approx(90 * math.log10(9000), rel=1e-12)
        assert gamma == pytest.approx(math.log10(30) ** 2 / 2, rel=1e-12)


class TestIntervalCost:
    def test_zero_data_closed_form(self):
        series = EventSeries(np.zeros((3, 12), dtype=int))
        config = ModelConfig(v=0.0, clip=2.0)
        for lam in (0.0, 1.0, 50.0):
            cost = fit_interval(series, Interval(2, 9), lam, config).cost
            assert cost == pytest.approx(3 * 7, rel=1e-12)  # M*(e-s), A=0 optimal

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(1)
        series = EventSeries(rng.integers(0, 5, size=(2, 15)))
        config = ModelConfig(v=0.1, clip=3.0)
        c1 = fit_interval(series, Interval(1, 15), 2.0, config).cost
        c2 = fit_interval(series, Interval(1, 15), 2.0, config).cost
        assert c1 == c2


class TestDetect:
    def test_huge_gamma_single_block(self):
        rng = np.random.default_rng(3)
        series, config = random_instance(rng, T=12, m=2)
        rep = detect(series, config, DetectOptions(lam=1.0, gamma=1e12))
        assert rep.change_points.points == ()
        assert len(rep.segments) == 1

    def test_no_split_when_too_short(self):
        rng = np.random.default_rng(4)
        series, config = random_instance(rng, T=7, m=2)
        rep = detect(series, config, DetectOptions(lam=1.0, gamma=0.1, min_segment=4))
        assert rep.change_points.points == ()

    def test_zero_data_tie_prefers_fewer_blocks(self):
        # On all-zero data every admissible partition scores M*(T-1) + gamma*(K+1);
        # gamma = 0 makes them all tie, so the fewest-blocks rule must win, and
        # any gamma > 0 (here gamma = M) prefers the single block outright.
        series = EventSeries(np.zeros((3, 10), dtype=int))
        config = ModelConfig(v=0.0, clip=2.0)
        cache = CostCache()
        for gamma in (0.0, 3.0):
            opts = DetectOptions(lam=1.0, gamma=gamma)
            rep = detect(series, config, opts, cache=cache)
            assert rep.change_points.points == ()
            oracle = exhaustive_search(series, config, opts)
            assert oracle.change_points.points == ()
            assert rep.total_objective == pytest.approx(
                oracle.total_objective, rel=1e-12
            )
            assert rep.total_objective == pytest.approx(3 * 9 + gamma, rel=1e-12)

    def test_zero_data_lexicographic_tie_break(self):
        # Zero data never favours a split, so the tie among equal-K partitions is
        # staged with the block-cost table cost(s, e) = M*(e-s).  Then every
        # partition scores M*(T-1-K) + gamma*(K+1), gamma < M makes every maximal
        # split profitable, and with T=7 the three two-change-point partitions
        # tie, so the smallest change points must win.
        M, T = 2, 7
        series = EventSeries(np.zeros((M, T), dtype=int))
        config = ModelConfig(v=0.0, clip=2.0)
        opts = DetectOptions(lam=1.0, gamma=1.0)
        assert detect(series, config, opts).change_points.points == ()
        table = {(s, e): float(M * (e - s)) for s in range(1, T + 1) for e in range(s + 1, T + 1)}
        assert _bellman(table_rows(table, T, opts), T, opts, CostCache()) == (3, 5)
        assert best_partition(table, T, opts) == (3, 5)

    @pytest.mark.parametrize(
        "cheap, points",
        [
            # [1,2]+[3,4]+[5,8] and [1,6]+[7,8] both score 0: fewer blocks win
            ({(1, 2), (3, 4), (5, 8), (1, 6), (7, 8)}, (7,)),
            # [1,3]+[4,5]+[6,8] and [1,2]+[3,6]+[7,8]: the smaller points win
            ({(1, 3), (4, 5), (6, 8), (1, 2), (3, 6), (7, 8)}, (3, 7)),
        ],
    )
    def test_tie_won_by_a_later_start(self, cheap, points):
        # Every block costs 5 except the cheap ones, which cost 0, and gamma is
        # 0.  The partition that reaches T first, from the earlier start, ties
        # with one from a later start that the tie-break prefers, so the later
        # start must replace it.
        T = 8
        opts = DetectOptions(lam=1.0, gamma=0.0)
        table = {
            (s, e): 0.0 if (s, e) in cheap else 5.0
            for s in range(1, T + 1)
            for e in range(s + 1, T + 1)
        }
        assert _bellman(table_rows(table, T, opts), T, opts, CostCache()) == points
        assert best_partition(table, T, opts) == points

    def test_bellman_without_a_split(self):
        # Below 2 * min_segment no partition has two blocks.
        opts = DetectOptions(lam=1.0, gamma=0.0, min_segment=3)
        table = {(s, e): 0.0 for s in range(1, 6) for e in range(s + 1, 6)}
        counts = CostCache()
        assert _bellman(table_rows(table, 5, opts), 5, opts, counts) == ()
        assert counts.hits == 0

    def test_objective_accounting(self):
        rng = np.random.default_rng(5)
        series, config = random_instance(rng, T=12, m=3)
        opts = DetectOptions(lam=0.5, gamma=1.0)
        rep = detect(series, config, opts)
        recomputed = 0.0
        for seg in rep.segments:
            recomputed = recomputed + seg.cost + opts.gamma
        assert rep.total_objective == pytest.approx(recomputed, rel=1e-9)
        # the fitted windows cover the transitions 1 -> 2, ..., T-1 -> T exactly once
        assert rep.segments[0].interval.start == 1
        assert rep.segments[-1].interval.end == series.T
        for a, b in zip(rep.segments, rep.segments[1:]):
            assert b.interval.start == a.interval.end

    def test_every_transition_counted_once(self):
        # With every fit forced to zero, splitting a block must not drop the
        # transition into its first point: the partition's fit term is the
        # zero-matrix nll of the whole series, so no split pays for its gamma.
        M, T = 3, 20
        rng = np.random.default_rng(0)
        series = EventSeries(rng.integers(0, 4, size=(M, T)))
        config = ModelConfig(v=0.3, clip=3.0)
        rep = detect(series, config, DetectOptions(lam=1e6, gamma=0.5))
        assert rep.change_points.points == ()
        fit_term = sum(seg.unpenalized_nll for seg in rep.segments)
        assert fit_term == pytest.approx(
            nll(np.zeros((M, M)), series, Interval(1, T), config), rel=1e-12
        )

    def test_determinism(self):
        rng = np.random.default_rng(6)
        series, config = random_instance(rng, T=11, m=2)
        opts = DetectOptions(lam=0.7, gamma=0.5)
        r1 = detect(series, config, opts)
        r2 = detect(series, config, opts)
        assert r1.change_points.points == r2.change_points.points
        assert r1.total_objective == r2.total_objective

    def test_min_segment_respected(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            series, config = random_instance(rng, T=14, m=2)
            rep = detect(series, config, DetectOptions(lam=0.3, gamma=0.05, min_segment=3))
            blocks = induced_partition(rep.change_points, series.T)
            assert all(block.length >= 3 for block in blocks)

    def test_nonconvergence_propagates_never_aborts(self):
        rng = np.random.default_rng(8)
        series, config = random_instance(rng, T=12, m=3)
        opts = DetectOptions(
            lam=0.01, gamma=0.5, solver=SolverOptions(max_iter=1)
        )
        rep = detect(series, config, opts)
        assert rep.nonconverged_fits > 0

    def test_gamma_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            series, config = random_instance(rng, T=14, m=2)
            ks = []
            for gamma in (0.0, 0.5, 2.0, 8.0, 40.0):
                rep = detect(series, config, DetectOptions(lam=0.5, gamma=gamma))
                ks.append(rep.K)
            assert all(a >= b for a, b in zip(ks, ks[1:]))


def default_series():
    """The benchmark's series: setting (a), rho = 0.35, seed 20260810, rep 0."""
    seq, config, T = build_scenario(ScenarioSpec("a", rho=0.35))
    return generate_series(seq, config, T, seed=20260810, replication=0), config


def setting_b_series():
    """A short setting (b) series (T = 90, M = 40)."""
    seq, config, T = build_scenario(ScenarioSpec("b", T=90, seed=5))
    return generate_series(seq, config, T, seed=5, replication=0), config


def exact_rule_costs(series, config, opts):
    """Block costs by the zero test alone: the per-window exact rule, no bound.

    For each start, grad0 and cost0 are running sums extended by the columns
    of each new end, every window runs the exact KKT test at zero, and the
    windows that fail it run the solver, warm-started from the previous
    window's fit (zero after a screened window).  Returns {(s, e): (cost,
    converged, iterations)}; a screened window has 0 iterations.
    """
    g_all, xp_all = design_matrices(series, config)
    ev = math.exp(config.v)
    zero_cols = (ev - config.v * xp_all).sum(axis=0)
    T, M = series.T, series.M
    starts = list(range(1, T + 1, opts.grid))
    ends = sorted({s - 1 for s in starts if s > 1} | {T})
    out = {}
    for s in starts:
        warm = None
        lo = max(s - 1, 1)
        summed = lo - 1
        grad0 = np.zeros((M, M))
        cost0 = 0.0
        for e in ends:
            if e - s + 1 < opts.min_segment:
                continue
            grad0 += (ev - xp_all[:, summed : e - 1]) @ g_all[:, summed : e - 1].T
            cost0 += float(zero_cols[summed : e - 1].sum())
            summed = e - 1
            thr = opts.lam * math.sqrt(e - lo + 1)
            if np.abs(grad0).max() <= thr:
                warm = None
                out[(s, e)] = (cost0, True, 0)
                continue
            A, f_rows, iters, converged, _ = _fit_kernel(
                g_all[:, lo - 1 : e - 1], xp_all[:, lo - 1 : e - 1], config.v, thr,
                opts.solver, warm,
            )
            warm = A
            cost = float(f_rows.sum()) + thr * float(np.abs(A).sum())
            out[(s, e)] = (cost, bool(converged.all()), int(iters.max()))
    return out


def min_bound_settled(series, config, opts):
    """How many admissible blocks the bound settles, by the min(row, col) rule.

    For each start, the smaller of the row and column bounds, as cumulative
    sums gathered at every end, is inflated by the slack 1 + 4 n eps of a
    window of n columns and compared with lam * sqrt(n + 1).
    """
    g_all, xp_all = design_matrices(series, config)
    abs_r = np.abs(math.exp(config.v) - xp_all)
    row_terms = abs_r * g_all.max(axis=0)
    col_terms = abs_r.max(axis=0) * g_all
    eps = np.finfo(np.float64).eps
    starts = list(range(1, series.T + 1, opts.grid))
    ends = sorted({s - 1 for s in starts if s > 1} | {series.T})
    settled = 0
    for s in starts:
        block_ends = np.array([e for e in ends if e - s + 1 >= opts.min_segment], dtype=np.int64)
        if not len(block_ends):
            continue
        lo = max(s - 1, 1)
        n = block_ends - lo
        bound = np.minimum(
            np.cumsum(row_terms[:, lo - 1 :], axis=1)[:, n - 1].max(axis=0),
            np.cumsum(col_terms[:, lo - 1 :], axis=1)[:, n - 1].max(axis=0),
        )
        settled += int(np.count_nonzero(bound * (1.0 + 4.0 * n * eps) <= opts.lam * np.sqrt(n + 1)))
    return settled


def zero_regime_series(T=12, m=3):
    """A series whose only regime is A = 0: independent Poisson(e^v) counts."""
    config = ModelConfig(v=0.3, clip=3.0)
    seq = CoefficientSequence(((1, np.zeros((m, m))),))
    return generate_series(seq, config, T, seed=21), config


def mixed_series(T=14, m=3):
    """A zero regime followed by a strongly self-exciting one."""
    config = ModelConfig(v=0.2, clip=4.0)
    excite = 0.9 * np.eye(m)
    seq = CoefficientSequence(((1, np.zeros((m, m))), (T // 2 + 1, excite)))
    return generate_series(seq, config, T, seed=22), config


def admissible_blocks(T, min_segment):
    """Every block [s, e] of a grid-1 search."""
    return [(s, e) for s in range(1, T + 1) for e in range(s + min_segment - 1, T + 1)]


def median_screen_lam(series, config):
    """The median over windows of max|grad nll(0)| / sqrt|W|: about half screen."""
    zero = np.zeros((series.M, series.M))
    ratios = [
        np.abs(nll_gradient(zero, series, Interval(lo, e), config)).max()
        / math.sqrt(e - lo + 1)
        for lo in range(1, series.T)
        for e in range(lo + 1, series.T + 1)
    ]
    return float(np.median(ratios))


class TestZeroScreen:
    # Tight solver tolerance, so that warm-started sweep fits and cold fits
    # agree to well within 1e-9 on the windows that are not screened.
    SOLVER = SolverOptions(tol=1e-13)

    def sweep_vs_cold(self, series, config, opts):
        rep = detect(series, config, opts)
        table = cost_table(series, config, opts)
        blocks = admissible_blocks(series.T, opts.min_segment)
        assert len(blocks) == rep.cache_stats["entries"]
        for s, e in blocks:
            swept = table[s, e][0]
            cold = fit_interval(series, _window(s, e), opts.lam, config, self.SOLVER)
            assert swept == pytest.approx(cold.cost, rel=1e-9), (s, e)
        return rep

    def test_zero_regime_costs_equal_cold_fits(self):
        series, config = zero_regime_series()
        lam, gamma = default_tuning(series.T, series.M)
        opts = DetectOptions(lam=lam, gamma=gamma, solver=self.SOLVER)
        rep = self.sweep_vs_cold(series, config, opts)
        assert rep.change_points.points == ()

    def test_default_tuning_screens_every_fit(self):
        # Setting (a), rho = 0.35, seed 20260810, replication 0 (M = 30,
        # T = 300): at lam = 90 ln(TM) every one of its 44,850 windows passes
        # the zero test, so no window runs the solver, and the bound alone
        # settles some of them.
        series, config = default_series()
        lam, gamma = default_tuning(series.T, series.M)
        rep = detect(series, config, DetectOptions(lam=lam, gamma=gamma))
        stats = rep.cache_stats
        assert stats["misses"] == series.T * (series.T - 1) // 2
        assert 0 < stats["bounded"] <= stats["screened"] == stats["misses"]
        assert rep.nonconverged_fits == 0

    def test_mixed_costs_equal_cold_fits(self):
        series, config = mixed_series()
        lam = median_screen_lam(series, config)
        opts = DetectOptions(lam=lam, gamma=1.0, solver=self.SOLVER)
        rep = self.sweep_vs_cold(series, config, opts)
        # both paths ran: some windows were screened, some were fitted
        assert 0 < rep.cache_stats["screened"] < rep.cache_stats["entries"]
        assert rep.nonconverged_fits == 0

    def test_mixed_detect_equals_exhaustive(self):
        series, config = mixed_series()
        lam = median_screen_lam(series, config)
        for gamma in (0.5, 2.0, 8.0):
            opts = DetectOptions(lam=lam, gamma=gamma)
            got = detect(series, config, opts)
            want = exhaustive_search(series, config, opts)
            assert 0 < got.cache_stats["screened"] < got.cache_stats["misses"]
            assert got.change_points.points == want.change_points.points
            assert got.total_objective == pytest.approx(want.total_objective, rel=1e-12)

    @pytest.mark.parametrize("grid", [1, 7])
    @pytest.mark.parametrize("case", ["default", "setting_b", "mixed", "zero_regime"])
    def test_bound_screen_equals_exact_rule(self, case, grid):
        # The bound may settle a window only where the exact test settles it
        # too, so the screened set, the warm starts of the fitted windows and
        # therefore every cost, flag and iteration count are the exact rule's.
        # On the zero-regime series some starts run the solver, screen a
        # window and run the solver again, which must then start from zero.
        if case in ("mixed", "zero_regime"):
            series, config = mixed_series() if case == "mixed" else zero_regime_series(T=16)
            lam = median_screen_lam(series, config)
        else:
            series, config = default_series() if case == "default" else setting_b_series()
            lam = default_tuning(series.T, series.M)[0]
        opts = DetectOptions(lam=lam, gamma=1.0, grid=grid)
        want = exact_rule_costs(series, config, opts)
        stats = detect(series, config, opts).cache_stats
        got = cost_table(series, config, opts)
        assert stats["entries"] == len(want)
        assert got.keys() == want.keys()
        assert {k for k, v in got.items() if v[2] == 0} == {
            k for k, v in want.items() if v[2] == 0
        }
        assert 0 < stats["bounded"] <= stats["screened"]
        assert stats["bounded"] == min_bound_settled(series, config, opts)
        for key, (cost, converged, iterations) in want.items():
            assert got[key][1:] == (converged, iterations), key
            if grid == 1:
                assert got[key][0] == cost, key
            else:
                assert got[key][0] == pytest.approx(cost, rel=1e-12, abs=0), key
        if case in ("mixed", "zero_regime") and grid == 1:
            # all three levels ran: bound, exact test and solver
            assert stats["bounded"] < stats["screened"] < len(want)

    def test_window_inside_the_slack_reaches_the_exact_test(self):
        # One window, [1, 4], with r(t) = 1 - X(t+1) < 0 throughout: the bound
        # sum |r| g = 2*2 + 1*3 + 3*2 = 13 equals |grad nll(0)|.  At lam = 6.5
        # the threshold lam * sqrt(4) = 13 lies inside the bound's slack, so the
        # bound must leave the window to the exact test, which screens it.
        series = EventSeries(np.array([[2, 3, 2, 4]]))
        config = ModelConfig(v=0.0, clip=5.0)
        cold = fit_interval(series, Interval(1, 4), 6.5, config)
        assert not cold.matrix.any()
        for lam, bounded in ((6.5, 0), (6.5 * (1 + 1e-9), 1)):
            opts = DetectOptions(lam=lam, gamma=1.0, min_segment=4)
            stats = detect(series, config, opts).cache_stats
            assert (stats["screened"], stats["bounded"]) == (1, bounded)
            cost, converged, iterations = cost_table(series, config, opts)[1, 4]
            assert iterations == 0 and converged
            assert cost == pytest.approx(cold.cost, rel=1e-12)

    def test_only_the_column_bound_settles(self):
        # One window, [1, 3], of M = 2 units at v = 0: g(1) = e1, g(2) = e2,
        # r(1) = 1 - X(2) = (1, 0) and r(2) = 1 - X(3) = (1, 1).  The row
        # bound is max(1 + 1, 0 + 1) = 2, the column bound max(1, 1) = 1, and
        # max |grad nll(0)| = 1.  At lam * sqrt(3) = 1.5 the row bound leaves
        # the window open and the column bound settles it.
        series = EventSeries(np.array([[1, 0, 0], [0, 1, 0]]))
        config = ModelConfig(v=0.0, clip=5.0)
        opts = DetectOptions(lam=1.5 / math.sqrt(3), gamma=1.0, min_segment=3)
        assert min_bound_settled(series, config, opts) == 1
        stats = detect(series, config, opts).cache_stats
        assert (stats["screened"], stats["bounded"]) == (1, 1)
        cold = fit_interval(series, Interval(1, 3), opts.lam, config)
        assert not cold.matrix.any()
        cost, converged, iterations = cost_table(series, config, opts)[1, 3]
        assert iterations == 0 and converged
        assert cost == pytest.approx(cold.cost, rel=1e-12)
        # at a threshold below the column bound neither bound settles it
        low = DetectOptions(lam=0.9 / math.sqrt(3), gamma=1.0, min_segment=3)
        stats = detect(series, config, low).cache_stats
        assert stats["bounded"] == min_bound_settled(series, config, low) == 0

    def test_boundary_gradient_is_screened(self):
        # Window [1, 4] of this series has grad nll(0) = sum (1 - X(t+1)) X(t)
        # = -2 + 3 + 0 = 1 at v = 0, and lam * sqrt(4) = 1 at lam = 0.5: the
        # soft-threshold maps that coordinate to zero, so the screen must too.
        series = EventSeries(np.array([[1, 3, 0, 2]]))
        config = ModelConfig(v=0.0, clip=5.0)
        opts = DetectOptions(lam=0.5, gamma=1.0)
        cold = fit_interval(series, Interval(1, 4), opts.lam, config)
        assert not cold.matrix.any()
        cost, converged, iterations = cost_table(series, config, opts)[1, 4]
        assert iterations == 0 and converged
        assert cost == pytest.approx(cold.cost, rel=1e-12)


class TestCostPaths:
    """detect streams its cost rows without a cache and stores them with one."""

    @pytest.mark.parametrize(
        "case, grid", [("default", 1), ("default", 7), ("mixed", 1), ("lam400", 30)]
    )
    def test_without_cache_equals_fresh_cache(self, case, grid):
        if case == "mixed":
            series, config = mixed_series()
            opts = DetectOptions(lam=median_screen_lam(series, config), gamma=1.0, grid=grid)
        else:
            series, config = default_series()
            lam, gamma = default_tuning(series.T, series.M)
            opts = DetectOptions(lam=400.0 if case == "lam400" else lam, gamma=gamma, grid=grid)
        streamed = detect(series, config, opts)
        cached = detect(series, config, opts, CostCache())
        assert streamed.change_points.points == cached.change_points.points
        assert streamed.total_objective.hex() == cached.total_objective.hex()
        assert streamed.cache_stats == cached.cache_stats
        assert streamed.nonconverged_fits == cached.nonconverged_fits

    def test_filled_cache_runs_no_solver(self, monkeypatch):
        series, config = mixed_series()
        opts = DetectOptions(lam=median_screen_lam(series, config), gamma=1.0)
        cache = CostCache()
        first = detect(series, config, opts, cache)
        assert cache.screened < cache.stats()["entries"]  # the solver ran

        def no_solver(*args, **kwargs):
            raise AssertionError("the solver ran on a filled cache")

        monkeypatch.setattr(importlib.import_module("seppchange.detect"), "_fit_kernel", no_solver)
        misses = cache.misses
        again = detect(series, config, opts, cache)
        assert again.change_points.points == first.change_points.points
        assert again.total_objective.hex() == first.total_objective.hex()
        assert cache.misses == misses

    @pytest.mark.parametrize("max_iter", [1, 5000])
    def test_replay_equals_the_filling_detect(self, max_iter):
        series, config = mixed_series()
        opts = DetectOptions(
            lam=median_screen_lam(series, config), gamma=1.0, solver=SolverOptions(max_iter=max_iter)
        )
        cache = CostCache()
        first = detect(series, config, opts, cache)
        again = detect(series, config, opts, cache)
        assert (first.nonconverged_fits > 0) == (max_iter == 1)
        assert again.change_points.points == first.change_points.points
        assert again.total_objective.hex() == first.total_objective.hex()
        assert again.nonconverged_fits == first.nonconverged_fits

    def test_streamed_detect_keeps_no_cost_table(self):
        # The benchmark series at the default tuning has 44,850 blocks: a
        # table of their costs alone takes 0.34 MiB, and a detect that keeps
        # them in a CostCache peaks at 1.4 MiB.  Streamed, it peaks at 0.6.
        series, config = default_series()
        lam, gamma = default_tuning(series.T, series.M)
        opts = DetectOptions(lam=lam, gamma=gamma)
        detect(series, config, opts)
        tracemalloc.start()
        try:
            detect(series, config, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGrid:
    def test_grid_one_equals_plain(self):
        rng = np.random.default_rng(10)
        series, config = random_instance(rng, T=12, m=2)
        r1 = detect(series, config, DetectOptions(lam=0.5, gamma=0.5, grid=1))
        r2 = detect(series, config, DetectOptions(lam=0.5, gamma=0.5, grid=1))
        assert r1.change_points.points == r2.change_points.points

    def test_grid_lattice_and_objective(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            series, config = random_instance(rng, T=16, m=2)
            exact = detect(series, config, DetectOptions(lam=0.4, gamma=0.3, grid=1))
            coarse = detect(series, config, DetectOptions(lam=0.4, gamma=0.3, grid=3))
            assert all((p - 1) % 3 == 0 for p in coarse.change_points.points)
            # a restricted feasible set cannot beat the exact search
            assert coarse.total_objective >= exact.total_objective - 1e-9


def float_folds(table, T, opts, end):
    """Float objective of every admissible partition of [1, end], by change points.

    Partitions use the starts and ends of the full [1, T] problem and fold
    cost + gamma block by block, as detect and exhaustive_search do.
    """
    starts = range(1, T + 1, opts.grid)
    ends = sorted({s - 1 for s in starts if s > 1} | {T})
    folds = {}

    def walk(covered, value, points):
        if covered == end:
            folds[points] = value
            return
        s = covered + 1
        if s not in starts:
            return
        for e in ends:
            if e <= end and e - s + 1 >= opts.min_segment:
                walk(e, value + table[s, e] + opts.gamma, points + ((s,) if s > 1 else ()))

    walk(0, 0.0, ())
    return folds


class TestExhaustive:
    def test_partition_counts(self):
        opts = DetectOptions(lam=1.0, gamma=1.0, min_segment=2)
        assert count_partitions(4, opts) == 2  # [1,4] and [1,2]+[3,4]
        assert count_partitions(3, opts) == 1  # single block only
        assert count_partitions(6, opts) == 5

    def test_refuses_oversized_instances(self):
        series = EventSeries(np.zeros((1, 100), dtype=int))
        config = ModelConfig(v=0.0, clip=1.0)
        with pytest.raises(ValueError):
            exhaustive_search(series, config, DetectOptions(lam=1.0, gamma=1.0))

    def test_matches_dp_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            series, config = random_instance(rng)
            opts = DetectOptions(
                lam=float(rng.uniform(0, 5)), gamma=float(rng.uniform(0, 10))
            )
            got = detect(series, config, opts)
            want = exhaustive_search(series, config, opts)
            assert got.change_points.points == want.change_points.points
            assert got.total_objective == pytest.approx(
                want.total_objective, rel=1e-9
            )

    def test_near_tie_dropped_on_a_prefix(self):
        # c(1,2) + c(3,4) lies one rounding residue below c(1,4), so the
        # recursion settles [1, 4] on two blocks, as the pull-style recursion
        # did.  Adding c(5,6) rounds (3, 5) and (5,) to the same float, and
        # enumeration, comparing whole objectives, takes fewer blocks.  Both
        # are minimizers of the float objective.
        series = EventSeries(np.array([[0, 1, 0, 0, 1, 1]]))
        config = ModelConfig(v=0.53125, clip=3.0)
        opts = DetectOptions(lam=0.0, gamma=0.0, grid=2)
        got = detect(series, config, opts)
        want = exhaustive_search(series, config, opts)
        assert got.change_points.points == (3, 5)
        assert want.change_points.points == (5,)
        assert got.total_objective == want.total_objective
        c = {key: entry[0] for key, entry in cost_table(series, config, opts).items()}
        assert c[1, 2] + c[3, 4] < c[1, 4]
        assert (c[1, 2] + c[3, 4]) + c[5, 6] == c[1, 4] + c[5, 6]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_dp_equals_enumeration(self, data):
        M = data.draw(st.integers(min_value=1, max_value=3))
        T = data.draw(st.integers(min_value=4, max_value=12))
        if data.draw(st.booleans()):
            counts = np.zeros((M, T), dtype=int)
        else:
            cells = st.integers(min_value=0, max_value=4)
            counts = np.array(data.draw(st.lists(cells, min_size=M * T, max_size=M * T)))
        series = EventSeries(counts.reshape(M, T))
        config = ModelConfig(v=data.draw(st.floats(min_value=-0.2, max_value=0.6)), clip=3.0)
        opts = DetectOptions(
            lam=data.draw(st.floats(min_value=0.0, max_value=3.0)),
            gamma=data.draw(st.sampled_from([0.0, 0.5, 2.0, 6.0])),
            min_segment=data.draw(st.integers(min_value=2, max_value=3)),
            grid=data.draw(st.integers(min_value=1, max_value=2)),
        )
        got = detect(series, config, opts)
        want = exhaustive_search(series, config, opts)
        assert got.total_objective == pytest.approx(want.total_objective, rel=1e-12, abs=1e-12)
        g, w = got.change_points.points, want.change_points.points
        table = {key: entry[0] for key, entry in cost_table(series, config, opts).items()}
        folds = float_folds(table, T, opts, T)
        assert folds[g] == folds[w] == min(folds.values())
        if g != w:
            # Enumeration takes the fewest blocks and then the smallest points
            # among the float minimizers.  The recursion can only have dropped
            # that partition on one of its prefixes, by a strict float loss
            # that a later block rounded away.
            assert (len(w), w) < (len(g), g)
            assert any(
                (prefix := float_folds(table, T, opts, c - 1))[tuple(p for p in w if p < c)]
                > min(prefix.values())
                for c in w
            )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dp_equals_enumeration_on_staged_ties(self, data):
        # Small-integer block costs with an integer gamma make many partitions
        # tie on value, so the recursion's tie path runs often: it must pick
        # what enumeration picks, the fewest blocks and then the smallest
        # change points.
        T = data.draw(st.integers(min_value=4, max_value=12))
        opts = DetectOptions(
            lam=1.0,
            gamma=data.draw(st.sampled_from([0.0, 1.0, 2.0])),
            min_segment=data.draw(st.integers(min_value=2, max_value=3)),
            grid=data.draw(st.integers(min_value=1, max_value=2)),
        )
        table = {}
        for s in range(1, T + 1):
            for e in range(s + 1, T + 1):
                table[s, e] = float(data.draw(st.integers(min_value=0, max_value=2)))
        got = _bellman(table_rows(table, T, opts), T, opts, CostCache())
        assert got == best_partition(table, T, opts)


class TestCache:
    def test_context_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        s1, c1 = random_instance(rng, T=10, m=2)
        s2, c2 = random_instance(rng, T=10, m=2)
        cache = CostCache()
        detect(s1, c1, DetectOptions(lam=1.0, gamma=1.0), cache=cache)
        with pytest.raises(ValueError):
            detect(s2, c2, DetectOptions(lam=1.0, gamma=1.0), cache=cache)

    def test_fresh_series_never_served_stale_costs(self):
        # A context keyed on id(series.counts) matched a new series whose array
        # reused a collected one's address, and returned its stale costs.
        rng = np.random.default_rng(16)
        config = ModelConfig(v=0.1, clip=3.0)
        opts = DetectOptions(lam=0.5, gamma=0.5)
        cache = CostCache()
        for _ in range(30):
            series = EventSeries(rng.integers(0, 4, size=(2, 10)))
            try:
                got = detect(series, config, opts, cache=cache)
            except ValueError:
                continue
            want = detect(series, config, opts)
            assert got.change_points.points == want.change_points.points
            assert got.total_objective == want.total_objective

    def test_context_follows_content(self):
        rng = np.random.default_rng(17)
        config = ModelConfig(v=0.1, clip=3.0)
        opts = DetectOptions(lam=0.5, gamma=0.5)
        counts = rng.integers(0, 4, size=(2, 10))
        cache = CostCache()
        first = detect(EventSeries(counts), config, opts, cache=cache)
        # equal contents in a separate array share the context
        again = detect(EventSeries(counts.copy()), config, opts, cache=cache)
        assert again.change_points.points == first.change_points.points
        assert again.cache_stats["misses"] == first.cache_stats["misses"]
        # any different content is refused, however small the difference
        changed = counts.copy()
        changed[1, 7] += 1
        with pytest.raises(ValueError):
            detect(EventSeries(changed), config, opts, cache=cache)
        with pytest.raises(ValueError):
            detect(EventSeries(counts[:, :9]), config, opts, cache=cache)

    @pytest.mark.parametrize(
        "filled, asked", [({"grid": 3}, {"grid": 1}), ({"min_segment": 2}, {"min_segment": 3})]
    )
    def test_cache_refuses_other_blocks(self, filled, asked):
        # The grid and min_segment fix a row's blocks, so a cache filled
        # under one never serves the other, not even in part.
        rng = np.random.default_rng(18)
        series, config = random_instance(rng, T=14, m=2)
        cache = CostCache()
        detect(series, config, DetectOptions(lam=0.4, gamma=0.3, **filled), cache=cache)
        with pytest.raises(ValueError):
            detect(series, config, DetectOptions(lam=0.4, gamma=0.3, **asked), cache=cache)

    def test_stats_in_report(self):
        rng = np.random.default_rng(15)
        series, config = random_instance(rng, T=10, m=2)
        rep = detect(series, config, DetectOptions(lam=1.0, gamma=1.0))
        assert rep.cache_stats["entries"] > 0
        assert rep.cache_stats["misses"] >= rep.cache_stats["entries"]
        # plain ints: a numpy integer divided by 0.0 gives inf, not an error
        assert all(isinstance(v, int) for v in rep.cache_stats.values())


class TestOptionsValidation:
    def test_min_segment_floor(self):
        with pytest.raises(ValueError):
            DetectOptions(lam=1.0, gamma=1.0, min_segment=1)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            DetectOptions(lam=1.0, gamma=1.0, grid=0)

    def test_negative_penalties_rejected(self):
        with pytest.raises(ValueError):
            DetectOptions(lam=-1.0, gamma=1.0)
        with pytest.raises(ValueError):
            DetectOptions(lam=1.0, gamma=-0.1)
