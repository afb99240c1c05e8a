import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppchange import (
    CoefficientSequence,
    EventSeries,
    Interval,
    ModelConfig,
    SolverFailure,
    ScenarioSpec,
    SolverOptions,
    build_scenario,
    fit_interval,
    generate_series,
    nll,
    nll_gradient,
    prox,
)
from seppchange import glm


def random_feasible_matrix(rng, m, max_norm=1.0):
    a = rng.normal(size=(m, m))
    norms = np.abs(a).sum(axis=1)
    target = rng.uniform(0.2, max_norm, size=m)
    return a * (target / norms)[:, None]


def random_series(rng, m, T, lo=0, hi=6):
    return EventSeries(rng.integers(lo, hi + 1, size=(m, T)))


def nll_by_hand(A, series, interval, config):
    """Independent scalar evaluation of the double sum, no vectorization."""
    total = 0.0
    for t in range(interval.start, interval.end):
        g = [min(series.counts[j, t - 1], config.clip) for j in range(series.M)]
        for m in range(series.M):
            z = config.v + sum(A[m][j] * g[j] for j in range(series.M))
            total += math.exp(z) - series.counts[m, t] * z
    return total


class TestNll:
    def test_zero_matrix_zero_intercept(self):
        rng = np.random.default_rng(0)
        series = random_series(rng, 5, 20)
        val = nll(np.zeros((5, 5)), series, Interval(4, 14), ModelConfig(v=0.0, clip=3.0))
        assert val == 50.0  # 10 transitions x 5 coordinates x (exp(0) - x*0)

    def test_zero_matrix_closed_form(self):
        c, v = 3, 0.7
        series = EventSeries(np.full((4, 9), c))
        val = nll(np.zeros((4, 4)), series, Interval(2, 8), ModelConfig(v=v, clip=5.0))
        assert val == pytest.approx(6 * 4 * (math.exp(v) - c * v), rel=1e-14)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        series = random_series(rng, 2, 6)
        config = ModelConfig(v=0.4, clip=2.5)
        for _ in range(5):
            a = random_feasible_matrix(rng, 2)
            got = nll(a, series, Interval(1, 4), config)
            want = nll_by_hand(a, series, Interval(1, 4), config)
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_single_point_interval(self):
        series = EventSeries(np.ones((2, 5), dtype=int))
        with pytest.raises(ValueError):
            nll(np.zeros((2, 2)), series, Interval(3, 3), ModelConfig(v=0.0, clip=1.0))

    def test_rejects_interval_beyond_series(self):
        series = EventSeries(np.ones((2, 5), dtype=int))
        with pytest.raises(ValueError):
            nll(np.zeros((2, 2)), series, Interval(2, 6), ModelConfig(v=0.0, clip=1.0))

    def test_overflow_is_hard_error(self):
        series = EventSeries(np.ones((2, 5), dtype=int))
        with pytest.raises(SolverFailure):
            nll(np.zeros((2, 2)), series, Interval(1, 5), ModelConfig(v=1000.0, clip=1.0))


class TestNllGradient:
    def test_zero_counts_zero_gradient(self):
        series = EventSeries(np.zeros((3, 8), dtype=int))
        grad = nll_gradient(
            np.zeros((3, 3)), series, Interval(1, 8), ModelConfig(v=0.0, clip=4.0)
        )
        assert np.array_equal(grad, np.zeros((3, 3)))  # g == 0 kills every term

    def test_central_finite_differences(self):
        rng = np.random.default_rng(11)
        series = random_series(rng, 3, 12)
        config = ModelConfig(v=0.3, clip=4.0)
        interval = Interval(2, 11)  # |I| = 10
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            a = random_feasible_matrix(rng, 3)
            grad = nll_gradient(a, series, interval, config)
            fd = np.zeros_like(grad)
            for i in range(3):
                for j in range(3):
                    ap, am = a.copy(), a.copy()
                    ap[i, j] += h
                    am[i, j] -= h
                    fd[i, j] = (
                        nll(ap, series, interval, config)
                        - nll(am, series, interval, config)
                    ) / (2 * h)
            rel = np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))
            worst = max(worst, rel.max())
        assert worst < 1e-5

    def test_row_separability(self):
        rng = np.random.default_rng(3)
        series = random_series(rng, 4, 10)
        config = ModelConfig(v=0.2, clip=3.0)
        a = random_feasible_matrix(rng, 4)
        b = a.copy()
        b[0] = random_feasible_matrix(rng, 4)[0]
        ga = nll_gradient(a, series, Interval(1, 10), config)
        gb = nll_gradient(b, series, Interval(1, 10), config)
        assert np.array_equal(ga[1:], gb[1:])


def prox_kkt_holds(x, threshold, z, tol=1e-10):
    """Exact optimality conditions for min 0.5||z-x||^2 + thr*||z||_1, ||z||_1 <= 1."""
    norm = np.abs(z).sum()
    if norm > 1 + 1e-12:
        return False
    if norm < 1 - 1e-12:
        mu = 0.0
    else:
        active = np.abs(z) > 0
        if not active.any():
            return np.all(np.abs(x) <= threshold + tol)
        levels = (x[active] - z[active]) / np.sign(z[active])
        if np.ptp(levels) > tol:
            return False
        mu = levels.mean() - threshold
        if mu < -tol:
            return False
        mu = max(mu, 0.0)
    for xi, zi in zip(x, z):
        if zi != 0:
            if abs(xi - zi - np.sign(zi) * (threshold + mu)) > tol:
                return False
        else:
            if abs(xi) > threshold + mu + tol:
                return False
    return True


class TestProx:
    def test_inside_ball(self):
        assert prox(np.array([0.5, -0.3]), 0.1) == pytest.approx([0.4, -0.2])

    def test_projection_kicks_in(self):
        # shrink to (1.5, -1.5), norm 3 > 1; the ball projection level is 1
        assert prox(np.array([2.0, -2.0]), 0.5) == pytest.approx([0.5, -0.5])

    def test_full_shrinkage(self):
        assert prox(np.array([0.05, -0.05]), 0.1) == pytest.approx([0.0, 0.0])

    def test_zero_threshold_is_projection(self):
        out = prox(np.array([3.0, 1.0]), 0.0)
        assert np.abs(out).sum() == pytest.approx(1.0)
        assert prox_kkt_holds(np.array([3.0, 1.0]), 0.0, out)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            prox(np.array([1.0]), -0.5)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_kkt_conditions(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        x = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        thr = data.draw(st.floats(min_value=0, max_value=3, allow_nan=False))
        z = prox(x, thr)
        assert np.abs(z).sum() <= 1 + 1e-12
        assert prox_kkt_holds(x, thr, z)


def project_row_by_hand(x):
    """Euclidean projection of one row onto the unit l1 ball, one row at a time."""
    x = np.asarray(x, dtype=np.float64)
    if np.abs(x).sum() <= 1.0:
        return x.copy()
    u = sorted(np.abs(x).tolist(), reverse=True)
    total, tau = 0.0, None
    for k, uk in enumerate(u, start=1):
        total += uk
        if uk - (total - 1.0) / k > 0:
            tau = (total - 1.0) / k  # kept from the largest such k
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def projection_cases():
    rng = np.random.default_rng(53)
    rows = [rng.normal(scale=s, size=7) for s in (0.05, 0.3, 1.0, 4.0) for _ in range(5)]
    rows += [
        np.array([0.5, -0.5, 0.5, -0.5, 0.5, 0.0, 0.0]),  # tied magnitudes
        np.array([2.0, 2.0, -2.0, 1.0, 0.0, 0.0, 0.0]),
        np.full(7, -0.75),
        np.array([0.25, -0.25, 0.25, -0.25, 0.0, 0.0, 0.0]),  # norm exactly 1
        np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        np.zeros(7),
    ]
    return np.array(rows)


class TestBallProjection:
    """The ball projection handles all violating rows at once."""

    def test_prox_matches_per_row_reference(self):
        x = projection_cases()
        want = np.array([project_row_by_hand(row) for row in x])
        np.testing.assert_array_equal(prox(x, 0.0), want)
        for row, w in zip(x, want):
            np.testing.assert_array_equal(prox(row, 0.0), w)
        on_sphere = np.abs(x).sum(axis=1) > 1.0
        assert np.abs(want[on_sphere]).sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_prox_rows_matches_per_row_reference(self):
        x = projection_cases()
        thresholds = np.linspace(0.0, 1.5, x.shape[0])
        shrunk = np.sign(x) * np.maximum(np.abs(x) - thresholds[:, None], 0.0)
        want = np.array([project_row_by_hand(row) for row in shrunk])
        np.testing.assert_array_equal(glm._prox_rows(x, thresholds), want)

    def test_rows_inside_the_ball_are_untouched(self):
        x = projection_cases()
        inside = x[np.abs(x).sum(axis=1) <= 1.0]
        assert inside.shape[0] >= 3
        out = inside.copy()
        glm._l1_project_inplace(out)
        np.testing.assert_array_equal(out, inside)


class TestFitInterval:
    def test_penalty_dominance_gives_zero(self):
        rng = np.random.default_rng(5)
        series = random_series(rng, 3, 15)
        config = ModelConfig(v=0.2, clip=4.0)
        interval = Interval(1, 15)
        grad0 = nll_gradient(np.zeros((3, 3)), series, interval, config)
        lam = (np.abs(grad0).max() / np.sqrt(interval.length)) * 1.5
        fit = fit_interval(series, interval, lam, config)
        assert np.array_equal(fit.matrix, np.zeros((3, 3)))
        assert fit.cost == pytest.approx(
            nll(np.zeros((3, 3)), series, interval, config), rel=1e-12
        )
        assert fit.converged.all()

    def test_scalar_closed_form_interior(self):
        c, v = 3, 0.1
        series = EventSeries(np.full((1, 41), c))
        config = ModelConfig(v=v, clip=10.0)
        fit = fit_interval(
            series, Interval(1, 41), 0.0, config, SolverOptions(tol=1e-14)
        )
        a_star = (math.log(c) - v) / c  # g is the constant c
        assert fit.matrix[0, 0] == pytest.approx(a_star, abs=1e-6)

    def test_scalar_closed_form_clipped(self):
        c = 148  # unconstrained optimum log(148) ~ 5, clipped to the box
        series = EventSeries(np.full((1, 30), c))
        config = ModelConfig(v=0.0, clip=1.0)
        fit = fit_interval(
            series, Interval(1, 30), 0.0, config, SolverOptions(tol=1e-14)
        )
        assert fit.matrix[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_descent_and_feasibility(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            m = rng.integers(2, 4)
            series = random_series(rng, m, 16)
            config = ModelConfig(v=float(rng.uniform(-0.3, 0.6)), clip=4.0)
            lam = float(rng.uniform(0, 3))
            fit = fit_interval(
                series,
                Interval(1, 16),
                lam,
                config,
                SolverOptions(track_history=True),
            )
            h = fit.history
            assert np.all(np.diff(h) <= 1e-9 * np.maximum(1.0, np.abs(h[:-1])))
            assert np.abs(fit.matrix).sum(axis=1).max() <= 1 + 1e-9

    def test_warm_cold_equivalence(self):
        rng = np.random.default_rng(23)
        series = random_series(rng, 3, 25)
        config = ModelConfig(v=0.25, clip=4.0)
        interval = Interval(3, 22)
        opts = SolverOptions(tol=1e-10)
        cold = fit_interval(series, interval, 1.0, config, opts)
        warm = fit_interval(
            series,
            interval,
            1.0,
            config,
            SolverOptions(tol=1e-10),
            init=random_feasible_matrix(rng, 3),
        )
        assert warm.cost == pytest.approx(cold.cost, rel=1e-6)

    def test_stochastic_optimality_certificate(self):
        rng = np.random.default_rng(29)
        series = random_series(rng, 3, 30)
        config = ModelConfig(v=0.1, clip=4.0)
        interval = Interval(1, 30)
        lam = 0.8
        thr = lam * np.sqrt(interval.length)
        fit = fit_interval(series, interval, lam, config)
        for _ in range(1000):
            cand = random_feasible_matrix(rng, 3)
            obj = nll(cand, series, interval, config) + thr * np.abs(cand).sum()
            assert fit.cost <= obj + 1e-6

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(31)
        series = random_series(rng, 3, 20)
        config = ModelConfig(v=0.2, clip=3.0)
        interval = Interval(1, 20)
        thr = 1.7
        def objective(a):
            return nll(a, series, interval, config) + thr * np.abs(a).sum()
        for _ in range(20):
            a = random_feasible_matrix(rng, 3)
            b = random_feasible_matrix(rng, 3)
            mid = objective((a + b) / 2)
            assert mid <= (objective(a) + objective(b)) / 2 + 1e-10

    def test_consistency_trend(self):
        # fits from longer stretches of one regime land closer to the truth
        rng = np.random.default_rng(37)
        a_star = random_feasible_matrix(rng, 3, max_norm=0.9)
        seq = CoefficientSequence(((1, a_star),))
        config = ModelConfig(v=0.3, clip=5.0)
        series = generate_series(seq, config, T=5001, seed=101)
        errs = []
        for n in (500, 2000, 5000):
            fit = fit_interval(series, Interval(1, n + 1), 0.5, config)
            errs.append(np.linalg.norm(fit.matrix - a_star))
        assert errs[0] > errs[1] > errs[2]

    def test_nonconvergence_is_soft(self):
        rng = np.random.default_rng(41)
        series = random_series(rng, 3, 40)
        config = ModelConfig(v=0.3, clip=5.0)
        fit = fit_interval(
            series, Interval(1, 40), 0.01, config, SolverOptions(max_iter=1)
        )
        assert not fit.converged.all()
        assert np.all(fit.iterations == 1)

    def test_rejects_negative_lam(self):
        series = EventSeries(np.ones((2, 5), dtype=int))
        with pytest.raises(ValueError):
            fit_interval(series, Interval(1, 5), -1.0, ModelConfig(v=0.0, clip=1.0))



@pytest.fixture(scope="module")
def benchmark_series():
    """The benchmark's series: setting (a), rho = 0.35, seed 20260810, rep 0."""
    seq, config, T = build_scenario(ScenarioSpec("a", rho=0.35))
    return generate_series(seq, config, T, seed=20260810, replication=0), config


def record_accepted_rungs(monkeypatch):
    """Record the rung at which each line search took a step, by step kind."""
    seen = {"_newton_step": [], "_gradient_step": []}
    batches = []
    rung_batches, take_first = glm._rung_batches, glm._take_first

    def recording_batches():
        for batch in rung_batches():
            batches.append(batch)
            yield batch

    def recording_take_first(state, r, cand, norm, accept, *rest):
        first = take_first(state, r, cand, norm, accept, *rest)
        if np.any(first >= 0):
            kind = accept.__qualname__.split(".")[0]
            seen[kind].append(batches[-1][0] + int(first.max()))
        return first

    monkeypatch.setattr(glm, "_rung_batches", recording_batches)
    monkeypatch.setattr(glm, "_take_first", recording_take_first)
    return seen


# Cold fits on the benchmark series with one trial per line-search round:
# per-row iterations and the cost.  Every row converged, and each fit takes
# Newton and gradient steps after more than 8 halvings.
LADDER_FITS = {
    (20, 80, 400.0): (
        [1, 5, 1, 5, 1, 5, 1, 4, 1, 5, 1, 4, 1, 4, 1, 4,
         1, 5, 1, 4, 1, 4, 1, 4, 1, 5, 1, 4, 1, 5],
        -4059.8470390559687,
    ),
    (30, 120, 200.0): (
        [1, 6, 1, 5, 1, 5, 1, 5, 1, 6, 1, 5, 1, 6, 1, 5,
         1, 6, 1, 6, 1, 7, 1, 8, 1, 6, 1, 5, 1, 5],
        -15044.089669011833,
    ),
    (100, 150, 400.0): (
        [1, 4, 1, 1, 1, 3, 1, 3, 1, 4, 1, 5, 1, 3, 1, 4,
         1, 5, 1, 4, 1, 4, 1, 3, 1, 3, 1, 4, 1, 1],
        -2240.5854633929202,
    ),
}


def duplicate_units_problem():
    """A 4-unit series whose units 2 and 4 are identical, and its lambda."""
    a = np.array([[0.4, 0.0, 0.2], [0.3, 0.0, 0.0], [0.0, 0.5, 0.3]])
    config = ModelConfig(v=0.3, clip=4.0)
    base = generate_series(CoefficientSequence(((1, a),)), config, 60, seed=7)
    series = EventSeries(np.vstack([base.counts, base.counts[1:2]]))
    interval = Interval(1, 60)
    grad0 = nll_gradient(np.zeros((4, 4)), series, interval, config)
    lam = 0.1 * np.abs(grad0).max() / np.sqrt(interval.length)
    return series, config, interval, lam


class TestNewtonSolver:
    @pytest.mark.parametrize("window", [(30, 135), (30, 75)])
    def test_slow_windows_converge(self, benchmark_series, window):
        # Proximal gradient needed about 7,400 iterations on [30, 135] and
        # 15,446 on row 11 of [30, 75], whose working set holds three
        # identical design columns.
        series, config = benchmark_series
        fit = fit_interval(series, Interval(*window), 200.0, config)
        assert fit.converged.all()
        assert fit.iterations.max() < SolverOptions().max_iter

    def test_warm_start_matches_cold(self, benchmark_series):
        series, config = benchmark_series
        prev = fit_interval(series, Interval(1, 120), 400.0, config)
        cold = fit_interval(series, Interval(1, 150), 400.0, config)
        warm = fit_interval(
            series, Interval(1, 150), 400.0, config, init=prev.matrix
        )
        assert cold.converged.all() and warm.converged.all()
        assert warm.cost == pytest.approx(cold.cost, rel=1e-8)

    def test_duplicate_units(self):
        # Units 2 and 4 are identical, so their design columns are too and the
        # Hessian on a working set holding both is singular.
        series, config, interval, lam = duplicate_units_problem()
        fit = fit_interval(
            series, interval, lam, config, SolverOptions(track_history=True)
        )
        ref = fit_interval(series, interval, lam, config, SolverOptions(tol=1e-13))
        assert fit.matrix[2, 1] != 0.0 and fit.matrix[2, 3] != 0.0
        assert fit.converged.all()
        assert np.abs(fit.matrix).sum(axis=1).max() <= 1 + 1e-9
        h = fit.history
        assert np.all(np.diff(h) <= 1e-9 * np.maximum(1.0, np.abs(h[:-1])))
        assert fit.cost == pytest.approx(ref.cost, rel=1e-9)

    def test_rows_on_the_sphere(self):
        # Unit 1 is driven by exp(0.9 g_1 + 0.8 g_3 - 0.5), so its
        # unconstrained optimum leaves the unit l1 ball.
        rng = np.random.default_rng(3)
        x = np.zeros((3, 80), dtype=np.int64)
        x[:, 0] = [1, 2, 0]
        for t in range(79):
            g = np.minimum(x[:, t], 3)
            rate = np.exp(np.array([0.9 * g[0] + 0.8 * g[2], 0.8 * g[2], 0.3 * g[1]]) - 0.5)
            x[:, t + 1] = rng.poisson(rate)
        series = EventSeries(x)
        config = ModelConfig(v=-0.5, clip=3.0)
        fit = fit_interval(series, Interval(1, 80), 0.5, config)
        ref = fit_interval(series, Interval(1, 80), 0.5, config, SolverOptions(tol=1e-13))
        norms = np.abs(fit.matrix).sum(axis=1)
        assert fit.converged.all()
        assert norms.max() <= 1 + 1e-9
        assert norms[0] >= 1 - 1e-9
        assert fit.cost == pytest.approx(ref.cost, rel=1e-9)

    def test_sign_change_lands_on_zero(self, monkeypatch):
        # Row 3 splits its weight between the identical units 2 and 4.  Moved
        # onto unit 2, with a small weight of the wrong sign left on unit 4,
        # it must return in one full Newton step that puts unit 4 on 0: the
        # step along the near-null direction of the pair would carry unit 4
        # across zero.
        series, config, interval, lam = duplicate_units_problem()
        init = fit_interval(series, interval, lam, config).matrix.copy()
        assert init[2, 1] > 0.0 and init[2, 3] > 0.0
        init[2, 1] += init[2, 3] + 0.01
        init[2, 3] = -0.01
        first_newton = []
        take_first = glm._take_first

        def recording_take_first(state, r, cand, norm, accept, *rest):
            first = take_first(state, r, cand, norm, accept, *rest)
            if not first_newton and accept.__qualname__.startswith("_newton_step"):
                first_newton.append((dict(zip(r.tolist(), first.tolist())), state[0][2].copy()))
            return first

        monkeypatch.setattr(glm, "_take_first", recording_take_first)
        fit_interval(series, interval, lam, config, SolverOptions(max_iter=1), init=init)
        rungs, row = first_newton[0]  # the first rung batch: alpha = 1 alone
        assert rungs[2] == 0
        assert row[3] == 0.0

    @pytest.mark.parametrize(
        "window, lam, warm_from",
        [(key[:2], key[2], None) for key in LADDER_FITS]
        + [((1, 150), 400.0, 140), ((10, 150), 400.0, 140), ((150, 300), 400.0, 290)],
    )
    def test_cost_matches_a_tight_fit(self, benchmark_series, window, lam, warm_from):
        # The LADDER_FITS windows, cold, and three windows of the lam 400,
        # grid 10 sweep, warm-started from a fit of the sweep's previous window.
        series, config = benchmark_series
        interval = Interval(*window)
        init = None
        if warm_from is not None:
            init = fit_interval(series, Interval(window[0], warm_from), lam, config).matrix
        fit = fit_interval(series, interval, lam, config, init=init)
        ref = fit_interval(series, interval, lam, config, SolverOptions(tol=1e-13))
        assert fit.converged.all()
        assert fit.cost == pytest.approx(ref.cost, rel=1e-7, abs=0)

    @pytest.mark.parametrize("fit_key", list(LADDER_FITS))
    def test_rung_batches_take_the_sequential_steps(self, benchmark_series, fit_key, monkeypatch):
        # Each fit has Newton and gradient steps taken after more than 8
        # halvings, past the first two rung batches.
        series, config = benchmark_series
        s, e, lam = fit_key
        iterations, cost = LADDER_FITS[fit_key]
        seen = record_accepted_rungs(monkeypatch)
        fit = fit_interval(series, Interval(s, e), lam, config)
        assert max(seen["_newton_step"]) > 8 and max(seen["_gradient_step"]) > 8
        assert fit.iterations.tolist() == iterations
        assert fit.converged.all()
        assert fit.cost == pytest.approx(cost, rel=1e-12, abs=0)

    def test_batch_size_does_not_change_the_fit(self, benchmark_series, monkeypatch):
        # One rung per batch is the one-trial-at-a-time search; one batch of
        # every rung is the other extreme.
        series, config = benchmark_series
        fits = {}
        for rungs in (1, glm._RUNGS, glm._BACKTRACK_LIMIT):
            monkeypatch.setattr(glm, "_RUNGS", rungs)
            fits[rungs] = fit_interval(series, Interval(30, 75), 200.0, config)
        ref = fits[1]
        for fit in fits.values():
            np.testing.assert_array_equal(fit.iterations, ref.iterations)
            np.testing.assert_array_equal(fit.converged, ref.converged)
            assert fit.cost == pytest.approx(ref.cost, rel=1e-12, abs=0)

    def test_gradient_ladder_matches_one_trial_at_a_time(self, benchmark_series):
        # From the [1, 120] fit, one gradient step on [1, 150] whose first
        # trial is 2 ** 12, so that rows backtrack past several rung batches.
        series, config = benchmark_series
        interval, lam = Interval(1, 150), 400.0
        g, xp = glm._slice(series, interval, config)
        thr = lam * np.sqrt(interval.length)
        A0 = fit_interval(series, Interval(1, 120), lam, config).matrix.copy()
        z = config.v + A0 @ g
        f0 = (np.exp(z) - xp * z).sum(axis=1)
        grad = (np.exp(z) - xp) @ g.T
        rows = np.arange(series.M)
        state = (A0.copy(), np.exp(z), f0.copy(), f0 + thr * np.abs(A0).sum(axis=1))
        steps = np.full(series.M, 2.0**11)
        glm._gradient_step(state, rows, grad, steps, g, xp, config.v, thr)

        want_A, want_steps = np.empty_like(A0), np.empty(series.M)
        for i in rows:
            st = 2.0**12
            while True:
                cand = prox(A0[i] - st * grad[i], st * thr)
                zc = config.v + cand @ g
                fc = np.sum(np.exp(zc) - xp[i] * zc)
                diff = cand - A0[i]
                quad = f0[i] + grad[i] @ diff + diff @ diff / (2.0 * st)
                if fc <= quad + 1e-12 * max(1.0, abs(f0[i])):
                    break
                st *= glm._BETA
            want_A[i], want_steps[i] = cand, st
        assert np.log2(2.0**12 / want_steps).max() > 8
        np.testing.assert_array_equal(steps, want_steps)
        np.testing.assert_allclose(state[0], want_A, rtol=1e-12, atol=1e-15)

@pytest.mark.filterwarnings("ignore")
def test_matches_convex_solver_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(43)
    series = random_series(rng, 3, 13)
    config = ModelConfig(v=0.2, clip=3.0)
    interval = Interval(1, 13)
    lam = 1.3
    thr = lam * np.sqrt(interval.length)

    counts = series.counts
    g = np.minimum(counts[:, :-1], config.clip).astype(float)
    xp = counts[:, 1:].astype(float)
    A = cvxpy.Variable((3, 3))
    z = config.v + A @ g
    objective = cvxpy.sum(cvxpy.exp(z)) - cvxpy.sum(cvxpy.multiply(xp, z)) + thr * cvxpy.norm1(A)
    constraints = [cvxpy.norm1(A[i]) <= 1 for i in range(3)]
    problem = cvxpy.Problem(cvxpy.Minimize(objective), constraints)
    problem.solve()
    assert problem.status in ("optimal", "optimal_inaccurate")

    fit = fit_interval(series, interval, lam, config, SolverOptions(tol=1e-12))
    assert fit.cost == pytest.approx(problem.value, rel=1e-5)
