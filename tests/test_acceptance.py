"""Acceptance gates for the full pipeline.

Each test prints one ``[PASS]``/``[FAIL]`` line for its criterion (run with
``pytest -s tests/test_acceptance.py`` to watch them live).  Criteria 5 and 6
assert the published desk-scale localization targets at the verbatim default
tuning (lam = 90 ln(TM), gamma = ln(M)^2 / 2); see the assertion messages and
CHANGES.md for the measured behavior at that operating point.
"""

import math

import numpy as np
import pytest
from _support import (
    exhaustive_search,
    random_feasible_matrix,
    random_instance,
    random_piecewise_sequence,
    run_setting_a_batch,
)

from seppchange import (
    CoefficientSequence,
    CostCache,
    DetectOptions,
    EventSeries,
    Interval,
    ModelConfig,
    SolverOptions,
    detect,
    fit_interval,
    generate_series,
    hausdorff,
    nll,
    nll_gradient,
    one_sided,
)

BATCH_SEED = 20260810
BATCH_REPS = 20


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return ok


@pytest.fixture(scope="session")
def batch_rho_035():
    return run_setting_a_batch(0.35, BATCH_REPS, BATCH_SEED, grid=1)


@pytest.fixture(scope="session")
def batch_rho_015():
    return run_setting_a_batch(0.15, BATCH_REPS, BATCH_SEED, grid=1)


def test_criterion_1_dp_oracle_equivalence():
    """DP equals exhaustive enumeration on 200 randomized small instances."""
    rng = np.random.default_rng(1001)
    worst_rel = 0.0
    for _ in range(200):
        series, config = random_instance(rng)  # T in [6,12], M in [2,3]
        opts = DetectOptions(
            lam=float(rng.uniform(0.0, 5.0)),
            gamma=float(rng.uniform(0.0, 10.0)),
            min_segment=2,
        )
        got = detect(series, config, opts)
        want = exhaustive_search(series, config, opts)
        assert got.change_points.points == want.change_points.points
        denom = max(1.0, abs(want.total_objective))
        worst_rel = max(
            worst_rel, abs(got.total_objective - want.total_objective) / denom
        )
    ok = worst_rel <= 1e-9
    assert _verdict(
        "criterion 1: DP-oracle equivalence (200 instances)",
        ok,
        f"max objective rel diff {worst_rel:.2e}",
    )


def test_criterion_2_gradient_correctness():
    """Analytic gradient matches central finite differences at 20 points."""
    rng = np.random.default_rng(1002)
    series = EventSeries(rng.integers(0, 6, size=(3, 14)))
    config = ModelConfig(v=0.3, clip=4.0)
    interval = Interval(3, 12)  # |I| = 10
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
        worst = max(worst, (np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))).max())
    ok = worst < 1e-5
    assert _verdict(
        "criterion 2: gradient vs finite differences", ok, f"max rel err {worst:.2e}"
    )


def test_criterion_3_solver_contracts():
    """Monotone descent, feasibility, and the scalar closed-form MLE."""
    rng = np.random.default_rng(1003)
    monotone = True
    feasible = True
    for _ in range(50):
        m = int(rng.integers(1, 4))
        T = int(rng.integers(8, 25))
        series = EventSeries(rng.integers(0, 7, size=(m, T)))
        config = ModelConfig(v=float(rng.uniform(-0.3, 0.7)), clip=float(rng.uniform(2, 6)))
        lam = float(rng.uniform(0.0, 4.0))
        fit = fit_interval(
            series, Interval(1, T), lam, config, SolverOptions(track_history=True)
        )
        h = fit.history
        monotone &= bool(np.all(np.diff(h) <= 1e-9 * np.maximum(1.0, np.abs(h[:-1]))))
        feasible &= bool(np.abs(fit.matrix).sum(axis=1).max() <= 1 + 1e-9)

    c, v = 3, 0.1
    series = EventSeries(np.full((1, 41), c))
    fit = fit_interval(
        series, Interval(1, 41), 0.0, ModelConfig(v=v, clip=10.0), SolverOptions(tol=1e-14)
    )
    a_star = (math.log(c) - v) / c
    scalar_ok = abs(fit.matrix[0, 0] - a_star) <= 1e-6

    ok = monotone and feasible and scalar_ok
    assert _verdict(
        "criterion 3: solver contracts (descent, feasibility, scalar MLE)",
        ok,
        f"monotone={monotone} feasible={feasible} scalar|err|="
        f"{abs(fit.matrix[0, 0] - a_star):.1e}",
    )


def test_criterion_4_simulation_sanity():
    """Zero coefficients: empirical means match Poisson(2) for >= 95% of seeds."""
    seq = CoefficientSequence(((1, np.zeros((3, 3))),))
    config = ModelConfig(v=math.log(2.0), clip=6.0)
    tol = 3.0 * math.sqrt(2.0 / 10000)
    passed = 0
    for seed in range(20):
        series = generate_series(seq, config, T=10000, seed=seed)
        means = series.counts.mean(axis=1)
        passed += bool(np.all(np.abs(means - 2.0) < tol))
    ok = passed >= 19
    assert _verdict(
        "criterion 4: simulation law of large numbers", ok, f"{passed}/20 seeds"
    )


def test_criterion_5_scaled_replication_setting_a(batch_rho_035):
    """Setting (a), rho=0.35, default tuning: mean D <= 5 and Khat=K >= 90%."""
    d_vals = [r["hausdorff"] for r in batch_rho_035]
    k_ok = [r["k_hat"] == 1 for r in batch_rho_035]
    mean_d = float(np.mean(d_vals))
    k_rate = float(np.mean(k_ok))
    ok = mean_d <= 5.0 and k_rate >= 0.90
    _verdict(
        "criterion 5: scaled setting (a) replication at default tuning",
        ok,
        f"mean D={mean_d:.1f} (target <=5), Khat=K rate={k_rate:.0%} (target >=90%)",
    )
    assert ok, (
        f"mean Hausdorff {mean_d:.1f} and Khat=K rate {k_rate:.0%} miss the "
        "targets: the default lam=90*ln(TM) is 819.4 here, while "
        "max|grad nll(0)|/sqrt|I| over every window of these 20 series lies "
        "between 479 and 838 (median 787) and exceeds lam in only 5 series, by "
        "less than 3%; so almost every fit is the zero matrix and the scan "
        "keeps one block.  Whether 90*ln(TM) is the paper's tuning on this "
        "loss scale is not settled in the repo"
    )


def test_criterion_5_grid_2_diagnostic_runtime():
    """Grid-2 run, reported separately per the stated runtime budget."""
    batch = run_setting_a_batch(0.35, BATCH_REPS, BATCH_SEED, grid=2)
    d_vals = [r["hausdorff"] for r in batch]
    wall = sum(r["wall_s"] for r in batch)
    _verdict(
        "criterion 5 (diagnostic): grid=2 run",
        True,
        f"mean D={np.mean(d_vals):.1f}, total detect wall {wall:.0f}s",
    )
    assert wall < 600  # the stated grid-2 budget, on the detection time itself


def test_criterion_6_weak_signal_ordering(batch_rho_015, batch_rho_035):
    """Mean Hausdorff at rho=0.15 is no better than at rho=0.35."""
    d15 = float(np.mean([r["hausdorff"] for r in batch_rho_015]))
    d35 = float(np.mean([r["hausdorff"] for r in batch_rho_035]))
    ok = d15 >= d35
    _verdict(
        "criterion 6: weak-signal ordering (rho 0.15 vs 0.35)",
        ok,
        f"mean D(0.15)={d15:.1f} vs mean D(0.35)={d35:.1f}",
    )
    assert ok, (
        f"ordering flipped: {d15:.1f} < {d35:.1f}; a partition objective that "
        "leaves the transition into each block's first point uncounted makes "
        "every split pay whenever that observation's loss exceeds gamma, so both "
        "rows score runs of spurious points in low-count stretches (such as "
        "3;5;7;9;11) instead of the signal, as measured at 147.9 < 151.1 "
        "before each transition was counted exactly once"
    )


def test_criterion_7_gamma_monotonicity():
    """Khat is non-increasing along an increasing gamma ladder, 20 series."""
    rng = np.random.default_rng(1007)
    ok = True
    detail = ""
    for i in range(20):
        m = int(rng.integers(2, 4))
        seq = random_piecewise_sequence(rng, 30, m)
        config = ModelConfig(v=float(rng.uniform(-0.1, 0.4)), clip=4.0)
        series = generate_series(seq, config, 30, seed=int(rng.integers(2**32)))
        cache = CostCache()  # one cost table serves the whole ladder
        ks = []
        for gamma in (0.0, 0.5, 2.0, 8.0, 32.0):
            rep = detect(series, config, DetectOptions(lam=0.8, gamma=gamma), cache=cache)
            ks.append(rep.K)
        if not all(a >= b for a, b in zip(ks, ks[1:])):
            ok = False
            detail = f"series {i}: K ladder {ks}"
            break
    assert _verdict("criterion 7: gamma-monotonicity of Khat", ok, detail)


def test_criterion_8_metrics_identities():
    """Symmetry, identity and triangle inequality over 1000 random triples."""
    rng = np.random.default_rng(1008)
    T = 400
    ok = True
    for _ in range(1000):
        sets = [
            set(rng.choice(np.arange(1, T + 1), size=rng.integers(1, 8), replace=False))
            for _ in range(3)
        ]
        a, b, c = sets
        d_ab = hausdorff(a, b, T)[0]
        d_ba = hausdorff(b, a, T)[0]
        d_ac = hausdorff(a, c, T)[0]
        d_bc = hausdorff(b, c, T)[0]
        ok &= d_ab == d_ba
        ok &= hausdorff(a, a, T)[0] == 0
        ok &= d_ac <= d_ab + d_bc
        ok &= one_sided(a, b) <= d_ab
        if not ok:
            break
    assert _verdict("criterion 8: metrics identities (1000 triples)", ok)
