"""Tests of the benchmark's independent checkers.

Each checker must accept the program's own output on a small instance and
reject a report whose cost, matrix or change points were corrupted.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import seppchange  # noqa: E402
from seppchange import cli as sc_cli  # noqa: E402

M, T, V, CLIP = 4, 60, 0.5, 4.0
GAMMA = 2.0


@pytest.fixture(scope="module")
def series():
    a1 = np.zeros((M, M))
    a1[:, 0] = [0.6, -0.6, 0.6, -0.6]
    a2 = -a1
    seq = seppchange.CoefficientSequence(((1, a1), (31, a2)))
    config = seppchange.ModelConfig(v=V, clip=CLIP)
    return seppchange.generate_series(seq, config, T, seed=7)


def _report(series, lam: float, grid: int = 5) -> dict:
    config = seppchange.ModelConfig(v=V, clip=CLIP)
    opts = seppchange.DetectOptions(lam=lam, gamma=GAMMA, grid=grid)
    rep = seppchange.detect(series, config, opts)
    return json.loads(json.dumps(sc_cli.report_json(series, config, rep, {})))


@pytest.fixture(scope="module")
def fitted(series):
    """A report whose fits are non-zero and which has a change point."""
    report = _report(series, lam=1.0)
    assert report["change_points"], "instance should split at this lambda"
    assert any(np.abs(np.asarray(s["matrix"])).sum() > 0 for s in report["segments"])
    return report


@pytest.fixture(scope="module")
def zero(series):
    """A report at a lambda where every window's fit is the zero matrix."""
    return _report(series, lam=1e4, grid=1)


# ---------------------------------------------------------------------------
# acceptance


def test_checks_accept_program_output(series, fitted):
    counts = series.counts
    checks.check_report(fitted, counts, V, CLIP, 1.0, GAMMA)
    checks.check_kkt(fitted, counts, V, CLIP, 1.0)
    screen = checks.zero_screen(counts, V, CLIP, 1.0, 5, 2)
    assert not screen.all_zero
    checks.check_zero_consistency(fitted, screen, GAMMA)
    config = seppchange.ModelConfig(v=V, clip=CLIP)
    fit = seppchange.fit_interval(series, seppchange.Interval(1, T), 1.0, config)
    one_block = checks.partition_objective(counts, V, CLIP, 1.0, GAMMA, [(1, T, np.asarray(fit.matrix))])
    checks.check_not_worse(fitted, one_block, "one-block partition")


def test_zero_test_accepts_all_zero_estimate(series, zero):
    screen = checks.zero_screen(series.counts, V, CLIP, 1e4, 1, 2)
    assert screen.all_zero and screen.windows == (T - 1) * T // 2
    checks.check_report(zero, series.counts, V, CLIP, 1e4, GAMMA)
    checks.check_zero_consistency(zero, screen, GAMMA)


def test_admissible_blocks_follow_the_grid():
    assert checks.admissible_blocks(7, 3, 2) == [(1, 3), (1, 6), (1, 7), (4, 6), (4, 7)]


def test_replication_rows_accept_consistent_rows():
    truth = [31, 61]
    rows = [
        {"rep": "0", "hausdorff": "2", "flagged": "0", "k_error": "0", "k_hat": "2",
         "change_points": "30;63", "nonconverged_fits": "0"},
        {"rep": "1", "hausdorff": "90", "flagged": "1", "k_error": "2", "k_hat": "0",
         "change_points": "", "nonconverged_fits": "0"},
    ]
    checks.check_replication_rows(rows, truth, 90, 2)
    checks.check_row_reproduced(rows[0], {"change_points": [30, 63], "nonconverged_fits": 0})


# ---------------------------------------------------------------------------
# rejection of corrupted reports


def _corrupt(report: dict, edit) -> dict:
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


def test_rejects_corrupted_cost(series, fitted):
    bad = _corrupt(fitted, lambda r: r["segments"][0].__setitem__("cost", r["segments"][0]["cost"] + 1e-3))
    with pytest.raises(checks.CheckFailed, match="cost"):
        checks.check_segment_costs(bad, series.counts, V, CLIP, 1.0)
    with pytest.raises(checks.CheckFailed, match="total_objective"):
        checks.check_objective(bad, GAMMA)


def test_rejects_corrupted_objective(fitted):
    bad = _corrupt(fitted, lambda r: r.__setitem__("total_objective", r["total_objective"] - 0.5))
    with pytest.raises(checks.CheckFailed, match="total_objective"):
        checks.check_objective(bad, GAMMA)


def _nudge_matrix(report: dict) -> None:
    A = np.asarray(report["segments"][0]["matrix"])
    A[0, 1] += 0.05
    report["segments"][0]["matrix"] = A.tolist()


def test_rejects_corrupted_matrix(series, fitted):
    bad = _corrupt(fitted, _nudge_matrix)
    with pytest.raises(checks.CheckFailed, match="window"):
        checks.check_segment_costs(bad, series.counts, V, CLIP, 1.0)
    with pytest.raises(checks.CheckFailed, match="first-order"):
        checks.check_kkt(bad, series.counts, V, CLIP, 1.0)


def test_rejects_row_outside_the_ball(fitted):
    def blow_up(r):
        A = np.asarray(r["segments"][0]["matrix"])
        A[2] = 0.0
        A[2, 0] = 1.01
        r["segments"][0]["matrix"] = A.tolist()

    with pytest.raises(checks.CheckFailed, match="row l1-norm"):
        checks.check_row_norms(_corrupt(fitted, blow_up))


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["change_points"].__setitem__(0, r["change_points"][0] + 1),
        lambda r: r["segments"][-1].__setitem__("end", r["T"] - 1),
        lambda r: r["change_points"].append(r["T"]),
        lambda r: r["change_points"].insert(0, 1),
    ],
    ids=["moved-point", "short-last-window", "extra-point", "point-at-1"],
)
def test_rejects_corrupted_change_points(fitted, edit):
    with pytest.raises(checks.CheckFailed):
        checks.check_tiling(_corrupt(fitted, edit))


def test_zero_test_rejects_split_of_all_zero_series(series, zero):
    """A split with exact zero-fit costs passes every other check but the zero test."""
    c = 30
    segs = []
    for a, e in ((1, c - 1), (c - 1, T)):
        nll = checks.window_nll(series.counts, V, CLIP, np.zeros((M, M)), a, e)
        segs.append({"start": a, "end": e, "cost": nll, "unpenalized_nll": nll,
                     "matrix": np.zeros((M, M)).tolist()})
    bad = dict(zero, change_points=[c], segments=segs,
               total_objective=segs[0]["cost"] + segs[1]["cost"] + 2 * GAMMA)
    checks.check_report(bad, series.counts, V, CLIP, 1e4, GAMMA)
    screen = checks.zero_screen(series.counts, V, CLIP, 1e4, 1, 2)
    with pytest.raises(checks.CheckFailed, match="every window fit is zero"):
        checks.check_zero_consistency(bad, screen, GAMMA)


def test_rejects_objective_above_reference(fitted):
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_not_worse(fitted, fitted["total_objective"] - 1.0, "true partition")


def test_replication_rows_reject_wrong_scores():
    row = {"rep": "0", "hausdorff": "3", "flagged": "0", "k_error": "0", "k_hat": "2",
           "change_points": "30;63", "nonconverged_fits": "0"}
    with pytest.raises(checks.CheckFailed, match="hausdorff"):
        checks.check_replication_rows([row], [31, 61], 90, 1)
    with pytest.raises(checks.CheckFailed, match="expected 0..1"):
        checks.check_replication_rows([row], [31, 61], 90, 2)
    with pytest.raises(checks.CheckFailed, match="detect found"):
        checks.check_row_reproduced(row, {"change_points": [30, 62], "nonconverged_fits": 0})
