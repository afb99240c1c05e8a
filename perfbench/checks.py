"""Independent checks of seppchange's outputs, from the model's definitions.

Nothing here imports seppchange: every quantity is recomputed with numpy from
the counts, the model parameters and the matrices a report gives.  For a
window W = [a, e] of time points, which holds the transitions t -> t+1 for
t = a..e-1,

    nll(A, W) = sum_t sum_m  exp(v + A_m g(t)) - X_m(t+1) (v + A_m g(t)),
    g(t)      = min(X(t), clip)                       (coordinate-wise),
    H(A, W)   = nll(A, W) + lam * sqrt(e - a + 1) * ||A||_1,
                subject to ||A_m||_1 <= 1 for every row m.

A regime block [s, e] is charged with the fit on its window [max(s-1, 1), e],
so the windows of a partition tile the transitions 1..T-1, and the partition
objective is the sum of the window costs plus gamma per block.

Every check raises ``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A reported cost and its recomputation use the same matrix and differ only
# in summation order: about 1e-13 relative on sums of 10^4 terms.
COST_RTOL = 1e-9
# The solver's l1-ball projection is exact up to rounding.
ROW_NORM_SLACK = 1e-9
# Objectives of different fits agree only to solver accuracy (see README).
COMPARE_RTOL = 1e-7
# Allowance of the first-order residual, in units of the bound the solver's
# stopping rule implies (see kkt_excess and README).
KKT_FACTOR = 8.0


class CheckFailed(Exception):
    """An output of the program disagrees with its independent recomputation."""


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def load_counts(path) -> np.ndarray:
    """Read a counts CSV (header t,x1,...,xM) into an (M, T) integer array."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return np.ascontiguousarray(data[:, 1:].T)


def write_counts(path, counts: np.ndarray) -> None:
    """Write an (M, T) count array as a counts CSV."""
    m, t = counts.shape
    lines = ["t," + ",".join(f"x{i}" for i in range(1, m + 1))]
    lines += [f"{j + 1}," + ",".join(str(int(c)) for c in counts[:, j]) for j in range(t)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def design(counts: np.ndarray, clip: float) -> tuple[np.ndarray, np.ndarray]:
    """Columns t = 1..T-1 of the clipped design g(t) and of the targets X(t+1)."""
    x = np.asarray(counts, dtype=np.float64)
    return np.minimum(x[:, :-1], clip), x[:, 1:]


def window_nll(counts, v: float, clip: float, A: np.ndarray, a: int, e: int) -> float:
    g, y = design(counts, clip)
    g, y = g[:, a - 1 : e - 1], y[:, a - 1 : e - 1]
    z = v + A @ g
    return float(np.sum(np.exp(z) - y * z))


def window_cost(counts, v: float, clip: float, lam: float, A: np.ndarray, a: int, e: int) -> float:
    return window_nll(counts, v, clip, A, a, e) + lam * math.sqrt(e - a + 1) * float(
        np.abs(A).sum()
    )


def _segments(report: dict) -> list[tuple[int, int, np.ndarray, dict]]:
    m = int(report["M"])
    out = []
    for seg in report["segments"]:
        A = np.asarray(seg["matrix"], dtype=np.float64)
        if A.shape != (m, m):
            raise CheckFailed(f"segment matrix has shape {A.shape}, expected {(m, m)}")
        out.append((int(seg["start"]), int(seg["end"]), A, seg))
    return out


# ---------------------------------------------------------------------------
# checks on one report


def check_tiling(report: dict) -> None:
    """The windows tile the transitions 1..T-1 and match the change points."""
    T = int(report["T"])
    cps = [int(c) for c in report["change_points"]]
    if any(c < 2 or c > T for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise CheckFailed(f"change points {cps} are not increasing within (1, {T}]")
    segs = report["segments"]
    if len(segs) != len(cps) + 1:
        raise CheckFailed(f"{len(segs)} segments for {len(cps)} change points")
    blocks = list(zip([1] + cps, [c - 1 for c in cps] + [T]))
    expected_at = 1
    for (s, e), seg in zip(blocks, segs):
        window = (max(s - 1, 1), e)
        got = (int(seg["start"]), int(seg["end"]))
        if got != window:
            raise CheckFailed(f"block [{s}, {e}] reported window {got}, expected {window}")
        if got[0] != expected_at or got[1] <= got[0]:
            raise CheckFailed(f"window {got} does not continue the tiling at {expected_at}")
        expected_at = got[1]
    if expected_at != T:
        raise CheckFailed(f"windows end at {expected_at}, not at T={T}")


def check_row_norms(report: dict) -> None:
    for a, e, A, _ in _segments(report):
        worst = float(np.abs(A).sum(axis=1).max())
        if worst > 1.0 + ROW_NORM_SLACK:
            raise CheckFailed(f"window [{a}, {e}]: row l1-norm {worst!r} exceeds 1")


def check_segment_costs(report: dict, counts, v: float, clip: float, lam: float) -> None:
    for a, e, A, seg in _segments(report):
        nll = window_nll(counts, v, clip, A, a, e)
        cost = nll + lam * math.sqrt(e - a + 1) * float(np.abs(A).sum())
        if not _close(float(seg["unpenalized_nll"]), nll, COST_RTOL):
            raise CheckFailed(
                f"window [{a}, {e}]: nll {seg['unpenalized_nll']!r}, recomputed {nll!r}"
            )
        if not _close(float(seg["cost"]), cost, COST_RTOL):
            raise CheckFailed(f"window [{a}, {e}]: cost {seg['cost']!r}, recomputed {cost!r}")


def check_objective(report: dict, gamma: float) -> None:
    """total_objective = sum of the segment costs + gamma * (K + 1)."""
    costs = [float(seg["cost"]) for seg in report["segments"]]
    expected = math.fsum(costs) + gamma * len(costs)
    if not _close(float(report["total_objective"]), expected, COST_RTOL):
        raise CheckFailed(
            f"total_objective {report['total_objective']!r}, expected {expected!r}"
        )


def check_report(report: dict, counts, v: float, clip: float, lam: float, gamma: float) -> None:
    """Every check that holds for any report of the partition estimate."""
    check_tiling(report)
    check_row_norms(report)
    check_segment_costs(report, counts, v, clip, lam)
    check_objective(report, gamma)


# ---------------------------------------------------------------------------
# the exact zero test


@dataclass(frozen=True)
class ZeroScreen:
    """Result of the zero test over every admissible window.

    ``all_zero`` holds when every window's fit is the zero matrix;
    ``zero_nll`` is the nll of the zero matrix over all transitions.
    """

    all_zero: bool
    zero_nll: float
    windows: int


def admissible_blocks(T: int, grid: int, min_segment: int) -> list[tuple[int, int]]:
    """Blocks [s, e] with s on the grid {1, 1+grid, ...}, e the end of [1, T] or
    the point before a grid start, and at least ``min_segment`` points."""
    starts = list(range(1, T + 1, grid))
    ends = sorted({s - 1 for s in starts if s > 1} | {T})
    return [(s, e) for s in starts for e in ends if e - s + 1 >= min_segment]


def zero_screen(counts, v: float, clip: float, lam: float, grid: int, min_segment: int) -> ZeroScreen:
    """Exact zero test of every admissible block's window, with prefix sums.

    The fit on window W is the zero matrix iff, for every row m and column j,
    |sum_{t in W} (e^v - X_m(t+1)) g_j(t)| <= lam * sqrt|W|  (the KKT
    conditions at 0, which lies inside the l1 ball).  A window within 1e-9 of
    the threshold counts as non-zero, so rounding cannot decide the outcome.
    """
    g, y = design(counts, clip)
    M, n = g.shape
    T = n + 1
    ev = math.exp(v)
    P = np.zeros((T, M, M))
    np.cumsum(np.einsum("it,jt->tij", ev - y, g), axis=0, out=P[1:])
    blocks = admissible_blocks(T, grid, min_segment)
    all_zero = True
    by_start: dict[int, list[int]] = {}
    for s, e in blocks:
        by_start.setdefault(s, []).append(e)
    for s, ends in by_start.items():
        a = max(s - 1, 1)
        es = np.asarray(ends)
        stat = np.abs(P[es - 1] - P[a - 1]).max(axis=(1, 2))
        thr = lam * np.sqrt(es - a + 1)
        if np.any(stat > thr * (1.0 - 1e-9)):
            all_zero = False
            break
    zero_nll = float(np.sum(ev - v * y))
    return ZeroScreen(all_zero=all_zero, zero_nll=zero_nll, windows=len(blocks))


def check_zero_consistency(report: dict, screen: ZeroScreen, gamma: float) -> None:
    """Zero fits are additive over tiling windows, so no split can pay.

    When every window's fit is zero the estimate must be empty with objective
    zero_nll + gamma; in any case the objective cannot exceed that value,
    which the one-block zero matrix attains.
    """
    bound = screen.zero_nll + gamma
    objective = float(report["total_objective"])
    if screen.all_zero:
        if report["change_points"]:
            raise CheckFailed(
                f"every window fit is zero, yet change points {report['change_points']}"
            )
        if not _close(objective, bound, COST_RTOL):
            raise CheckFailed(f"all-zero objective {objective!r}, expected {bound!r}")
    elif objective > bound + COMPARE_RTOL * max(1.0, abs(bound)):
        raise CheckFailed(f"objective {objective!r} exceeds the zero partition's {bound!r}")


# ---------------------------------------------------------------------------
# optimality in the non-zero regime


def kkt_excess(counts, v: float, clip: float, lam: float, tol: float, A: np.ndarray, a: int, e: int) -> float:
    """Largest ratio, over the rows of A, of the first-order residual to its allowance.

    Row m minimizes F_m = f_m(a) + thr ||a||_1 over ||a||_1 <= 1, thr = lam sqrt|W|.
    At an optimum there is mu >= 0 (zero unless the row lies on the sphere)
    with grad_j = -(thr + mu) sign(a_j) on the support and |grad_j| <= thr + mu
    off it; mu is estimated as the median of -grad_j sign(a_j) - thr over the
    support.  The residual is the largest violation of these conditions.

    A row stops once one proximal-gradient step lowers F_m by at most
    tol * max(1, |F_m|).  That step has length at most sqrt(2 st tol |F_m|)
    and leaves a residual of at most (L + 1/st) times it, where L bounds the
    row's curvature and the line search keeps the step st near 1/L; so the
    residual is at most about 3 sqrt(L tol |F_m|).  The allowance is
    KKT_FACTOR sqrt(L tol max(1, |F_m|)), with L = sum_t e^z(t) ||g(t)||^2,
    the trace of the row's Hessian at the reported matrix.
    """
    g, y = design(counts, clip)
    g, y = g[:, a - 1 : e - 1], y[:, a - 1 : e - 1]
    thr = lam * math.sqrt(e - a + 1)
    z = v + A @ g
    ez = np.exp(z)
    grad = (ez - y) @ g.T
    F = np.sum(ez - y * z, axis=1) + thr * np.abs(A).sum(axis=1)
    allowance = KKT_FACTOR * np.sqrt(ez @ (g * g).sum(axis=0) * tol * np.maximum(1.0, np.abs(F)))
    worst = 0.0
    for m in range(A.shape[0]):
        row, gm = A[m], grad[m]
        support = row != 0.0
        mu = 0.0
        if support.any() and np.abs(row).sum() >= 1.0 - 1e-9:
            mu = max(0.0, float(np.median(-gm[support] * np.sign(row[support]))) - thr)
        level = thr + mu
        on = np.abs(gm[support] + level * np.sign(row[support]))
        off = np.maximum(np.abs(gm[~support]) - level, 0.0)
        residual = max(float(on.max(initial=0.0)), float(off.max(initial=0.0)))
        worst = max(worst, residual / allowance[m])
    return worst


def check_kkt(report: dict, counts, v: float, clip: float, lam: float) -> None:
    tol = float(report["options"]["tol"])
    for a, e, A, _ in _segments(report):
        r = kkt_excess(counts, v, clip, lam, tol, A, a, e)
        if not r <= 1.0:
            raise CheckFailed(f"window [{a}, {e}]: first-order residual {r:.3g} times its allowance")


def partition_objective(counts, v, clip, lam, gamma, fits) -> float:
    """Objective of a partition given as (window start, window end, matrix) fits."""
    return math.fsum(window_cost(counts, v, clip, lam, A, a, e) for a, e, A in fits) + gamma * len(fits)


def check_not_worse(report: dict, reference: float, what: str) -> None:
    objective = float(report["total_objective"])
    if objective > reference + COMPARE_RTOL * max(1.0, abs(reference)):
        raise CheckFailed(f"objective {objective!r} exceeds the {what}'s {reference!r}")


# ---------------------------------------------------------------------------
# replication batches


def hausdorff(A, B, T: int) -> tuple[int, bool]:
    """Two-sided Hausdorff distance; one empty set scores T and is flagged."""
    A, B = set(A), set(B)
    if not A and not B:
        return 0, False
    if not A or not B:
        return T, True
    d_ab = max(min(abs(x - y) for y in B) for x in A)
    d_ba = max(min(abs(x - y) for y in A) for x in B)
    return max(d_ab, d_ba), False


def parse_points(cell: str) -> list[int]:
    return [int(p) for p in cell.split(";") if p != ""]


def check_replication_rows(rows: list[dict], truth_cps, T: int, reps: int) -> None:
    """Each row of replications.csv scores its own change points against the truth."""
    got = sorted(int(r["rep"]) for r in rows)
    if got != list(range(reps)):
        raise CheckFailed(f"replications {got}, expected 0..{reps - 1}")
    for row in rows:
        est = parse_points(row["change_points"])
        d, flagged = hausdorff(est, truth_cps, T)
        expected = {
            "k_hat": len(est),
            "hausdorff": d,
            "flagged": int(flagged),
            "k_error": abs(len(set(est)) - len(set(truth_cps))),
        }
        for key, value in expected.items():
            if float(row[key]) != value:
                raise CheckFailed(f"replication {row['rep']}: {key} {row[key]}, expected {value}")


def check_row_reproduced(row: dict, report: dict) -> None:
    """A regenerated replication run through detect reproduces its batch row."""
    est = [int(c) for c in report["change_points"]]
    if parse_points(row["change_points"]) != est:
        raise CheckFailed(
            f"replication {row['rep']}: batch found {row['change_points']!r}, detect found {est}"
        )
    if int(row["nonconverged_fits"]) != int(report["nonconverged_fits"]):
        raise CheckFailed(f"replication {row['rep']}: non-converged counts differ")
