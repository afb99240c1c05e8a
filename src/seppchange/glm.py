"""Constrained l1-penalized Poisson likelihood fits on an interval.

For an interval I = [s, e] the (unpenalized) negative log-likelihood of a
coefficient matrix A is

    nll(A, I) = sum_{t=s}^{e-1} sum_m  exp(v + A_m g(t)) - X_m(t+1) (v + A_m g(t)),

with g(t) the clipped count vector at time t.  The segment estimate minimizes

    H(A, I) = nll(A, I) + lam * sqrt(|I|) * ||A||_1      over  max_m ||A_m||_1 <= 1,

a smooth convex loss plus a prox-friendly nonsmooth part.  The problem is
row-separable: row m minimizes F_m(a) = f_m(a) + thr ||a||_1 over ||a||_1 <= 1,
thr = lam sqrt(|I|), and the solver steps all rows at once, each on its own.

A step of a row strictly inside the ball is a working-set Newton step, the
proximal Newton method of glmnet (Friedman, Hastie & Tibshirani, JSS 2010;
Lee, Sun & Saunders, SIAM J. Optim. 2014) restricted to one orthant:

* The working set S is the row's support plus every coordinate j whose
  gradient exceeds the threshold, |grad_j| > thr.  sigma holds the signs on
  S: sign(a_j) on the support, -sign(grad_j) for a coordinate that enters.
* The direction solves (H_SS + 1e-10 tr(H_SS) I) d = -(grad_S + thr sigma_S),
  with H = g diag(e^z) g^T the row's Hessian.  The damping is needed: units
  whose clipped counts agree over the window give identical design columns,
  and then H_SS is singular.
* The direction keeps every coordinate in its orthant up to alpha = 1.  A
  coordinate that the full step would carry against sigma (a support
  coordinate changing sign, or an entering one moving the wrong way) is
  fixed so that alpha = 1 lands it on 0, and the rest of S is solved again
  with that displacement moved to the right-hand side.  This repeats, one
  zero crossing at a time, for a bounded number of re-solves; the line
  search clips whatever still crosses at 0.  A direction that was only
  clipped moved the other coordinates as if the clipped one had crossed,
  so the full step overshot and alpha was halved again and again.
* The step length alpha starts at 1 and halves.  The step is taken once
  the point lies in the ball and lowers F_m by more than
  tol * max(1, |F_m|).

When no such alpha exists, and always for a row on the sphere ||a||_1 = 1,
the row takes a proximal gradient step with backtracking line search.  Its
prox is the exact proximal point of the penalty-plus-constraint pair
(soft-threshold followed by an l1-ball projection, which composes into a
single soft-threshold).  The stopping rule is that of plain proximal
gradient: a row stops once a gradient step lowers F_m by at most
tol * max(1, |F_m|), and returns that step's point.  Newton steps only find
the support and the curvature sooner: a few dozen steps where proximal
gradient alone took thousands on these ill-conditioned Hessians.

Both line searches walk a ladder of rungs, one trial point each: alpha = 1,
1/2, 1/4, ... for a Newton step, the shrinking step sizes for a gradient
step.  The ladder is tried in batches of rungs, the first batch one rung
and the later ones eight, and one batched evaluation covers every rung of a
batch for every row still searching.  Each row takes its first accepted
rung, the point that one trial at a time would reach; batching changes only
the number of rounds, not the steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventSeries, Interval, ModelConfig, SolverFailure

# Rungs of a line search: trials per step, at most, and per batch after the first.
_BACKTRACK_LIMIT = 200
_RUNGS = 8
# A row whose l1 norm reaches this lies on the sphere and takes gradient steps.
_SPHERE = 1.0 - 1e-9
# Ridge added to a working set's Hessian, relative to its trace.
_DAMPING = 1e-10
# Re-solves of a Newton direction after fixing the coordinates it carries
# across zero; whatever still crosses after the last one is clipped at 0.
_SIGN_ROUNDS = 16
# Rows per batched Hessian product: its rows x columns x transitions
# temporary would otherwise reach 2 MB at 30 units and 300 transitions.
_HESSIAN_ROWS = 8
# Floats per rows x rungs x transitions temporary of a line search (128 KB);
# unchunked, two of them would reach 2.3 MB at 40 units and 450 transitions.
_LADDER_FLOATS = 1 << 14


@dataclass(frozen=True)
class SolverOptions:
    """Controls for one interval fit (see the module docstring for a step).

    ``tol`` is the relative objective decrease below which a proximal
    gradient step stops its row; a Newton step is taken only if it lowers
    the row's objective by more than that.  ``max_iter`` caps the steps per
    row, Newton and gradient steps alike.  ``init`` is an optional warm-start
    matrix (None starts from zero).  ``init_step`` is the first trial size of
    the gradient step, doubled before each gradient step and refined by
    backtracking with shrink factor ``beta``.
    """

    tol: float = 1e-8
    max_iter: int = 5000
    init: np.ndarray | None = None
    beta: float = 0.5
    init_step: float = 1.0
    track_history: bool = False

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not self.init_step > 0:
            raise ValueError("init_step must be positive")


@dataclass(frozen=True)
class SegmentFit:
    """A fitted matrix on an interval together with its penalized cost.

    ``iterations[m]`` counts the steps row m took, Newton and gradient steps
    alike, up to the gradient step that stopped it, or ``max_iter`` if none
    did; ``converged[m]`` says whether one did.
    """

    interval: Interval
    matrix: np.ndarray
    cost: float
    unpenalized_nll: float
    iterations: np.ndarray
    converged: np.ndarray
    history: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "iterations", _frozen(self.iterations))
        object.__setattr__(self, "converged", _frozen(self.converged))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def design_function(history_tail: np.ndarray, clip: float) -> np.ndarray:
    """Clip the most recent observation coordinate-wise at ``clip``.

    Output entries lie in [0, clip].  This is the bounded feature map g
    feeding the log-intensity, in the simulator and in every fit; it maps a
    count vector, or each column of a count matrix, to floats.
    """
    if not clip > 0:
        raise ValueError("clip must be positive")
    return np.minimum(np.asarray(history_tail, dtype=np.float64), clip)


def design_matrices(
    series: EventSeries, config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Clipped design columns G[:, t-1] = g(X(t)) and targets X(t+1), t = 1..T-1."""
    counts = series.counts
    g = design_function(counts[:, :-1], config.clip)
    xp = counts[:, 1:].astype(np.float64)
    return g, xp


def _slice(series: EventSeries, interval: Interval, config: ModelConfig):
    if interval.end > series.T:
        raise ValueError(
            f"interval [{interval.start}, {interval.end}] exceeds T={series.T}"
        )
    if interval.transitions < 1:
        raise ValueError("interval must contain at least 2 time points")
    lo, hi = interval.start - 1, interval.end - 1
    counts = series.counts
    g = design_function(counts[:, lo:hi], config.clip)
    xp = counts[:, lo + 1 : hi + 1].astype(np.float64)
    return g, xp


def nll(
    A: np.ndarray,
    series: EventSeries,
    interval: Interval,
    config: ModelConfig,
) -> float:
    """Unpenalized Poisson negative log-likelihood of A over the interval."""
    g, xp = _slice(series, interval, config)
    z = config.v + np.asarray(A, dtype=np.float64) @ g
    with np.errstate(over="ignore"):
        val = float(np.sum(np.exp(z) - xp * z))
    if not np.isfinite(val):
        raise SolverFailure("non-finite likelihood value (overflow)")
    return val


def nll_gradient(
    A: np.ndarray,
    series: EventSeries,
    interval: Interval,
    config: ModelConfig,
) -> np.ndarray:
    """Gradient of the interval nll; row m depends only on row m of A."""
    g, xp = _slice(series, interval, config)
    z = config.v + np.asarray(A, dtype=np.float64) @ g
    with np.errstate(over="ignore"):
        grad = (np.exp(z) - xp) @ g.T
    if not np.all(np.isfinite(grad)):
        raise SolverFailure("non-finite gradient (overflow)")
    return grad


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _l1_project_inplace(rows: np.ndarray) -> None:
    """Project each row that leaves the l1 ball of radius 1 onto it.

    Euclidean projection onto the l1 ball is itself a soft-threshold at the
    level where the shrunk norm hits 1, found from the sorted magnitudes.  All
    violating rows share one sort and one cumulative sum.
    """
    out = (np.abs(rows).sum(axis=1) > 1.0).nonzero()[0]
    if out.size == 0:
        return
    x = rows[out]
    u = np.sort(np.abs(x), axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    k = np.arange(1, u.shape[1] + 1)
    valid = u - (css - 1.0) / k > 0
    kmax = u.shape[1] - np.argmax(valid[:, ::-1], axis=1)  # the last valid k
    tau = (css[np.arange(out.size), kmax - 1] - 1.0) / kmax
    rows[out] = soft_threshold(x, tau[:, None])


def prox(x: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal point of threshold*||.||_1 plus the l1-ball indicator.

    Soft-threshold first; if the result leaves the unit l1 ball, apply the
    ball projection (a second soft-threshold).  The composition of the two
    soft-thresholds is again a soft-threshold, so the two-stage rule is the
    exact prox of the sum.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    y = soft_threshold(np.asarray(x, dtype=np.float64), threshold)
    y = np.atleast_2d(y)
    _l1_project_inplace(y)
    return y[0] if np.asarray(x).ndim == 1 else y


def _prox_rows(rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    out = np.sign(rows) * np.maximum(np.abs(rows) - thresholds[:, None], 0.0)
    _l1_project_inplace(out)
    return out


def _rung_batches():
    """The rung ranges [lo, hi) of a line search, in the order they are tried.

    The first batch is rung 0 alone, because most rows of a zero fit pass it;
    later batches hold ``_RUNGS`` rungs each, up to ``_BACKTRACK_LIMIT``.
    """
    lo, hi = 0, 1
    while lo < _BACKTRACK_LIMIT:
        yield lo, hi
        lo, hi = hi, min(hi + _RUNGS, _BACKTRACK_LIMIT)


def _take_first(state, r, cand, norm, accept, g, xp, v, thr):
    """Move each of rows ``r`` to its first candidate that ``accept`` passes.

    ``cand`` holds K candidates per row, the rows' rungs in order and one row
    after the other, shape (rows * K, M); ``norm`` holds their l1 norms,
    shape (rows, K).  ``accept(sl, fc)`` returns the acceptance mask of the
    rows ``sl`` of ``r`` from their candidates' nll ``fc``, shape (rows, K).
    The candidates are evaluated a few rows at a time, so that no
    (rows, K, transitions) temporary holds more than ``_LADDER_FLOATS``
    floats.  Updates ``state`` in place and returns each row's accepted rung
    within the batch, or -1.
    """
    A, ez, f_rows, obj_rows = state
    n, K = norm.shape
    T = g.shape[1]
    per = max(1, _LADDER_FLOATS // (K * T))
    first = np.full(n, -1)
    for lo in range(0, n, per):
        sl = slice(lo, lo + per)
        rs = r[sl]
        # Two (rows * K, T) arrays: z, then exp(z), then z becomes the nll terms.
        z = cand[lo * K : (lo + per) * K] @ g
        z += v
        with np.errstate(over="ignore", invalid="ignore"):
            ezc = np.exp(z)
            terms = z.reshape(rs.size, K, T)
            terms *= xp[rs, None, :]
            np.subtract(ezc.reshape(terms.shape), terms, out=terms)
            fc = np.einsum("ij->i", z).reshape(rs.size, K)
            ok = accept(sl, fc)
        hit = ok.any(axis=1).nonzero()[0]
        if hit.size:
            k = ok[hit].argmax(axis=1)
            j = hit * K + k  # the accepted candidates within the chunk
            moved = rs[hit]
            A[moved] = cand[lo * K + j]
            ez[moved] = ezc[j]
            f_rows[moved] = fc[hit, k]
            obj_rows[moved] = fc[hit, k] + thr * norm[lo + hit, k]
            first[lo + hit] = k
        del z, terms, ezc  # freed before the next chunk's are made
    return first


def _newton_step(state, rows, grad, g, xp, v, thr, tol):
    """One working-set Newton step on each of ``rows`` strictly inside the ball.

    Updates ``state`` (A, ez, f_rows, obj_rows) in place for the rows whose
    step was accepted and returns a mask of them over ``rows``.  The
    direction is sign-aware: a working-set coordinate j that the Newton step
    would carry against sigma_j is fixed at d_j = -a_j, so that alpha = 1
    puts it on exactly 0, and the rest is solved again, batched over the rows
    that still cross, for at most ``_SIGN_ROUNDS`` rounds.  ``b . d`` is the
    first-order decrease of the full step.  The line search tries alpha = 1,
    1/2, 1/4, ... and takes the first alpha that passes, clipping at 0 any
    coordinate that still changes sign; a row stops halving once alpha times
    that decrease is at most the decrease it must beat, and then falls back
    to a gradient step.  The ladder is tried in rung batches (``_rung_batches``):
    one batched evaluation covers every rung of a batch for every row still
    pending, and each row takes its first accepted rung, as one trial at a
    time would.
    """
    A, ez, f_rows, obj_rows = state
    took = np.zeros(rows.size, dtype=bool)
    a_rows = A[rows]
    inside = np.abs(a_rows).sum(axis=1) < _SPHERE
    support = a_rows != 0.0
    work = (support | (np.abs(grad) > thr)) & inside[:, None]
    cols = work.any(axis=0).nonzero()[0]
    if cols.size == 0:
        return took
    w = work[:, cols]
    sigma = np.where(support, np.sign(a_rows), -np.sign(grad))[:, cols]
    b = np.where(w, -(grad[:, cols] + thr * sigma), 0.0)
    gw = g[cols]
    H = np.empty((rows.size, cols.size, cols.size))
    for lo in range(0, rows.size, _HESSIAN_ROWS):
        chunk = slice(lo, lo + _HESSIAN_ROWS)
        np.matmul(gw * ez[rows[chunk], None, :], gw.T, out=H[chunk])
    H *= w[:, :, None] & w[:, None, :]
    diag = np.arange(cols.size)
    tr = H[:, diag, diag].sum(axis=1)
    damp = np.where(tr > 0.0, _DAMPING * tr, 1.0)
    H[:, diag, diag] += np.where(w, damp[:, None], 1.0)
    d = np.linalg.solve(H, b[..., None])[..., 0]
    # Fixing Z at d_Z = -a_Z moves H_{.,Z} (-a_Z) to the right-hand side of
    # the other coordinates; Z's own row and column become the identity.
    # Each round fixes, per row, the crossing coordinates that the step
    # brings to 0 first: entering ones (a_j = 0) get there at once, so the
    # first round takes all of them, and later rounds one support coordinate
    # each.  An entering coordinate that turns against sigma only after
    # others were fixed is not fixed; the clip holds it at 0.
    a_w = a_rows[:, cols]
    fixed = np.zeros_like(w)
    may_fix = w
    for _ in range(_SIGN_ROUNDS):
        cross = may_fix & ((a_w + d) * sigma < 0.0)
        redo = cross.any(axis=1).nonzero()[0]
        if redo.size == 0:
            break
        reach = np.full(cross.shape, np.inf)  # the alpha at which each reaches 0
        np.divide(-a_w, d, out=reach, where=cross)
        fixed |= cross & (reach <= reach.min(axis=1, keepdims=True))
        may_fix = w & support[:, cols]
        fz = fixed[redo]
        dz = np.where(fz, -a_w[redo], 0.0)
        Hr = H[redo]
        rhs = np.where(fz, 0.0, b[redo] - np.einsum("ijk,ik->ij", Hr, dz))
        Hr[fz[:, :, None] | fz[:, None, :]] = 0.0
        Hr[:, diag, diag] += fz
        d[redo] = np.linalg.solve(Hr, rhs[..., None])[..., 0] + dz
    slope = np.einsum("ij,ij->i", b, d)  # first-order decrease of a full step
    need = tol * np.maximum(1.0, np.abs(obj_rows[rows]))
    pend = (slope > need).nonzero()[0]
    for lo, hi in _rung_batches():
        if pend.size == 0:
            break
        alpha = np.ldexp(1.0, -np.arange(lo, hi))  # exactly 0.5 ** k
        # the rungs that halving would reach: a prefix of the batch per row
        live = alpha * slope[pend, None] > need[pend, None]
        K = int(np.count_nonzero(live.any(axis=0)))
        alpha, live = alpha[:K], live[:, :K]
        r = rows[pend]
        part = a_rows[pend][:, None, cols] + alpha[:, None] * d[pend, None]
        part[part * sigma[pend, None] < 0.0] = 0.0  # a coordinate that changes sign stops at 0
        cand = np.repeat(a_rows[pend], K, axis=0)
        cand[:, cols] = part.reshape(-1, cols.size)
        norm = np.abs(cand).sum(axis=1).reshape(pend.size, K)
        obj, bar = obj_rows[r], need[pend]

        def accept(sl, fc):
            nm = norm[sl]
            return live[sl] & (nm <= 1.0) & (obj[sl, None] - (fc + thr * nm) > bar[sl, None])

        first = _take_first(state, r, cand, norm, accept, g, xp, v, thr)
        took[pend[first >= 0]] = True
        pend = pend[first < 0]
        pend = pend[np.ldexp(1.0, -hi) * slope[pend] > need[pend]]
    return took


def _gradient_step(state, rows, grad, steps, g, xp, v, thr, beta):
    """One backtracking proximal-gradient step on each of ``rows``.

    The trial step doubles first and then shrinks by ``beta`` until the
    quadratic upper bound holds; the row keeps the accepted step size.  As
    in ``_newton_step``, the ladder of step sizes is tried in rung batches,
    and each row takes its first accepted rung.  Updates ``state`` in place.
    """
    A, ez, f_rows, obj_rows = state
    steps[rows] *= 2.0
    pend = np.arange(rows.size)
    for lo, hi in _rung_batches():
        if pend.size == 0:
            return
        K = hi - lo
        r = rows[pend]
        # the rungs' step sizes, shrunk one multiplication at a time
        ladder = np.full((pend.size, K), beta)
        ladder[:, 0] = steps[r]
        ladder = np.cumprod(ladder, axis=1)
        st = ladder.ravel()
        a = np.repeat(A[r], K, axis=0)
        gr = np.repeat(grad[pend], K, axis=0)
        cand = _prox_rows(a - st[:, None] * gr, st * thr)
        diff = cand - a
        quad = (
            np.repeat(f_rows[r], K)
            + np.einsum("ij,ij->i", gr, diff)
            + np.einsum("ij,ij->i", diff, diff) / (2.0 * st)
        ).reshape(pend.size, K)
        slack = 1e-12 * np.maximum(1.0, np.abs(f_rows[r]))
        norm = np.abs(cand).sum(axis=1).reshape(pend.size, K)

        def accept(sl, fc):
            return fc <= quad[sl] + slack[sl, None]

        first = _take_first(state, r, cand, norm, accept, g, xp, v, thr)
        got = first >= 0
        steps[r[got]] = ladder[got, first[got]]
        steps[r[~got]] = ladder[~got, -1] * beta
        pend = pend[~got]
    if pend.size:
        raise SolverFailure("backtracking line search failed to make progress")


def _fit_kernel(
    g: np.ndarray,
    xp: np.ndarray,
    v: float,
    thr: float,
    opts: SolverOptions,
    init: np.ndarray | None,
):
    """Row-parallel working-set Newton with a proximal-gradient fallback.

    Returns (matrix, per-row nll, per-row iterations, per-row converged,
    objective history or None).  Each iteration gives every active row one
    step: a working-set Newton step (``_newton_step``) when the row lies
    strictly inside the ball and that step lowers F_m by more than
    ``tol * max(1, |F_m|)``, else one backtracking proximal-gradient step
    (``_gradient_step``).  The working set is the support plus the
    coordinates whose gradient exceeds ``thr``; its Hessian is damped by
    1e-10 of its trace because identical design columns make it singular.
    The stopping rule is that of plain proximal gradient: a row stops when
    a gradient step lowers F_m by at most ``tol * max(1, |F_m|)``, and
    returns that step's point.  No step raises F_m, so the history is
    monotone.
    """
    m = g.shape[0]
    A = np.zeros((m, m)) if init is None else np.array(init, dtype=np.float64)
    if A.shape != (m, m):
        raise ValueError(f"warm-start matrix must be ({m}, {m}), got {A.shape}")
    z = v + A @ g
    ez = np.exp(z)
    f_rows = np.einsum("ij->i", ez - xp * z)
    del z
    if not np.all(np.isfinite(f_rows)):
        raise SolverFailure("non-finite objective at the starting point")
    obj_rows = f_rows + thr * np.abs(A).sum(axis=1)
    state = (A, ez, f_rows, obj_rows)
    steps = np.full(m, opts.init_step)
    iters = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    history = [float(obj_rows.sum())] if opts.track_history else None

    active = np.arange(m)
    for it in range(1, opts.max_iter + 1):
        grad = (ez[active] - xp[active]) @ g.T
        if not np.all(np.isfinite(grad)):
            raise SolverFailure("non-finite gradient during fit")
        rest = ~_newton_step(state, active, grad, g, xp, v, thr, opts.tol)
        if np.any(rest):
            rows = active[rest]
            before = obj_rows[rows]
            _gradient_step(state, rows, grad[rest], steps, g, xp, v, thr, opts.beta)
            after = obj_rows[rows]
            done = before - after <= opts.tol * np.maximum(1.0, np.abs(after))
            if np.any(done):
                finished = rows[done]
                iters[finished] = it
                converged[finished] = True
                stop = rest.copy()  # the finished rows, as positions in active
                stop[rest] = done
                active = active[~stop]
        if history is not None:
            history.append(float(obj_rows.sum()))
        if active.size == 0:
            break
    if active.size:
        iters[active] = opts.max_iter

    return A, f_rows, iters, converged, history


def fit_interval(
    series: EventSeries,
    interval: Interval,
    lam: float,
    config: ModelConfig,
    opts: SolverOptions = SolverOptions(),
) -> SegmentFit:
    """Minimize the penalized interval likelihood over the stability constraint.

    The penalty is lam * sqrt(|I|) * ||A||_1, counted once per interval.  Rows
    that hit ``max_iter`` are returned as-is with their ``converged`` flag
    cleared; this is a soft failure so that partition scans stay total.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    g, xp = _slice(series, interval, config)
    thr = lam * np.sqrt(interval.length)
    A, f_rows, iters, converged, history = _fit_kernel(
        g, xp, config.v, thr, opts, opts.init
    )
    nll_total = float(f_rows.sum())
    cost = nll_total + thr * float(np.abs(A).sum())
    return SegmentFit(
        interval=interval,
        matrix=A,
        cost=cost,
        unpenalized_nll=nll_total,
        iterations=iters,
        converged=converged,
        history=None if history is None else np.asarray(history),
    )
