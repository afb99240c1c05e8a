"""Shared domain types for piecewise-stationary self-exciting Poisson count series.

Conventions used across the package:

* Time indices are 1-based everywhere in the public API: a series of length T
  has observations X(1), ..., X(T), stored column-wise in an (M, T) array.
* A change point is the *first* index of a new regime, i.e. the coefficient
  matrix at time t differs from the one at t-1 exactly when t is a change
  point.
* Intervals [s, e] are closed integer intervals of time points.  A fit on an
  interval sums the transitions t -> t+1 for t in [s, e-1], so an interval
  must contain at least two points before it has a well-defined fit.
* A partition splits [1, T] into regime blocks [s, e] (see
  ``induced_partition``).  The partition objective charges block [s, e] with
  the fit on its window [max(s-1, 1), e], the transitions whose target lies in
  the block, so the windows of any partition cover the transitions
  1 -> 2, ..., T-1 -> T exactly once.  The partition layer enforces a
  configurable minimum block length on top of that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROW_NORM_TOL = 1e-12

SOURCE_SIMULATED = "simulated"
SOURCE_INGESTED = "ingested"
_SOURCES = (SOURCE_SIMULATED, SOURCE_INGESTED)


class DataError(ValueError):
    """Raised when external data (files, arrays) violates the format contract."""


class SolverFailure(RuntimeError):
    """Raised on hard numerical failure (non-finite objective or gradient)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EventSeries:
    """An observed count matrix with M coordinates over T time points.

    ``counts[m, t]`` is the count of coordinate m+1 at time t+1 (the array is
    0-based, the model is 1-based).  Instances are immutable and safe to share
    across threads.
    """

    counts: np.ndarray
    source: str = SOURCE_SIMULATED
    provenance: str | None = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise DataError(f"counts must be 2-D (M, T), got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(np.isfinite(counts)) or np.any(counts != np.floor(counts)):
                raise DataError("counts must be integral")
            counts = counts.astype(np.int64)
        else:
            counts = counts.astype(np.int64, copy=True)
        if counts.size and counts.min() < 0:
            raise DataError("counts must be non-negative")
        m, t = counts.shape
        if m < 1:
            raise DataError("need at least one coordinate (M >= 1)")
        if t < 2:
            raise DataError("need at least two time points (T >= 2)")
        if self.source not in _SOURCES:
            raise DataError(f"source must be one of {_SOURCES}, got {self.source!r}")
        object.__setattr__(self, "counts", _readonly(counts))

    @property
    def M(self) -> int:
        return self.counts.shape[0]

    @property
    def T(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class ModelConfig:
    """Fixed model parameters: intercept v and design clip level.

    ``v`` is the known intercept on the log-intensity scale and ``clip`` the
    threshold applied coordinate-wise to counts inside the design function,
    which reads only the most recent observation.
    """

    v: float
    clip: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.v):
            raise ValueError("intercept v must be finite")
        if not (self.clip > 0):
            raise ValueError("clip must be positive")


@dataclass(frozen=True)
class CoefficientSequence:
    """Piecewise-constant map t -> A(t), stored as (start, matrix) segments.

    Segment starts are strictly increasing 1-based indices and the first
    segment starts at 1.  Every matrix row must have l1-norm at most 1 (the
    stability constraint), and consecutive matrices must actually differ.
    """

    segments: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("need at least one segment")
        starts = [int(s) for s, _ in self.segments]
        if starts[0] != 1:
            raise ValueError("first segment must start at 1")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        mats = []
        m = None
        for s, a in self.segments:
            a = np.asarray(a, dtype=np.float64)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("coefficient matrices must be square")
            if m is None:
                m = a.shape[0]
            elif a.shape[0] != m:
                raise ValueError("all matrices must share the same dimension")
            if not np.all(np.isfinite(a)):
                raise ValueError("coefficient matrices must be finite")
            rownorm = np.abs(a).sum(axis=1).max()
            if rownorm > 1.0 + ROW_NORM_TOL:
                raise ValueError(
                    f"row l1-norm {rownorm:.12g} exceeds the stability bound 1"
                )
            mats.append(_readonly(a))
        for prev, cur in zip(mats, mats[1:]):
            if np.linalg.norm(cur - prev) == 0.0:
                raise ValueError("consecutive segments must differ; merge equal ones")
        object.__setattr__(
            self, "segments", tuple((s, a) for (s, _), a in zip(self.segments, mats))
        )

    @property
    def M(self) -> int:
        return self.segments[0][1].shape[0]

    @property
    def change_points(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.segments[1:])

    @property
    def K(self) -> int:
        return len(self.segments) - 1

    def matrix_at(self, t: int) -> np.ndarray:
        """Matrix in force at (1-based) time t."""
        if t < 1:
            raise ValueError("time index must be >= 1")
        out = self.segments[0][1]
        for s, a in self.segments[1:]:
            if t >= s:
                out = a
            else:
                break
        return out


@dataclass(frozen=True)
class Interval:
    """Closed 1-based integer interval [start, end] of time points.

    Length-1 intervals are representable (partitions induced by adjacent
    change points contain them) but carry no transitions, so they are rejected
    wherever a segment cost is evaluated.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"invalid interval [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def transitions(self) -> int:
        return self.length - 1


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing estimated change points; each is a segment's first index."""

    points: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        pts = tuple(int(p) for p in self.points)
        if any(p < 2 for p in pts):
            raise ValueError("change points must lie in (1, T]")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("change points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def induced_partition(cps: ChangePointSet, T: int) -> list[Interval]:
    """Split [1, T] into the blocks [1, c1-1], [c1, c2-1], ..., [cK, T].

    The inverse of reading change points off a partition: block k+1 starts at
    the k-th change point.  Blocks of length 1 can occur for adjacent points.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    if cps.points and cps.points[-1] > T:
        raise ValueError("change points must lie in (1, T]")
    bounds = (1,) + cps.points + (T + 1,)
    return [Interval(a, b - 1) for a, b in zip(bounds, bounds[1:])]


def change_points_of(partition: list[Interval]) -> ChangePointSet:
    """Read the change points (block starts after the first) off a partition."""
    return ChangePointSet(tuple(block.start for block in partition[1:]))


def min_spacing_and_jump(
    seq: CoefficientSequence, T: int
) -> tuple[int, float | None]:
    """Minimal segment spacing and minimal Frobenius jump of a true sequence.

    Spacing counts the boundary segments with eta_0 = 1 and eta_{K+1} = T + 1.
    With no change points the spacing is T and the jump size is undefined
    (returned as None rather than 0 or infinity, so it cannot poison minima
    computed downstream).
    """
    if T < seq.segments[-1][0]:
        raise ValueError("sequence extends beyond T")
    bounds = (1,) + seq.change_points + (T + 1,)
    delta = min(b - a for a, b in zip(bounds, bounds[1:]))
    if seq.K == 0:
        return delta, None
    mats = [a for _, a in seq.segments]
    kappa = min(
        float(np.linalg.norm(b - a)) for a, b in zip(mats, mats[1:])
    )
    return delta, kappa
