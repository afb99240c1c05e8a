"""Simulation of piecewise-stationary self-exciting Poisson count series.

The generating model: given the history up to time t, the coordinates of
X(t+1) are conditionally independent Poisson variables with

    X_m(t+1) | history  ~  Poisson( exp( v + A_m(t+1) . g(X(t)) ) ),

where A(t+1) is the coefficient matrix in force at time t+1 (so an estimated
change point marks the first index whose generating law changed) and g clips
each coordinate's most recent count at the configured level.

Randomness is counter-based: one root seed keys a Philox stream and every
(replication, time) pair addresses its own block of the stream, so
replications can run in parallel in any order and still reproduce bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import CoefficientSequence, EventSeries, ModelConfig
from .glm import design_function

CANONICAL_JUMP_SIZES = (0.15, 0.20, 0.25, 0.30, 0.35)

_SEED_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named simulation scenario plus its replication seed.

    ``kind`` is one of ``"a"`` (one change point, jump size ``rho``),
    ``"b"`` (two change points, series length ``T``), ``"c"`` (two change
    points, dimension ``M``) or ``"custom"`` (explicit ``seq``/``config``/
    ``T``).
    """

    kind: str
    rho: float | None = None
    T: int | None = None
    M: int | None = None
    seq: CoefficientSequence | None = None
    config: ModelConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "c", "custom"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "a":
            if self.rho is None or self.rho <= 0:
                raise ValueError("setting (a) needs a positive jump size rho")
            if not any(abs(self.rho - c) < 1e-12 for c in CANONICAL_JUMP_SIZES):
                warnings.warn(
                    f"rho={self.rho} is outside the canonical grid "
                    f"{CANONICAL_JUMP_SIZES}",
                    stacklevel=2,
                )
        elif self.kind == "b":
            if self.T is None or self.T < 6 or self.T % 3 != 0:
                raise ValueError("setting (b) needs T >= 6 divisible by 3")
        elif self.kind == "c":
            if self.M is None or self.M < 12:
                raise ValueError(
                    "setting (c) needs M >= 12 (the third column pattern "
                    "reaches coordinate 12)"
                )
        else:
            if self.seq is None or self.config is None or self.T is None:
                raise ValueError("custom scenarios need seq, config and T")
            if self.T < 2:
                raise ValueError("custom scenarios need T >= 2")


def _stream(seed: int, replication: int, t: int) -> np.random.Generator:
    """Generator addressing the (replication, t) block of the root stream.

    Philox counter words 2 and 3 hold the replication and time indices; the
    low words advance with consumption, so distinct (replication, t) pairs can
    never collide.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    counter = np.array(
        [0, 0, replication & 0xFFFFFFFFFFFFFFFF, t & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def next_column(
    matrix: np.ndarray,
    config: ModelConfig,
    prev_column: np.ndarray,
    t: int,
    seed: int,
    replication: int = 0,
) -> np.ndarray:
    """Draw X(t+1) given X(t), using the matrix in force at time t+1.

    The conditional law factorizes over coordinates; the intensity of every
    coordinate is bounded by exp(v + clip) whenever the matrix rows satisfy
    the stability constraint, and that bound is checked here.
    """
    g = design_function(prev_column, config.clip)
    z = config.v + matrix @ g
    if np.any(z > config.v + config.clip + 1e-9):
        raise RuntimeError(
            "conditional intensity exceeded exp(v + clip); the coefficient "
            "matrix violates the stability constraint"
        )
    return _stream(seed, replication, t).poisson(np.exp(z))


def generate_series(
    seq: CoefficientSequence,
    config: ModelConfig,
    T: int,
    seed: int,
    replication: int = 0,
) -> EventSeries:
    """Generate a length-T series from a piecewise-constant coefficient map.

    X(1) is drawn as independent Poisson(exp(v)) per coordinate (the
    baseline-intensity state), then each next column follows the conditional
    Poisson law under the matrix of its own segment.  Identical
    (seq, config, T, seed, replication) arguments reproduce the exact same
    series on any platform.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    if seq.segments[-1][0] > T:
        raise ValueError("coefficient segments extend beyond T")
    m = seq.M
    counts = np.zeros((m, T), dtype=np.int64)
    counts[:, 0] = _stream(seed, replication, 0).poisson(
        np.exp(config.v), size=m
    )
    matrices = [seq.matrix_at(t) for t in range(1, T + 1)]
    for i in range(1, T):
        counts[:, i] = next_column(
            matrices[i], config, counts[:, i - 1], i, seed, replication
        )
    return EventSeries(counts, source="simulated", provenance=f"seed={seed},rep={replication}")


def _setting_a(rho: float) -> tuple[CoefficientSequence, ModelConfig, int]:
    """One change point, varying jump size: T=300, M=30, clip 6, v=1/2.

    Columns 1 and 2 carry the signal: the alternating-sign vector and its
    negation, scaled by rho, swap places at time 151.
    """
    T, M = 300, 30
    sign = np.where(np.arange(1, M + 1) % 2 == 1, 1.0, -1.0)  # +1 on odd coords
    a1 = np.zeros((M, M))
    a1[:, 0] = rho * sign
    a1[:, 1] = -rho * sign
    a2 = np.zeros((M, M))
    a2[:, 0] = -rho * sign
    a2[:, 1] = rho * sign
    seq = CoefficientSequence(((1, a1), (151, a2)))
    return seq, ModelConfig(v=0.5, clip=6.0), T

def _setting_b(T: int) -> tuple[CoefficientSequence, ModelConfig, int]:
    """Two change points, varying spacing: M=40, clip 8, v=1/4, tridiagonal.

    Diagonal, superdiagonal and subdiagonal bands each hold +/-0.15 and flip
    according to the third of the series: changes at T/3+1 and 2T/3+1.
    """
    if T % 3 != 0:
        raise ValueError("setting (b) needs T divisible by 3")
    M = 40
    def tri(diag: float, sup: float, sub: float) -> np.ndarray:
        a = np.zeros((M, M))
        idx = np.arange(M)
        a[idx, idx] = diag
        a[idx[:-1], idx[:-1] + 1] = sup   # i - j = -1
        a[idx[1:], idx[1:] - 1] = sub     # i - j = +1
        return a
    a1 = tri(0.15, -0.15, 0.15)
    a2 = tri(-0.15, 0.15, 0.15)
    a3 = tri(0.15, 0.15, -0.15)
    seq = CoefficientSequence(((1, a1), (T // 3 + 1, a2), (2 * T // 3 + 1, a3)))
    return seq, ModelConfig(v=0.25, clip=8.0), T


def _setting_c_columns(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c1 = np.zeros(M)
    c1[0:4] = [-0.075, 0.15, 0.3, -0.3]
    c2 = np.zeros(M)
    # The published magnitude for coordinate 8 (1.5) breaks the row-l1
    # stability bound; 0.15 keeps the pattern feasible and in family with the
    # other entries (all multiples of 0.075).
    c2[4:9] = [0.375, -0.225, -0.075, 0.15, 0.225]
    c3 = np.zeros(M)
    c3[8:12] = [-0.15, -0.075, 0.45, -0.225]
    return c1, c2, c3


def _setting_c(M: int) -> tuple[CoefficientSequence, ModelConfig, int]:
    """Two change points, varying dimension: T=450, clip 4, v=1/5.

    The first three columns rotate through three fixed sparse patterns;
    changes at 151 and 301.
    """
    T = 450
    c1, c2, c3 = _setting_c_columns(M)
    def cols(x, y, z) -> np.ndarray:
        a = np.zeros((M, M))
        a[:, 0], a[:, 1], a[:, 2] = x, y, z
        return a
    seq = CoefficientSequence(
        ((1, cols(c1, c2, c3)), (151, cols(c2, c3, c3)), (301, cols(c3, c2, c1)))
    )
    return seq, ModelConfig(v=0.2, clip=4.0), T


def build_scenario(
    spec: ScenarioSpec,
) -> tuple[CoefficientSequence, ModelConfig, int]:
    """Materialize a scenario: true coefficient sequence, model config and T."""
    if spec.kind == "a":
        return _setting_a(spec.rho)
    if spec.kind == "b":
        return _setting_b(spec.T)
    if spec.kind == "c":
        return _setting_c(spec.M)
    return spec.seq, spec.config, spec.T


def union_support_size(seq: CoefficientSequence) -> int:
    """Number of (row, column) pairs that are nonzero in any segment matrix."""
    mask = np.zeros_like(seq.segments[0][1], dtype=bool)
    for _, a in seq.segments:
        mask |= a != 0
    return int(mask.sum())
