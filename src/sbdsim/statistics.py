"""Replica statistics: density, pair correlation, factorial moments.

Estimators take one position array per replica (all at the same physical
time) and report between-replica standard errors throughout.  The factorial
moment of order n is the replica mean of the falling factorial
N (N-1) ... (N-n+1) of the window count; for a Poisson field with intensity
kappa it equals (kappa * volume)^n, which makes sub-Poisson behaviour
directly readable from the envelope fit below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CellGrid, Torus, Window, cell_runs, periodic_pairs
from .kernels import unit_ball_volume

# Largest log-space residual of the envelope fit that still reads as an
# exponential envelope in the order n.
ENVELOPE_RESIDUAL_TOL = 0.1
DEFAULT_N_MAX = 3  # a moment report's highest factorial moment order
DEFAULT_BINS = 20  # its pair correlation bins, shared with the config fields


class StatisticsError(ValueError):
    pass


def _check_replicas(snapshots) -> list[np.ndarray]:
    reps = [np.asarray(s, dtype=float) for s in snapshots]
    if len(reps) < 2:
        raise StatisticsError("need at least two replicas for standard errors")
    return reps


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def density(snapshots, torus: Torus) -> tuple[float, float]:
    """Mean points per unit volume across replicas, with its standard error."""
    reps = _check_replicas(snapshots)
    return _mean_se(np.array([r.shape[0] / torus.volume for r in reps]))


def window_counts(snapshots, window: Window) -> np.ndarray:
    reps = _check_replicas(snapshots)
    return np.array([window.count(r) for r in reps], dtype=float)


def falling_factorial(n: np.ndarray, order: int) -> np.ndarray:
    out = np.ones_like(np.asarray(n, dtype=float))
    for k in range(order):
        out = out * (n - k)
    return out


def factorial_moments(
    snapshots, window: Window, n_max: int
) -> list[tuple[float, float]]:
    """Estimates of the factorial moments of the window count, orders 1..n_max."""
    if n_max < 1:
        raise StatisticsError(f"n_max must be >= 1, got {n_max}")
    counts = window_counts(snapshots, window)
    return [_mean_se(falling_factorial(counts, n)) for n in range(1, n_max + 1)]


def shell_volume(dim: int, r_lo: float, r_hi: float) -> float:
    return unit_ball_volume(dim) * (r_hi**dim - r_lo**dim)


@dataclass(frozen=True)
class PairCorrelation:
    edges: np.ndarray
    g: np.ndarray
    se: np.ndarray
    replicas_used: int


def pair_correlation(
    snapshots,
    torus: Torus,
    n_bins: int = DEFAULT_BINS,
    r_max: float | None = None,
) -> PairCorrelation:
    """Radial pair correlation from minimum-image pair distances, in
    ``n_bins`` equal shells on [0, r_max]; r_max defaults to side/2.

    Per replica, the count of ordered pairs in each shell, twice the
    unordered count, is divided by N (N-1) / volume times the shell volume,
    which has expectation exactly 1 for a homogeneous Poisson field;
    replicas with fewer than two points carry no pair information and are
    skipped, and fewer than two replicas with two or more points give no
    standard error and raise StatisticsError.  The counts come from a
    ``periodic_pairs`` walk over the ``cell_runs`` of the points on the
    ``CellGrid.for_radius`` of the last edge, which computes each unordered
    pair's squared length once, and the roots of those squares are binned,
    so memory is O(N + PAIR_BATCH) per replica, and time grows as N times
    the points within the last edge of a point: O(N) for a fixed last edge,
    O(N^2) when it reaches side/2, where the walk computes N (N-1) / 2
    squared lengths, half the ordered pairs.
    """
    reps = _check_replicas(snapshots)
    if r_max is None:
        r_max = torus.side / 2.0
    if not (0.0 < r_max <= torus.side / 2.0):
        raise StatisticsError(
            f"r_max must lie in (0, side/2], got {r_max} with side {torus.side}"
        )
    if n_bins < 1:
        raise StatisticsError(f"n_bins must be at least 1, got {n_bins}")
    edges = np.linspace(0.0, r_max, n_bins + 1)

    shells = np.array(
        [shell_volume(torus.dim, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    )
    grid = CellGrid.for_radius(torus, edges[-1])
    per_replica = []
    for pts in reps:
        n = pts.shape[0]
        if n < 2:
            continue
        pts = torus.wrap(pts)
        counts = np.zeros(edges.size - 1, dtype=np.intp)
        runs = cell_runs(grid.flat_cells_of(pts))
        for _, _, square in periodic_pairs(grid, pts, runs, edges[-1])[1]:
            counts += np.histogram(np.sqrt(square), bins=edges)[0]
        per_replica.append(2 * counts * torus.volume / (n * (n - 1) * shells))
    if len(per_replica) < 2:
        raise StatisticsError(
            "need two replicas with two or more points for standard errors, "
            f"got {len(per_replica)}"
        )
    stack = np.vstack(per_replica)
    g = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    return PairCorrelation(edges=edges, g=g, se=se, replicas_used=stack.shape[0])


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares fit of log F_n against n, after removing the volume part.

    Models log F_n = log C + n (theta + log V); a Poisson field gives C = 1
    and theta = log kappa.  ``max_residual`` is the worst absolute deviation
    of the fit in log space; growth faster than exponential in n leaves a
    residual no two-parameter line can absorb.
    """

    c: float
    theta: float
    max_residual: float
    orders: tuple[int, ...]

    @property
    def envelope_ok(self) -> bool:
        return self.max_residual <= ENVELOPE_RESIDUAL_TOL


def envelope_fit(moments, volume: float) -> EnvelopeFit:
    """Fit (C, theta) to factorial moments; ``moments`` holds the
    (value, se) pairs of F_1..F_n, as ``factorial_moments`` returns them."""
    if volume <= 0.0:
        raise StatisticsError(f"volume must be positive, got {volume}")
    values = [value for value, _ in moments]
    orders = [n for n, v in enumerate(values, start=1) if v > 0.0]
    if len(orders) < 2:
        raise StatisticsError(
            "need at least two positive moments to fit the envelope"
        )
    x = np.array(orders, dtype=float)
    y = np.array([math.log(values[n - 1]) - n * math.log(volume) for n in orders])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.abs(y - (slope * x + intercept)).max())
    return EnvelopeFit(
        c=float(math.exp(intercept)),
        theta=float(slope),
        max_residual=resid,
        orders=tuple(orders),
    )


@dataclass(frozen=True)
class MomentReport:
    """Per-time summary: density, pair correlation, moments, envelope."""

    time: float
    replicas: int
    density: tuple[float, float]
    pair: PairCorrelation | None
    moments: list[tuple[float, float]]
    window_volume: float
    envelope: EnvelopeFit | None

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "replicas": self.replicas,
            "density": {"mean": self.density[0], "se": self.density[1]},
            "pair_correlation": None
            if self.pair is None
            else {
                "edges": self.pair.edges.tolist(),
                "g": self.pair.g.tolist(),
                "se": self.pair.se.tolist(),
                "replicas_used": self.pair.replicas_used,
            },
            "factorial_moments": [
                {"order": n, "value": v, "se": se}
                for n, (v, se) in enumerate(self.moments, start=1)
            ],
            "window_volume": self.window_volume,
            "envelope": None
            if self.envelope is None
            else {
                "c": self.envelope.c,
                "theta": self.envelope.theta,
                "max_residual": self.envelope.max_residual,
                "orders": list(self.envelope.orders),
                "ok": self.envelope.envelope_ok,
            },
        }


def build_moment_report(
    snapshots,
    torus: Torus,
    window: Window,
    time: float,
    n_max: int = DEFAULT_N_MAX,
    g_bins: int = DEFAULT_BINS,
    g_r_max: float | None = None,
) -> MomentReport:
    """Assemble the full per-time report; pair correlation and envelope are
    skipped (None) when the data cannot support them."""
    reps = _check_replicas(snapshots)
    dens = density(reps, torus)
    moments = factorial_moments(reps, window, n_max)
    try:
        pair = pair_correlation(reps, torus, n_bins=g_bins, r_max=g_r_max)
    except StatisticsError:
        pair = None
    try:
        env = envelope_fit(moments, window.volume)
    except StatisticsError:
        env = None
    return MomentReport(
        time=float(time),
        replicas=len(reps),
        density=dens,
        pair=pair,
        moments=moments,
        window_volume=window.volume,
        envelope=env,
    )
