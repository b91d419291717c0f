import bisect
import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sbdsim import statistics
from sbdsim.config import initial_configuration, load_config, replica_rng
from sbdsim.dynamics import run
from sbdsim.geometry import Torus, Window, sample_poisson
from sbdsim.statistics import (
    StatisticsError,
    build_moment_report,
    density,
    envelope_fit,
    factorial_moments,
    pair_correlation,
    shell_volume,
    window_counts,
)

T10 = Torus(10.0, 1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def poisson_replicas(torus, kappa, n, seed):
    rng = np.random.default_rng(seed)
    return [sample_poisson(torus, kappa, rng).by_id()[1] for _ in range(n)]


# -- density -------------------------------------------------------------------


def test_density_poisson():
    reps = poisson_replicas(T10, 1.0, 200, seed=0)
    rho, se = density(reps, T10)
    assert se > 0.0
    assert abs(rho - 1.0) < 3.0 * se


def test_density_empty():
    reps = [np.zeros((0, 1)), np.zeros((0, 1))]
    rho, se = density(reps, T10)
    assert rho == 0.0 and se == 0.0


def test_density_needs_two_replicas():
    with pytest.raises(StatisticsError):
        density([np.zeros((3, 1))], T10)


# -- window counts and factorial moments ----------------------------------------


def test_window_counts_and_first_moment_agree_exactly():
    reps = poisson_replicas(T10, 1.5, 40, seed=1)
    w = Window((2.0,), (6.0,))
    counts = window_counts(reps, w)
    f1, _ = factorial_moments(reps, w, 1)[0]
    assert f1 == counts.mean()


def test_factorial_moments_poisson():
    # for Poisson(kappa) input, F_n = (kappa V)^n
    torus = Torus(10.0, 1)
    reps = poisson_replicas(torus, 1.0, 1000, seed=2)
    w = Window((0.0,), (4.0,))
    moments = factorial_moments(reps, w, 3)
    for n, (f, se) in enumerate(moments, start=1):
        assert abs(f - 4.0**n) < 3.0 * se


def test_factorial_moments_deterministic():
    reps = [np.array([[1.0]]), np.array([[2.0]])]
    w = Window((0.0,), (10.0,))
    moments = factorial_moments(reps, w, 3)
    assert moments[0][0] == 1.0
    assert moments[1][0] == 0.0  # N(N-1) vanishes at N = 1
    assert moments[2][0] == 0.0


def test_factorial_moments_bad_order():
    reps = [np.zeros((0, 1)), np.zeros((0, 1))]
    with pytest.raises(StatisticsError):
        factorial_moments(reps, Window((0.0,), (1.0,)), 0)


# -- pair correlation -------------------------------------------------------------


def test_shell_volume():
    assert shell_volume(1, 0.5, 1.5) == pytest.approx(2.0)
    assert shell_volume(2, 1.0, 2.0) == pytest.approx(math.pi * 3.0)


def test_pair_correlation_poisson_flat():
    reps = poisson_replicas(T10, 2.0, 200, seed=3)
    pc = pair_correlation(reps, T10, n_bins=20)
    assert pc.g.shape == (20,)
    assert pc.replicas_used == 200
    dev = np.abs(pc.g - 1.0) / pc.se
    assert dev.max() < 4.0


def test_pair_correlation_two_point_mass():
    # two points at distance 1: every ordered pair lands in the covering
    # bin, [1, 2) of the shells [0, 1), [1, 2) and [2, 3]
    reps = [np.array([[0.0], [1.0]]), np.array([[3.0], [4.0]])]
    pc = pair_correlation(reps, T10, n_bins=3, r_max=3.0)
    assert pc.g[0] == 0.0
    assert pc.g[2] == 0.0
    # ordered pairs 2, volume 10, n(n-1) = 2, shell length 2
    assert pc.g[1] == pytest.approx(5.0)
    assert pc.se[1] == 0.0


def test_pair_correlation_skips_thin_replicas():
    reps = [np.array([[0.0], [1.0]]), np.zeros((0, 1)), np.array([[5.0], [6.0]])]
    pc = pair_correlation(reps, T10, n_bins=1, r_max=1.5)
    assert pc.replicas_used == 2


def test_pair_correlation_all_replicas_thin():
    reps = [np.zeros((0, 1)), np.array([[1.0]])]
    with pytest.raises(StatisticsError):
        pair_correlation(reps, T10, n_bins=1, r_max=1.5)


def test_pair_correlation_needs_two_full_replicas():
    # one replica with pairs and one without give no standard error: a
    # std with ddof=1 over one row would be NaN, which report.json cannot
    # hold, so the estimate is refused and the report carries none
    reps = [np.array([[1.0]]), np.array([[0.0], [1.0], [4.0]])]
    with pytest.raises(StatisticsError, match="two or more points for standard errors, got 1"):
        pair_correlation(reps, T10, n_bins=1, r_max=1.5)
    window = Window((0.0,), (10.0,))
    report = build_moment_report(reps, T10, window, time=1.0, n_max=2, g_bins=1)
    assert report.pair is None and report.to_dict()["pair_correlation"] is None


def test_pair_correlation_rejects_wide_bins():
    reps = poisson_replicas(T10, 1.0, 4, seed=4)
    with pytest.raises(StatisticsError):
        pair_correlation(reps, T10, n_bins=1, r_max=6.0)
    with pytest.raises(StatisticsError):
        pair_correlation(reps, T10, n_bins=0, r_max=1.5)


def brute_force_ordered_counts(side, pts, edges):
    """Ordered pairs of distinct points per bin of ``edges``, binned as
    np.histogram does, by a plain-Python scan of the wrapped points."""
    pts = [[v % side for v in p] for p in pts.tolist()]
    edges = edges.tolist()
    counts = [0] * (len(edges) - 1)
    for x, y in itertools.permutations(pts, 2):
        square = 0.0
        for a, b in zip(x, y):
            a = abs(b - a)
            a = min(a, side - a)
            square += a * a
        d = math.sqrt(square)
        if edges[0] <= d <= edges[-1]:
            counts[min(bisect.bisect_right(edges, d) - 1, len(counts) - 1)] += 1
    return np.array(counts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_correlation_counts_match_brute_force(dim):
    # one replica given twice, so g is its own estimate, bit for bit; bins
    # up to a third of the side and up to side/2, where the walk's radius
    # wraps round its whole grid
    side = 7.0
    torus = Torus(side, dim)
    rng = np.random.default_rng(20 + dim)
    pts = rng.uniform(0.0, side, (70, dim))
    pts[0], pts[1] = pts[4], pts[4] + side  # coincident, once outside the box
    pts[2], pts[3] = np.nextafter(side, 0.0), 0.0  # at the wrap edge
    n = pts.shape[0]
    for r_max in (side / 3.0, side / 2.0):
        for n_bins in (1, 7):
            pc = pair_correlation([pts, pts], torus, n_bins=n_bins, r_max=r_max)
            edges = np.linspace(0.0, r_max, n_bins + 1)
            shells = np.array(
                [shell_volume(dim, a, b) for a, b in zip(edges[:-1], edges[1:])]
            )
            counts = brute_force_ordered_counts(side, pts, edges)
            assert counts.sum() > 0
            g = counts * torus.volume / (n * (n - 1) * shells)
            assert pc.g.tolist() == g.tolist()
            assert pc.se.tolist() == [0.0] * n_bins


def test_pair_correlation_counts_of_a_seeded_snapshot_are_pinned(monkeypatch):
    # the shipped competition_1d config's replica 0 at t = 6, given twice,
    # binned as its report bins it: the pair walk's counts are exact
    # integers, the same on every grid the walk may pick (here 1 cell of
    # side, the last edge being side / 2), and must never move
    cfg = load_config(CONFIGS / "competition_1d.json")
    rng = replica_rng(cfg.seed, 0)
    trace = run(cfg.model, initial_configuration(cfg, rng), 6.0, rng, snapshot_times=(6.0,))
    pts = trace.snapshots[0].positions
    torus = Torus(cfg.torus.side, cfg.torus.dim)
    walks = []
    walk = statistics.periodic_pairs

    def recorded(grid, pos, runs, radius):
        order, batches = walk(grid, pos, runs, radius)
        walks.append(list(batches))
        return order, iter(walks[-1])

    monkeypatch.setattr(statistics, "periodic_pairs", recorded)
    pc = pair_correlation([pts, pts], torus, n_bins=cfg.g_bins)
    edges = np.linspace(0.0, torus.side / 2.0, cfg.g_bins + 1)
    # the walk yields squared lengths, whose roots the report bins
    counts = [
        np.histogram(np.sqrt(np.concatenate([s for *_, s in w])), bins=edges)[0]
        for w in walks
    ]
    assert len(counts) == 2 and counts[0].tolist() == counts[1].tolist()
    assert (2 * counts[0]).tolist() == brute_force_ordered_counts(
        torus.side, pts, edges
    ).tolist()
    assert pc.replicas_used == 2 and pts.shape[0] == 104
    digest = hashlib.sha256(counts[0].astype("<i8").tobytes()).hexdigest()
    assert digest == "09ac9b8f97e81fa918a0014de3fc59de16e0b9b57ca852957637d0aac61f0d6e"


def test_pair_correlation_memory_is_linear():
    # 2 replicas of 4000 points in d=1 at the default r_max = side/2, where
    # every pair counts: the all-pairs distance vector alone would take
    # 4000 * 3999 / 2 * 8 bytes = 61 MiB
    torus = Torus(800.0, 1)
    rng = np.random.default_rng(13)
    reps = [rng.uniform(0.0, 800.0, (4000, 1)) for _ in range(2)]
    tracemalloc.start()
    try:
        pc = pair_correlation(reps, torus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pc.replicas_used == 2
    assert peak < 16 * 2**20


# -- envelope fit -----------------------------------------------------------------


def test_envelope_fit_exact_poisson():
    kappa, V = 1.5, 2.0
    moments = [((kappa * V) ** n, 0.0) for n in range(1, 7)]
    fit = envelope_fit(moments, V)
    assert fit.c == pytest.approx(1.0, abs=1e-12)
    assert fit.theta == pytest.approx(math.log(kappa), abs=1e-12)
    assert fit.max_residual < 1e-12
    assert fit.envelope_ok


def test_envelope_fit_synthetic_roundtrip():
    c0, th0, V = 1.7, 0.3, 2.0
    moments = [(c0 * math.exp(th0 * n) * V**n, 0.0) for n in range(1, 7)]
    fit = envelope_fit(moments, V)
    assert fit.c == pytest.approx(c0, abs=1e-6)
    assert fit.theta == pytest.approx(th0, abs=1e-6)


def test_envelope_fit_flags_superexponential():
    V = 2.0
    moments = [(math.factorial(n) * V**n, 0.0) for n in range(1, 7)]
    fit = envelope_fit(moments, V)
    assert not fit.envelope_ok
    assert fit.max_residual > 0.1


def test_envelope_fit_drops_nonpositive_orders():
    V = 2.0
    moments = [(3.0 * V, 0.0), (0.0, 0.0), (9.0 * V**3, 0.0)]
    fit = envelope_fit(moments, V)
    assert fit.orders == (1, 3)
    with pytest.raises(StatisticsError):
        envelope_fit([(0.0, 0.0), (0.0, 0.0)], V)


# -- error scaling -------------------------------------------------------------------


def test_se_shrinks_like_inverse_root_replicas():
    rng = np.random.default_rng(6)
    sizes = [8, 16, 32, 64, 128]
    mean_log_se = []
    for nrep in sizes:
        ses = []
        for _ in range(60):
            reps = [
                sample_poisson(T10, 1.0, rng).by_id()[1] for _ in range(nrep)
            ]
            ses.append(density(reps, T10)[1])
        mean_log_se.append(np.mean(np.log(ses)))
    slope = np.polyfit(np.log(sizes), mean_log_se, 1)[0]
    assert abs(slope + 0.5) < 0.1


# -- aggregated report ----------------------------------------------------------------


def test_build_moment_report_poisson():
    reps = poisson_replicas(T10, 1.0, 120, seed=7)
    w = Window((0.0,), (4.0,))
    rep = build_moment_report(reps, T10, w, time=2.0, n_max=3)
    assert rep.time == 2.0
    assert rep.density[0] == pytest.approx(1.0, abs=3.5 * rep.density[1])
    f1, _ = rep.moments[0]
    assert f1 == pytest.approx(rep.density[0] * w.volume, rel=0.2)
    assert rep.pair is not None
    assert rep.envelope is not None
    payload = json.dumps(rep.to_dict())
    assert "factorial_moments" in payload


def test_build_moment_report_degenerate_input():
    # single-point replicas: pair correlation unavailable, report still forms
    reps = [np.array([[1.0]]), np.array([[2.0]])]
    w = Window((0.0,), (4.0,))
    rep = build_moment_report(reps, T10, w, time=0.0, n_max=2)
    assert rep.pair is None
    assert rep.density[0] == pytest.approx(0.1)
