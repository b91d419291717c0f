import json
import math

import numpy as np
import pytest

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


def poisson_replicas(torus, kappa, n, seed):
    rng = np.random.default_rng(seed)
    return [sample_poisson(torus, kappa, rng).positions_array() for _ in range(n)]


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
    # two points at distance 1: every ordered pair lands in the covering bin
    reps = [np.array([[0.0], [1.0]]), np.array([[3.0], [4.0]])]
    edges = np.array([0.0, 0.5, 1.5, 2.5])
    pc = pair_correlation(reps, T10, edges=edges)
    assert pc.g[0] == 0.0
    assert pc.g[2] == 0.0
    # ordered pairs 2, volume 10, n(n-1) = 2, shell length 2
    assert pc.g[1] == pytest.approx(5.0)
    assert pc.se[1] == 0.0


def test_pair_correlation_skips_thin_replicas():
    reps = [np.array([[0.0], [1.0]]), np.zeros((0, 1)), np.array([[5.0], [6.0]])]
    pc = pair_correlation(reps, T10, edges=np.array([0.5, 1.5]))
    assert pc.replicas_used == 2


def test_pair_correlation_all_replicas_thin():
    reps = [np.zeros((0, 1)), np.array([[1.0]])]
    with pytest.raises(StatisticsError):
        pair_correlation(reps, T10, edges=np.array([0.5, 1.5]))


def test_pair_correlation_rejects_wide_bins():
    reps = poisson_replicas(T10, 1.0, 4, seed=4)
    with pytest.raises(StatisticsError):
        pair_correlation(reps, T10, edges=np.array([0.0, 6.0]))


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
                sample_poisson(T10, 1.0, rng).positions_array() for _ in range(nrep)
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
