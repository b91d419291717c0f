import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from sbdsim.kernels import (
    ImmigrationField,
    KernelError,
    exponential,
    gaussian,
    tabulated,
    triangular,
    uniform_direction,
    unit_ball_volume,
)

GAUSS_PEAK_1D = 1.0 / math.sqrt(2.0 * math.pi)  # 0.398942...


def triangle_table(n=1001):
    r = np.linspace(0.0, 1.0, n)
    return r, 1.0 - r


def test_unit_ball_volume():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(3) == 4.0 * math.pi / 3.0
    # gamma-function fallback agrees with the hard-coded low dimensions
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


# -- masses and sups ---------------------------------------------------------


def test_gaussian_mass_is_weight():
    assert gaussian(3.0, 1.0, 2).mass() == 3.0
    assert gaussian(0.25, 7.0, 3).mass() == 0.25


def test_triangular_mass():
    assert triangular(1.0, 1.0, 1).mass() == 1.0
    # d-dim cone volume: height * c_d * R^d / (d + 1)
    assert triangular(1.0, 1.0, 2).mass() == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert triangular(2.0, 3.0, 1).mass() == pytest.approx(2.0 * 2.0 * 3.0 / 2.0)


def test_exponential_mass_is_weight():
    assert exponential(2.0, 1.5, 2).mass() == 2.0


def test_tabulated_triangle_mass():
    r, v = triangle_table()
    k = tabulated(r, v, dim=1)
    # piecewise-linear interpolation of the triangle is the triangle itself
    assert k.mass() == pytest.approx(1.0, abs=1e-6)
    # trapezoid oracle: d=1 mass is 2 * integral of the profile over r >= 0
    oracle = 2.0 * np.trapezoid(v, r)
    assert k.mass() == pytest.approx(oracle, rel=1e-12)


def test_tabulated_mass_d2():
    r, v = triangle_table()
    k = tabulated(r, v, dim=2)
    # c_d * d * int v(r) r^{d-1} dr = 2 pi * int (1-r) r dr = pi/3
    assert k.mass() == pytest.approx(math.pi / 3.0, rel=1e-9)


def test_sup_norms():
    assert gaussian(1.0, 1.0, 1).sup_norm() == pytest.approx(GAUSS_PEAK_1D, rel=1e-15)
    assert triangular(2.0, 5.0, 3).sup_norm() == 2.0
    # normalized exponential in d=1: c/(2 lambda) e^{-|x|/lambda}
    assert exponential(1.0, 2.0, 1).sup_norm() == 0.25


# -- pointwise evaluation ----------------------------------------------------


def test_evaluate_examples():
    assert triangular(1.0, 1.0, 1).profile(0.5) == 0.5
    assert gaussian(1.0, 1.0, 1).profile(1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-12
    )
    assert gaussian(1.0, 1.0, 1).profile(1.0) == pytest.approx(0.241971, abs=1e-6)


def test_evaluate_beyond_support():
    assert triangular(1.0, 1.0, 1).profile(1.5) == 0.0
    r, v = triangle_table()
    assert tabulated(r, v, dim=1).profile(2.0) == 0.0
    g = gaussian(1.0, 1.0, 1)
    assert g.profile(g.cutoff_radius()) <= g.tail_sup() + 1e-300


# -- tails and cutoffs -------------------------------------------------------


def test_mass_beyond_is_monotone_and_anchored():
    for k in (gaussian(2.0, 1.0, 2), exponential(1.0, 1.0, 1), triangular(1.0, 1.0, 3)):
        assert k.mass_beyond(0.0) == pytest.approx(k.mass(), rel=1e-12)
        radii = np.linspace(0.0, k.cutoff_radius(), 30)
        tails = [k.mass_beyond(r) for r in radii]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert k.mass_beyond(k.cutoff_radius()) <= 1.001e-10 * k.mass()


def test_triangular_cutoff_is_support():
    assert triangular(1.0, 2.5, 2).cutoff_radius() == 2.5
    assert triangular(1.0, 2.5, 2).mass_beyond(2.5) == 0.0


def test_tabulated_requires_tail_bound_consistency():
    r, v = triangle_table(101)
    # values positive at the last radius need a declared tail envelope
    with pytest.raises(KernelError):
        tabulated(r, v + 0.5, dim=1)
    k = tabulated(r, v + 0.5, dim=1, tail_sup_bound=0.5, tail_mass_bound=1.0)
    assert k.tail_sup() == 0.5


def test_tabulated_rejects_bad_grids():
    with pytest.raises(KernelError):
        tabulated([0.0, 0.5, 0.5], [1.0, 0.5, 0.2], dim=1)
    with pytest.raises(KernelError):
        tabulated([0.1, 0.5, 1.0], [1.0, 0.5, 0.0], dim=1)  # must start at 0
    with pytest.raises(KernelError):
        tabulated([0.0, 1.0], [1.0, -0.1], dim=1)


# -- scaling -----------------------------------------------------------------


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_scaling_is_linear(alpha):
    ks = [
        gaussian(1.0, 1.0, 2),
        triangular(2.0, 1.5, 1),
        exponential(0.5, 2.0, 3),
        tabulated(*triangle_table(101), dim=1),
    ]
    for k in ks:
        s = k.scaled(alpha)
        assert s.mass() == pytest.approx(alpha * k.mass(), rel=1e-12)
        assert s.sup_norm() == pytest.approx(alpha * k.sup_norm(), rel=1e-12)


# -- Monte Carlo integral of the profile -------------------------------------


@pytest.mark.parametrize(
    "kernel",
    [
        gaussian(1.0, 1.0, 1),
        gaussian(2.0, 0.5, 2),
        triangular(1.0, 1.0, 2),
        exponential(1.0, 1.0, 1),
    ],
    ids=["gauss1d", "gauss2d", "tri2d", "exp1d"],
)
def test_monte_carlo_mass(kernel):
    rng = np.random.default_rng(101)
    d = kernel.dim
    half = kernel.cutoff_radius()
    pts = rng.uniform(-half, half, size=(1_000_000, d))
    vals = kernel.profile(np.linalg.norm(pts, axis=1))
    box = (2.0 * half) ** d
    est = box * vals.mean()
    se = box * vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(est - kernel.mass()) < 3.0 * se


# -- samplers ----------------------------------------------------------------


def test_gaussian_sampler_variance():
    rng = np.random.default_rng(5)
    draws = gaussian(1.0, 2.0, 2).sample_displacement(rng, 100_000)
    assert draws.shape == (100_000, 2)
    for axis in range(2):
        v = draws[:, axis].var(ddof=1)
        se = v * math.sqrt(2.0 / (draws.shape[0] - 1))
        assert abs(v - 4.0) < 3.0 * se


def test_triangular_sampler_support():
    rng = np.random.default_rng(6)
    draws = triangular(1.0, 1.0, 2).sample_displacement(rng, 20_000)
    assert np.all(np.linalg.norm(draws, axis=1) <= 1.0 + 1e-12)


def test_exponential_sampler_radius_law():
    # radial density r^{d-1} e^{-r/lambda} is Gamma(d, lambda)
    rng = np.random.default_rng(7)
    k = exponential(1.0, 1.5, 2)
    radii = np.linalg.norm(k.sample_displacement(rng, 100_000), axis=1)
    mean, var = radii.mean(), radii.var(ddof=1)
    assert mean == pytest.approx(2 * 1.5, abs=4 * radii.std() / math.sqrt(radii.size))
    assert var == pytest.approx(2 * 1.5**2, rel=0.05)


def test_tabulated_sampler_ks():
    rng = np.random.default_rng(8)
    r, v = triangle_table()
    k = tabulated(r, v, dim=1)
    radii = np.abs(k.sample_displacement(rng, 100_000)[:, 0])
    # numeric radial CDF via trapezoid integration of v(r) r^{d-1}
    dens = v * r ** (k.dim - 1)
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(r))])
    cdf_grid /= cdf_grid[-1]
    ks = stats.kstest(radii, lambda q: np.interp(q, r, cdf_grid))
    assert ks.statistic < 0.01


def test_sampler_histogram_matches_density():
    # chi-square goodness of fit of sampled radii against exact bin masses
    rng = np.random.default_rng(9)
    k = triangular(1.0, 1.0, 1)
    radii = np.abs(k.sample_displacement(rng, 100_000)[:, 0])
    edges = np.linspace(0.0, 1.0, 11)
    counts, _ = np.histogram(radii, edges)
    # radial mass of 2(1-r) between bin edges
    lo, hi = edges[:-1], edges[1:]
    probs = (2.0 * hi - hi**2) - (2.0 * lo - lo**2)
    res = stats.chisquare(counts, probs * radii.size)
    assert res.pvalue > 0.001


def test_sample_displacement_single():
    rng = np.random.default_rng(10)
    x = gaussian(1.0, 1.0, 3).sample_displacement(rng)
    assert x.shape == (3,)


def test_uniform_direction_unit_norm():
    rng = np.random.default_rng(11)
    dirs = uniform_direction(3, rng, 1000)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)
    assert abs(dirs.mean(axis=0)).max() < 0.05


# -- immigration field -------------------------------------------------------


def test_immigration_constant():
    f = ImmigrationField(constant=0.5)
    assert f.sup_norm() == 0.5
    assert f.integral(10.0, 1) == 5.0
    assert f.integral(10.0, 2) == 50.0


def test_immigration_zero_allowed():
    f = ImmigrationField(constant=0.0)
    assert f.integral(10.0, 1) == 0.0


def test_immigration_grid():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = ImmigrationField(grid=g)
    assert f.sup_norm() == 1.0
    # half the box at intensity 1: integral = L^2 / 2
    assert f.integral(4.0, 2) == pytest.approx(8.0)
    rng = np.random.default_rng(12)
    pts = np.array([f.sample_position(4.0, 2, rng) for _ in range(4000)])
    # all samples land in the two active quadrants
    q = (pts >= 2.0).astype(int)
    assert set(map(tuple, q)) <= {(0, 0), (1, 1)}


def test_immigration_rejects_negative():
    with pytest.raises(KernelError):
        ImmigrationField(constant=-1.0)
    with pytest.raises(KernelError):
        ImmigrationField(grid=np.array([1.0, -2.0]))
