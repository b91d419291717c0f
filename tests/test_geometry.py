import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbdsim.geometry import (
    GeometryError,
    Torus,
    TorusConfiguration,
    Window,
    pairwise_periodic_distances,
    periodic_distance,
    periodic_distances,
    sample_poisson,
)
from sbdsim.kernels import gaussian, triangular

T10_1 = Torus(10.0, 1)
T10_2 = Torus(10.0, 2)


def uniform_cfg(torus, n, rng):
    cfg = TorusConfiguration(torus)
    for x in rng.uniform(0.0, torus.side, (n, torus.dim)):
        cfg.insert(x)
    return cfg


# -- torus and metric --------------------------------------------------------


def test_torus_validation():
    with pytest.raises(GeometryError):
        Torus(-1.0, 1)
    with pytest.raises(GeometryError):
        Torus(10.0, 0)
    with pytest.raises(GeometryError):
        Torus(10.0, 1, n_cells=0)


def test_torus_cells_tile_exactly():
    t = Torus(10.0, 2, n_cells=8)
    assert t.cell_size * 8 == pytest.approx(10.0, rel=1e-15)
    assert t.volume == 100.0


def test_for_cutoff_cell_size():
    t = Torus.for_cutoff(10.0, 1, cutoff=0.5)
    assert t.cell_size >= 0.5 - 1e-12
    # wide kernels fall back to an L/8 grid
    t2 = Torus.for_cutoff(10.0, 1, cutoff=4.0)
    assert t2.n_cells == 8


def test_periodic_distance_wraparound():
    assert periodic_distance(T10_1, [0.5], [9.5]) == pytest.approx(1.0, rel=1e-15)
    assert periodic_distance(T10_1, [0.5], [0.5]) == 0.0
    assert periodic_distance(T10_2, [0.0, 0.0], [5.0, 5.0]) == pytest.approx(
        math.sqrt(50.0), rel=1e-15
    )


@given(
    st.lists(st.floats(min_value=0.0, max_value=9.999999), min_size=6, max_size=6)
)
def test_periodic_distance_is_metric(coords):
    x, y, z = (np.array(coords[i : i + 2]) for i in (0, 2, 4))
    dxy = periodic_distance(T10_2, x, y)
    dyx = periodic_distance(T10_2, y, x)
    dxz = periodic_distance(T10_2, x, z)
    dzy = periodic_distance(T10_2, z, y)
    assert dxy == pytest.approx(dyx, abs=1e-12)
    assert dxy <= dxz + dzy + 1e-9
    assert dxy <= math.sqrt(2.0) * 5.0 + 1e-12


def test_periodic_distances_batch_matches_scalar():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 10, 2)
    pts = rng.uniform(0, 10, (40, 2))
    batch = periodic_distances(T10_2, x, pts)
    singles = [periodic_distance(T10_2, x, p) for p in pts]
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_pairwise_periodic_distances():
    # condensed upper-triangle order: (0,1), (0,2), (1,2)
    pts = np.array([[0.5], [9.5], [4.5]])
    d = pairwise_periodic_distances(T10_1, pts)
    assert d.shape == (3,)
    np.testing.assert_allclose(d, [1.0, 4.0, 5.0], rtol=1e-14)
    assert pairwise_periodic_distances(T10_1, pts[:1]).shape == (0,)


# -- configurations and the cell index ---------------------------------------


def test_insert_remove_roundtrip():
    cfg = TorusConfiguration(T10_1)
    i = cfg.insert([1.0])
    j = cfg.insert([2.0])
    assert len(cfg) == 2 and i != j
    np.testing.assert_allclose(cfg.position(i), [1.0])
    cfg.remove(i)
    assert len(cfg) == 1
    assert cfg.ids() == [j]
    with pytest.raises(GeometryError):
        cfg.position(i)


def test_insert_wraps_into_box():
    cfg = TorusConfiguration(T10_1)
    i = cfg.insert([12.5])
    np.testing.assert_allclose(cfg.position(i), [2.5])
    j = cfg.insert([-0.5])
    np.testing.assert_allclose(cfg.position(j), [9.5])


def test_positions_array_ascending_ids():
    rng = np.random.default_rng(1)
    cfg = uniform_cfg(T10_2, 30, rng)
    for vid in list(cfg.ids())[::3]:
        cfg.remove(vid)
    ids = cfg.ids()
    assert ids == sorted(ids)
    arr = cfg.positions_array()
    np.testing.assert_allclose(arr, np.array([cfg.position(i) for i in ids]))


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60))
def test_cell_index_rebuild_identity(ops):
    # 0/1 insert at a pseudo-random spot, 2 removes the oldest surviving point
    rng = np.random.default_rng(123)
    cfg = TorusConfiguration(Torus(10.0, 2, n_cells=5))
    alive = []
    for op in ops:
        if op < 2 or not alive:
            alive.append(cfg.insert(rng.uniform(0.0, 10.0, 2)))
        else:
            cfg.remove(alive.pop(0))
    assert cfg.cell_index() == cfg.rebuilt_cell_index()


# -- neighbor sums ------------------------------------------------------------


def test_kernel_sum_empty():
    cfg = TorusConfiguration(T10_1)
    assert cfg.kernel_sum_at(triangular(1.0, 1.0, 1), [5.0]) == 0.0


def test_kernel_sum_single_point():
    cfg = TorusConfiguration(T10_1)
    cfg.insert([5.0])
    assert cfg.kernel_sum_at(triangular(1.0, 1.0, 1), [5.5]) == pytest.approx(0.5)


def test_kernel_sum_exclude_self():
    cfg = TorusConfiguration(T10_1)
    i = cfg.insert([5.0])
    cfg.insert([5.5])
    k = triangular(1.0, 1.0, 1)
    assert cfg.kernel_sum_at(k, [5.0], exclude=i) == pytest.approx(0.5)
    assert cfg.kernel_sum_at(k, [5.0]) == pytest.approx(1.5)


def brute_force_sum(cfg, kernel, x, exclude=None):
    cutoff = kernel.cutoff_radius()
    total = 0.0
    for i in cfg.ids():
        if i == exclude:
            continue
        d = periodic_distance(cfg.torus, x, cfg.position(i))
        if d <= cutoff:
            total += kernel.profile(d)
    return total


def test_kernel_sum_matches_brute_force_gaussian():
    rng = np.random.default_rng(3)
    torus = Torus.for_cutoff(20.0, 2, gaussian(1.0, 1.0, 2).cutoff_radius())
    cfg = uniform_cfg(torus, 100, rng)
    k = gaussian(1.0, 1.0, 2)
    for _ in range(20):
        x = rng.uniform(0, 20, 2)
        a = cfg.kernel_sum_at(k, x)
        b = brute_force_sum(cfg, k, x)
        assert a == pytest.approx(b, rel=1e-12)


def test_kernel_sum_matches_brute_force_many_cases():
    rng = np.random.default_rng(4)
    kernels_1d = [triangular(1.0, 1.0, 1), gaussian(0.7, 0.4, 1)]
    for trial in range(250):
        torus = Torus.for_cutoff(12.0, 1, 3.0)
        cfg = uniform_cfg(torus, rng.integers(0, 40), rng)
        k = kernels_1d[trial % 2]
        x = rng.uniform(0, 12, 1)
        assert cfg.kernel_sum_at(k, x) == pytest.approx(
            brute_force_sum(cfg, k, x), rel=1e-12, abs=1e-15
        )


def test_kernel_too_wide_rejected():
    cfg = TorusConfiguration(T10_1)
    cfg.insert([5.0])
    with pytest.raises(GeometryError, match="kernel too wide"):
        cfg.kernel_sum_at(gaussian(1.0, 2.0, 1), [0.0])


def test_tail_budget_scales_with_population():
    rng = np.random.default_rng(5)
    torus = Torus.for_cutoff(20.0, 1, gaussian(1.0, 1.0, 1).cutoff_radius())
    cfg = uniform_cfg(torus, 17, rng)
    k = gaussian(1.0, 1.0, 1)
    assert cfg.kernel_sum_tail_budget(k) == pytest.approx(17 * k.tail_sup())
    assert cfg.kernel_sum_tail_budget(k) < 1e-8


# -- windows ------------------------------------------------------------------


def test_window_volume_and_validation():
    w = Window((0.0, 0.0), (2.0, 2.0))
    assert w.volume == 4.0
    with pytest.raises(GeometryError):
        Window((0.0,), (0.0,))
    with pytest.raises(GeometryError):
        Window((1.0, 0.0), (0.5, 1.0))


def test_count_in_window_examples():
    cfg = TorusConfiguration(T10_2)
    assert cfg.count_in_window(Window((0.0, 0.0), (2.0, 2.0))) == 0
    cfg.insert([1.0, 1.0])
    cfg.insert([9.0, 9.0])
    assert cfg.count_in_window(Window((0.0, 0.0), (2.0, 2.0))) == 1


def test_count_in_window_binomial_thinning():
    rng = np.random.default_rng(6)
    w = Window((0.0,), (1.0,))
    counts = []
    for _ in range(50):
        cfg = uniform_cfg(T10_1, 10_000, rng)
        counts.append(cfg.count_in_window(w))
    counts = np.array(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 1000.0) < 3.0 * se


# -- Poisson sampling ---------------------------------------------------------


def test_sample_poisson_zero_intensity():
    rng = np.random.default_rng(7)
    assert len(sample_poisson(T10_1, 0.0, rng)) == 0


def test_sample_poisson_count_moments():
    rng = np.random.default_rng(8)
    counts = np.array([len(sample_poisson(T10_1, 1.0, rng)) for _ in range(10_000)])
    mean_se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 10.0) < 3.0 * mean_se
    var = counts.var(ddof=1)
    var_se = var * math.sqrt(2.0 / (counts.size - 1))
    assert abs(var - 10.0) < 4.0 * var_se


def test_sample_poisson_window_counts_follow_poisson_law():
    rng = np.random.default_rng(9)
    w = Window((0.0,), (2.0,))
    counts = [
        sample_poisson(T10_1, 1.0, rng).count_in_window(w) for _ in range(2000)
    ]
    counts = np.array(counts)
    # chi-square against Poisson(2) with the tail pooled
    kmax = 7
    observed = np.array(
        [(counts == k).sum() for k in range(kmax)] + [(counts >= kmax).sum()]
    )
    pmf = np.array([stats.poisson.pmf(k, 2.0) for k in range(kmax)])
    expected = np.append(pmf, 1.0 - pmf.sum()) * counts.size
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 0.001
