import math
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from functools import cache
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import NUMPY_WRAPPER_FILES, Scripted, draw_from, file_on, insert_point, live_rows
from sbdsim import geometry
from sbdsim.config import load_config
from sbdsim.dynamics import BlockDraws
from sbdsim.geometry import (
    BLOCK_ROWS,
    CELL_SLACK,
    LEAD_BITS,
    PAIR_BATCH,
    CellGrid,
    CellIndex,
    GeometryError,
    PairTerms,
    Torus,
    TorusConfiguration,
    Unloaded,
    Window,
    _min_image_squares,
    _pair_sums,
    cell_runs,
    REACH_LEVEL,
    exact_reach,
    load_reach,
    load_scale,
    periodic_pairs,
    sample_poisson,
)
from sbdsim.kernels import exponential, gaussian, tabulated, triangular

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
T10_1 = Torus(10.0, 1)
T10_2 = Torus(10.0, 2)
G10_1 = CellGrid(10.0, 1, 8)
G10_2 = CellGrid(10.0, 2, 8)


def uniform_cfg(torus, n, rng):
    cfg = TorusConfiguration(torus)
    for x in rng.uniform(0.0, torus.side, (n, torus.dim)):
        insert_point(cfg, x)
    return cfg


def in_quanta(kernel):
    """``kernel`` scaled to quanta of load, as the simulator hands a- to
    the store."""
    return kernel.scaled(load_scale(kernel))


def walk_sums(cfg, kernel, grid):
    """The store's kernel sums from one pair walk of ``grid`` within the
    kernel's reach, which ``kernel_sums`` walks only when
    ``CellGrid.for_radius`` picks it."""
    pos = cfg._pos[: len(cfg)]
    runs = cell_runs(grid.flat_cells_of(pos))
    return _pair_sums(grid, pos, runs, kernel, load_reach(kernel))


def min_image_square(side, x, y):
    """Squared minimum-image length of two points of [0, side]^dim in plain
    Python floats, the minimum image taken per axis."""
    square = 0.0
    for xv, yv in zip(x, y):
        a = abs(yv - xv)
        a = min(a, side - a)
        square += a * a
    return square


def min_image_distance(side, x, y):
    """Minimum-image distance of two points of [0, side]^dim: the root of
    ``min_image_square``."""
    return math.sqrt(min_image_square(side, x, y))


def scan_pairs(side, pts, radius):
    """Each row's squared minimum-image lengths to the other rows whose roots
    are within ``radius``, sorted, by a plain-Python scan of the points
    wrapped into [0, side)."""
    pts = [[v % side for v in p] for p in np.asarray(pts, dtype=float).tolist()]
    out = []
    for i, x in enumerate(pts):
        squares = (min_image_square(side, x, y) for j, y in enumerate(pts) if j != i)
        out.append(sorted(s for s in squares if math.sqrt(s) <= radius))
    return out


def walked_pairs(grid, pts, radius):
    """The pair walk's pairs of rows of ``pts`` (in [0, side]^dim) over the
    cells of ``grid``, as (a, b, squared length), a < b, sorted: a pair the
    walk lists twice appears twice."""
    order, batches = periodic_pairs(grid, pts, cell_runs(grid.flat_cells_of(pts)), radius)
    got = []
    for i, j, square in batches:
        a, b = order.take(i), order.take(j)
        lo, hi = np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
        got += zip(lo, hi, square.tolist())
    return sorted(got)


def brute_force_pairs(side, pts, radius):
    """Each unordered pair of rows of ``pts`` within ``radius`` as (a, b,
    squared length), a < b, sorted, by a scan of all pairs whose squares come
    from ``_min_image_squares`` and are kept at most ``exact_reach(radius)``."""
    a, b = np.triu_indices(pts.shape[0], 1)
    square = _min_image_squares(pts.take(b, axis=0) - pts.take(a, axis=0), side)
    keep = (square <= exact_reach(radius)).nonzero()[0]
    return list(zip(a.take(keep).tolist(), b.take(keep).tolist(), square.take(keep).tolist()))


def walk_pairs(grid, pts, radius):
    """``scan_pairs`` from the pair walk over the cells of ``grid``: each
    yielded squared length is added to both rows of its pair."""
    pts = np.mod(np.asarray(pts, dtype=float), grid.side)
    out = [[] for _ in range(pts.shape[0])]
    for a, b, s in walked_pairs(grid, pts, radius):
        out[a].append(s)
        out[b].append(s)
    return [sorted(s) for s in out]


# -- torus and metric --------------------------------------------------------


def test_torus_validation():
    with pytest.raises(GeometryError):
        Torus(-1.0, 1)
    with pytest.raises(GeometryError):
        Torus(10.0, 0)
    # the box alone: the cell grid is the point store's own
    assert [f.name for f in fields(Torus)] == ["side", "dim"]


def test_torus_cells_tile_exactly():
    t = Torus(10.0, 2)
    assert CellGrid(10.0, 2, 8).cell_size * 8 == pytest.approx(10.0, rel=1e-15)
    assert t.volume == 100.0


def test_for_radius_cell_size():
    t = Torus(10.0, 1)
    assert CellGrid.for_radius(t, 0.5).cell_size >= 0.5 - 1e-12
    # wide kernels get cells one radius wide, down to one cell; a radius of
    # 0 gets 8 cells
    assert CellGrid.for_radius(t, 4.0) == CellGrid(10.0, 1, 2)
    assert CellGrid.for_radius(t, 5.0) == CellGrid(10.0, 1, 1)
    assert CellGrid.for_radius(Torus(10.0, 3), 0.0) == CellGrid(10.0, 3, 8)
    for radius in np.linspace(0.01, 5.0, 500).tolist():
        grid = CellGrid.for_radius(t, radius)
        assert grid.n >= 1 and grid.cell_size >= radius


def distance(grid, x, y):
    """Distance of two points, the root of the pair walk's squared length,
    with a radius no pair exceeds."""
    return math.sqrt(walk_pairs(grid, [x, y], grid.side * grid.dim)[0][0])


def test_periodic_distance_wraparound():
    assert distance(G10_1, [0.5], [9.5]) == pytest.approx(1.0, rel=1e-15)
    assert distance(G10_1, [0.5], [0.5]) == 0.0
    assert distance(G10_2, [0.0, 0.0], [5.0, 5.0]) == pytest.approx(
        math.sqrt(50.0), rel=1e-15
    )


@given(
    st.lists(st.floats(min_value=0.0, max_value=9.999999), min_size=6, max_size=6)
)
def test_periodic_distance_is_metric(coords):
    x, y, z = (np.array(coords[i : i + 2]) for i in (0, 2, 4))
    dxy = distance(G10_2, x, y)
    dyx = distance(G10_2, y, x)
    dxz = distance(G10_2, x, z)
    dzy = distance(G10_2, z, y)
    assert dxy == pytest.approx(dyx, abs=1e-12)
    assert dxy <= dxz + dzy + 1e-9
    assert dxy <= math.sqrt(2.0) * 5.0 + 1e-12


def test_periodic_distances_batch_matches_scalar():
    # the roots of the batched helper's squares against one plain-Python
    # distance per pair
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 10, 2)
    pts = rng.uniform(0, 10, (40, 2))
    batch = np.sqrt(_min_image_squares(pts - x, 10.0))
    singles = [min_image_distance(10.0, x.tolist(), p) for p in pts.tolist()]
    assert batch.tolist() == singles


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_min_image_distances_at_the_wrap_edges(dim):
    # coordinates at 0, side - ulp, exactly side (the same point as 0), and
    # pairs side / 2 apart in either order; the helper's squares on
    # differences of wrapped points and the pair walk's squares on the raw
    # points, and on the points shifted by whole multiples of side, equal
    # the plain scan, and the roots of the helper's squares on the raw
    # points, which may sit exactly at side, equal its roots up to rounding
    side = 6.0
    below = np.nextafter(side, 0.0)
    edge = [0.0, below, side, 1.0, 1.0 + side / 2.0, side / 2.0, 0.25]
    rng = np.random.default_rng(dim)
    pts = np.array([[edge[(i + 3 * a) % len(edge)] for a in range(dim)] for i in range(7)])
    pts = np.concatenate([pts, rng.uniform(0.0, side, (9, dim))])
    iu, ju = np.triu_indices(pts.shape[0], 1)
    wrapped = np.mod(pts, side)
    want = [
        min_image_square(side, x, y)
        for x, y in zip(wrapped[iu].tolist(), wrapped[ju].tolist())
    ]
    assert _min_image_squares(wrapped[iu] - wrapped[ju], side).tolist() == want
    raw = np.sqrt(_min_image_squares(pts[iu] - pts[ju], side))
    np.testing.assert_allclose(raw, np.sqrt(want), rtol=0.0, atol=1e-14)
    every = side * dim  # no minimum-image distance reaches it
    want_rows = scan_pairs(side, pts, every)
    for n_cells in (1, 3, 8):
        grid = CellGrid(side, dim, n_cells)
        assert walk_pairs(grid, pts, every) == want_rows
        for shift in (-3, -1, 1, 7):
            moved = pts + shift * side
            got = walk_pairs(grid, moved, every)
            assert got == scan_pairs(side, moved, every)
            for a, b in zip(got, want_rows):  # the distances
                np.testing.assert_allclose(np.sqrt(a), np.sqrt(b), rtol=0.0, atol=1e-13)
    assert distance(CellGrid(side, 1, 8), [1.0], [1.0 + side / 2.0]) == side / 2.0
    assert distance(CellGrid(side, 1, 8), [1.0 + side / 2.0], [1.0]) == side / 2.0


def test_periodic_pairs_three_points():
    # every unordered pair once, each squared length listed for both its rows
    pts = np.array([[0.5], [9.5], [4.5]])
    assert walk_pairs(G10_1, pts, 5.0) == [[1.0, 16.0], [1.0, 25.0], [16.0, 25.0]]
    assert walk_pairs(G10_1, pts, 4.5) == [[1.0, 16.0], [1.0], [16.0]]
    assert walk_pairs(G10_1, pts[:1], 5.0) == [[]]
    runs = cell_runs(np.zeros(0, np.intp))
    assert all(a.size == 0 for a in runs)
    order, batches = periodic_pairs(G10_1, pts[:0], runs, 5.0)
    assert order.size == 0 and list(batches) == []


def test_cell_runs_sort_stably_by_cell():
    order, occupied, first, count = cell_runs(np.array([3, 1, 3, 0, 1, 3]))
    assert order.tolist() == [3, 1, 4, 0, 2, 5]
    assert occupied.tolist() == [0, 1, 3]
    assert first.tolist() == [0, 1, 3] and count.tolist() == [1, 2, 3]


@pytest.mark.parametrize(
    "n_cells, n",
    [(5, 0), (1, 1), (1, 50), (7, 1), (200, 3000), (3000, 500), (70_000, 5000)],
)
def test_cell_runs_match_the_unique_reference(n_cells, n):
    # no cells, a single cell, and random cells on grids below and above the
    # 2^8 and 2^16 radix limits
    cells = np.random.default_rng(n_cells + n).integers(0, n_cells, n).astype(np.intp)
    order, occupied, first, count = cell_runs(cells)
    want_order = np.argsort(cells, kind="mergesort")
    want = np.unique(cells[want_order], return_index=True, return_counts=True)
    assert np.array_equal(order, want_order)
    for got, ref in zip((occupied, first, count), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert order.dtype == np.intp


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_periodic_pairs_match_the_scan_on_every_cell_grid(dim):
    # coarse grids make the radius wrap round the whole grid, so cell
    # offsets repeat modulo n_cells and must be visited once each
    rng = np.random.default_rng(10 + dim)
    side = 8.0
    pts = rng.uniform(0.0, side, (40, dim))
    pts[:3] = pts[3]  # coincident points are distinct rows at distance 0
    for radius in (0.9, 2.5, side / 2.0):
        want = scan_pairs(side, pts, radius)
        for n_cells in range(1, 9):
            assert walk_pairs(CellGrid(side, dim, n_cells), pts, radius) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_periodic_pairs_list_each_unordered_pair_once(dim):
    # at radius side / 2 every even grid has an offset that is its own
    # negative modulo the grid (n_cells / 2 along an axis, and every offset
    # when n_cells <= 2); coincident points are distinct rows at distance 0,
    # and two points lie exactly side / 2 apart
    rng = np.random.default_rng(20 + dim)
    side = 8.0
    pts = rng.uniform(0.0, side, (30, dim))
    pts[:3] = pts[3]
    pts[4] = 1.0
    pts[5] = 1.0
    pts[5, 0] = 1.0 + side / 2.0
    rows = pts.tolist()
    for radius in (0.9, 2.5, side / 2.0):
        want = [
            (a, b)
            for a, b in combinations(range(len(rows)), 2)
            if min_image_distance(side, rows[a], rows[b]) <= radius
        ]
        for n_cells in range(1, 9):
            grid = CellGrid(side, dim, n_cells)
            runs = cell_runs(grid.flat_cells_of(pts))
            order, batches = periodic_pairs(grid, pts, runs, radius)
            got = []
            for i, j, _ in batches:
                a, b = order[i], order[j]
                got += zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())
            assert sorted(got) == want, (radius, n_cells)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_walk_distances_equal_the_neighbour_query(dim):
    # the audit recomputes loads from the walk and compares them with loads
    # kept up by neighbour queries: for every pair within the cutoff the two
    # must see the same squared length bit for bit, from either end, whatever the
    # grids of the walk and of the store (11 cells for radius 0.5, 8 cells
    # and rings 2 or 4 for the others).  A query at a stored point finds the
    # point itself, which is no pair
    side = 6.0
    edge = [0.0, np.nextafter(side, 0.0), side / 2.0, 1.0, 1.0 + side / 2.0, 0.25]
    rng = np.random.default_rng(30 + dim)
    pts = np.array([[edge[(i + 2 * a) % len(edge)] for a in range(dim)] for i in range(6)])
    pts = np.concatenate([pts, rng.uniform(0.0, side, (40, dim))])
    for radius in (0.5, 1.0, side / 2.0):
        cfg = TorusConfiguration(Torus(side, dim), pts)
        file_on(cfg, radius)
        n = len(cfg)
        queried = {}
        for a in range(n):
            rows, squares = cfg.upkeep._neighbors(*cfg._in_box(cfg._pos[a]))
            assert a in rows
            for b, s in zip(rows.tolist(), squares.tolist()):
                if b != a:
                    queried[a, b] = s
        assert cfg.upkeep.grid == CellGrid.for_radius(cfg.torus, radius)
        pos = cfg._pos[:n]
        for n_cells in (1, 2, 4, 5, 8, cfg.upkeep.grid.n):
            grid = CellGrid(side, dim, n_cells)
            runs = cell_runs(grid.flat_cells_of(pos))
            order, batches = periodic_pairs(grid, pos, runs, radius)
            walked = {}
            for i, j, square in batches:
                for a, b, s in zip(order[i].tolist(), order[j].tolist(), square.tolist()):
                    walked[a, b] = walked[b, a] = s
            assert walked == queried, (radius, n_cells)


def test_periodic_pairs_batches_are_bounded():
    # all n (n - 1) / 2 unordered pairs of 600 points in one cell, in batches
    # of at most PAIR_BATCH pairs whose first rows ascend through the cell
    # order, each with i < j
    rng = np.random.default_rng(12)
    grid = CellGrid(10.0, 1, 1)
    pts = rng.uniform(0.0, 10.0, (600, 1))
    order, batches = periodic_pairs(grid, pts, cell_runs(grid.flat_cells_of(pts)), 5.0)
    assert sorted(order.tolist()) == list(range(600))
    sizes, codes, firsts = [], [], []
    for i, j, square in batches:
        assert square.size <= PAIR_BATCH and i.size == j.size == square.size
        assert 0 <= i.min() and (i < j).all() and j.max() < 600
        assert (np.diff(i) >= 0).all()
        sizes.append(square.size)
        codes.append(i * 600 + j)
        firsts.append((int(i[0]), int(i[-1])))
    assert sum(sizes) == 600 * 599 // 2 and len(sizes) > 1
    assert np.unique(np.concatenate(codes)).size == sum(sizes)
    assert all(a[1] < b[0] for a, b in zip(firsts, firsts[1:]))
    assert firsts[0][0] == 0 and firsts[-1][1] == 598


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_periodic_pairs_equal_the_brute_force_pairs(dim, seed):
    # grids of 1, 2, 3, 4, 8 and 11 cells per axis, the radius 0, half a
    # cell, a whole cell and side / 2, on points drawn half from the cell
    # edges, a float either side of each, 0 and the float below side, and
    # half uniform, with duplicate rows: the walk, cut on the finer grids
    # in d >= 2, gives the scan's pairs and squared lengths bit for bit
    side = 7.3
    rng = np.random.default_rng(seed)
    for n_cells in (1, 2, 3, 4, 8, 11):
        grid = CellGrid(side, dim, n_cells)
        size = grid.cell_size
        edges = (np.arange(n_cells) * size).tolist()
        pool = edges + [math.nextafter(e, side) for e in edges]
        pool += [math.nextafter(e, 0.0) for e in edges[1:]] + [math.nextafter(side, 0.0)]
        pts = rng.uniform(0.0, side, (48, dim))
        on_edges = rng.random((48, dim)) < 0.5
        pts[on_edges] = rng.choice(pool, int(on_edges.sum()))
        pts[40:] = pts[:8]
        for radius in (0.0, size / 2.0, min(size, side / 2.0), side / 2.0):
            got = walked_pairs(grid, pts, radius)
            assert got == brute_force_pairs(side, pts, radius), (n_cells, radius)


def test_a_small_store_walks_in_one_batch(monkeypatch):
    # 100 points in d=1 on a side of 20 with the competition_1d a- (reach
    # about 3.26): 6 cells, one reach wide, and the zero offset and offset
    # 1, whose candidates fit in PAIR_BATCH together and go to the exact
    # test as one batch
    pts = np.random.default_rng(3).uniform(0.0, 20.0, (100, 1))
    cfg = TorusConfiguration(Torus(20.0, 1), pts)
    kernel = in_quanta(gaussian(0.5, 0.5, 1))
    file_on(cfg, load_reach(kernel))
    counter = CandidateCounter(monkeypatch)
    sums = cfg.kernel_sums(kernel)
    assert cfg.upkeep.grid == CellGrid(20.0, 1, 6)
    assert cfg.upkeep.grid.offsets(load_reach(kernel)) == [0, 1, -1]
    assert counter.batches == 1 and 0 < counter.pairs <= PAIR_BATCH
    assert sums.tolist() == brute_force_sums(cfg, kernel).tolist()


# -- the cut along the lead ----------------------------------------------------


def lead_boundary(m, scale):
    """The least float whose lead, in quanta of 1 / scale, truncates to m."""
    y = m / scale
    while int(y * scale) >= m:
        y = float(np.nextafter(y, -math.inf))
    while int(y * scale) < m:
        y = float(np.nextafter(y, math.inf))
    return y


def radius_apart(side, radius, dim, rng):
    """Pairs of points ``radius`` apart along the lead, up to rounding: the
    farther point sits on a quantum boundary of the walk's key, and the
    nearer one at the rounded difference and one ulp either side of it.
    Half the pairs are ahead in the box and half across the wrap; the other
    coordinates of a pair are equal."""
    scale = 2.0**LEAD_BITS / side
    pts = []
    for k in range(24):
        wrap = k % 2
        lo, hi = (0.0, radius) if wrap else (radius, side)
        m = int(rng.integers(int(lo * scale) + 1, int(hi * scale)))
        y = lead_boundary(m, scale)
        x = y + (side - radius) if wrap else y - radius
        rest = rng.uniform(0.0, side, dim - 1).tolist()
        pts.append([y] + rest)
        for near in (np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)):
            pts.append([float(near)] + rest)
    return np.array(pts)


class CandidateCounter:
    """Counts the candidate pairs whose squared lengths the walk computes,
    and the batches it computes them in."""

    def __init__(self, monkeypatch):
        self.pairs = self.batches = 0
        helper = geometry._min_image_squares

        def counted(d, side):
            self.pairs += d.shape[0]
            self.batches += 1
            return helper(d, side)

        monkeypatch.setattr(geometry, "_min_image_squares", counted)


def uncut_candidates(grid, pts, radius):
    """The candidate pairs of the walk without the cut: the rows of each
    walked offset's whole target cell, by a count per cell."""
    cells = Counter(grid.flat_cells_of(pts).tolist())
    shape = (grid.n,) * grid.dim
    total = 0
    residues = [o % grid.n for o in grid.offsets(radius)]
    for offset in product(residues, repeat=grid.dim):
        mirror = tuple(-o % grid.n for o in offset)
        if offset > mirror:
            continue
        for cell, k in cells.items():
            if not any(offset):
                total += k * (k - 1) // 2
                continue
            coords = np.unravel_index(cell, shape)
            moved = [(c + o) % grid.n for c, o in zip(coords, offset)]
            target = reference_flat(moved, grid.n)
            if offset != mirror or cell < target:
                total += k * cells.get(target, 0)
    return total


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "radius, n_cells",
    # side 7.3: 14 cells with rings 1 and 2; rings 1 on 3 and 4 cells and
    # rings 2 on 5 and 6, that is 2 rings + 1 (uncut) and 2 rings + 2 (cut)
    [(0.5, 14), (1.0, 14), (0.5, 3), (0.5, 4), (2.0, 5), (2.0, 6)],
)
def test_cut_walk_keeps_pairs_radius_apart_along_the_lead(
    dim, radius, n_cells, monkeypatch
):
    # side 7.3 is no dyadic number, so a lead on a quantum boundary carries
    # low bits that the bound x + radius (less side across the wrap) rounds
    # away: only the padded bound keeps every pair the exact test keeps
    side = 7.3
    grid = CellGrid(side, dim, n_cells)
    rings = math.ceil(radius / grid.cell_size)
    assert n_cells in (2 * rings + 1, 2 * rings + 2) or n_cells == 14
    pts = radius_apart(side, radius, dim, np.random.default_rng(40 + n_cells + dim))
    counter = CandidateCounter(monkeypatch)
    assert walk_pairs(grid, pts, radius) == scan_pairs(side, pts, radius)
    uncut = uncut_candidates(grid, pts, radius)
    if n_cells > 2 * rings + 1:
        assert counter.pairs < uncut
    else:
        assert counter.pairs == uncut


@pytest.mark.parametrize("dim", [2, 3])
def test_cut_walk_with_coincident_leads_and_leads_at_the_edges(dim):
    # twelve points share one lead and differ elsewhere, so their keys tie;
    # leads at 0, at side - ulp, whose quanta clamp below 2^32, and a hair
    # below 0, which np.mod takes to side itself, the same place as 0
    side = 7.3
    rng = np.random.default_rng(50 + dim)
    pts = rng.uniform(0.0, side, (60, dim))
    pts[:12, 0] = 2.0
    pts[12:18, 0] = np.nextafter(side, 0.0)
    pts[18:22, 0] = 0.0
    pts[22:26, 0] = -1e-18
    pts[26:30, 1:] = pts[12:16, 1:]  # at the lead edges, one cell apart
    pts[30:34, 1:] = pts[12:16, 1:]
    pts[26:30, 0] = 0.25
    pts[30:34, 0] = side - 0.25
    for radius in (0.3, 0.5, 1.2, 2.0):
        want = scan_pairs(side, pts, radius)
        for n_cells in (3, 4, 5, 6, 14, 24):
            assert walk_pairs(CellGrid(side, dim, n_cells), pts, radius) == want


def test_cut_walk_keeps_pairs_at_the_radius_across_the_gap():
    # pairs whose lead distance is at most 3e-8 side, across a lead cell
    # edge, and whose distance along axis 1, across that axis's cell edge,
    # is the rest of the radius up to a few ulps: the gap g then nearly
    # equals the radius, where sqrt(radius^2 - g^2) is ill-conditioned and
    # an unpadded radius drops pairs the exact test keeps, on grids with
    # rings 1 and 2
    side = 7.3
    rng = np.random.default_rng(70)
    for n_cells, frac in ((8, 0.5), (8, 1.0), (14, 0.9), (11, 0.7)):
        grid = CellGrid(side, 2, n_cells)
        size, radius = grid.cell_size, frac * grid.cell_size
        pts = []
        for _ in range(300):
            lead_edge, edge = ((rng.integers(1, n_cells + 1, 2) % n_cells) * size).tolist()
            lead = rng.uniform(0.0, 3e-8) * side
            below = rng.uniform(0.0, lead)
            y = edge + int(rng.integers(0, 4)) * math.ulp(side)
            x = y - math.sqrt(radius**2 - lead**2) + int(rng.integers(-6, 7)) * math.ulp(side)
            if rng.integers(2):  # the target cell behind along axis 1
                x, y = y, x
            pts += [[lead_edge - below, x], [lead_edge + lead - below, y]]
        pts = np.mod(pts, side)
        assert walked_pairs(grid, pts, radius) == brute_force_pairs(side, pts, radius)


@pytest.mark.parametrize("strip", [False, True], ids=["uniform", "wrap-strip"])
def test_cut_walk_drops_candidates_beyond_reach(strip, monkeypatch):
    # a 4.5k-point store at density 5 in d=2 (8 cells of 3.75 per axis, the
    # a- cutoff about 3.4), walked within its reach (about 3.24), and points
    # in the first and the last column of cells only, where every cut offset
    # reaches across the wrap (filed by 8 cells of 1 per axis, which the walk
    # is handed): the walk computes at most 65% of the uncut walk's
    # candidates (on the 4.5k-point store, exactly 530,412 of 1,424,033, each
    # offset cut along its own lead axis and narrowed by the gap along the
    # later one) and keeps the same sums
    rng = np.random.default_rng(1)
    if strip:
        torus, kernel = Torus(8.0, 2), in_quanta(triangular(1.0, 0.5, 2))
        pts = rng.uniform(0.0, 8.0, (600, 2))
        pts[:, 0] = rng.uniform(-1.0, 1.0, 600)
        cfg, grid = TorusConfiguration(torus, pts), CellGrid(8.0, 2, 8)  # cells of 1
    else:
        torus, kernel = Torus(30.0, 2), in_quanta(gaussian(0.5, 0.5, 2))
        cfg = sample_poisson(torus, 5.0, rng)
        grid = CellGrid.for_radius(torus, kernel.cutoff_radius())
        assert len(cfg) == 4502
    counter = CandidateCounter(monkeypatch)
    sums = walk_sums(cfg, kernel, grid)
    assert grid == CellGrid(torus.side, 2, 8)
    uncut = uncut_candidates(grid, cfg._pos[: len(cfg)], load_reach(kernel))
    assert counter.pairs <= 0.65 * uncut
    if strip:
        assert sums.tolist() == brute_force_sums(cfg, kernel).tolist()
    else:
        assert (counter.pairs, uncut) == (530412, 1424033)


@pytest.mark.parametrize(
    "dim, side, n, kernel",
    [(1, 400.0, 400, triangular(1.0, 1.0, 1)), (2, 20.0, 4000, gaussian(0.5, 0.5, 2))],
)
def test_kernel_sums_call_no_numpy_python_wrappers(dim, side, n, kernel):
    kernel = in_quanta(kernel)
    # the grid, the cell runs, the walk and the scatter: in d=2 the walk
    # is cut (6 cells per axis, rings 1) and takes several batches per offset;
    # in d=1 the reach is a hair below the radius, so 400 cells of 1 hold it
    pts = np.random.default_rng(60 + dim).uniform(0.0, side, (n, dim))
    cfg = TorusConfiguration(Torus(side, dim), pts)
    want = cfg.kernel_sums(kernel)  # the first call imports what it needs
    assert CellGrid.for_radius(cfg.torus, load_reach(kernel)).n == (400 if dim == 1 else 6)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            path = frame.f_code.co_filename.replace("\\", "/")
            if path.endswith(NUMPY_WRAPPER_FILES):
                calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        sums = cfg.kernel_sums(kernel)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert sums.tolist() == want.tolist() and cfg.upkeep.fault(cfg) is None


# -- configurations and the cell index ---------------------------------------


def row_of(cfg, pid):
    """Row of the point with id ``pid``, by a scan: the store keeps no map."""
    return [cfg.point_at(row) for row in range(len(cfg))].index(pid)


def test_insert_remove_roundtrip():
    cfg = TorusConfiguration(T10_1)
    i = insert_point(cfg, [1.0])
    j = insert_point(cfg, [2.0])
    assert len(cfg) == 2 and i != j
    assert (cfg.point_at(0), cfg.point_at(1)) == (i, j)
    np.testing.assert_allclose(cfg._pos[0], [1.0])
    np.testing.assert_allclose(cfg.remove(0), [1.0])
    assert len(cfg) == 1
    assert cfg.by_id()[0].tolist() == [j]
    assert cfg.point_at(0) == j  # the last row moved into the freed one
    np.testing.assert_allclose(cfg._pos[0], [2.0])
    with pytest.raises(GeometryError):
        cfg.remove(1)


def test_rows_outside_the_store_are_rejected():
    cfg = TorusConfiguration(T10_1)
    with pytest.raises(GeometryError):
        cfg.remove(0)
    insert_point(cfg, [1.0])
    insert_point(cfg, [2.0])
    for row in (-1, 2, 5):
        with pytest.raises(GeometryError, match=f"no row {row}"):
            cfg.remove(row)
    assert len(cfg) == 2


def test_insert_wraps_into_box():
    cfg = TorusConfiguration(T10_1)
    insert_point(cfg, [12.5])
    np.testing.assert_allclose(cfg._pos[0], [2.5])
    insert_point(cfg, [-0.5])
    np.testing.assert_allclose(cfg._pos[1], [9.5])


@pytest.mark.parametrize("below", [-1e-18, np.nextafter(0.0, -1.0)])
def test_a_hair_below_zero_wraps_to_zero(below):
    # np.mod rounds these up to the side itself, outside [0, side); the box,
    # _in_box and the store's constructor take them to 0, where a full-box
    # window counts them
    torus = Torus(20.0, 1)
    assert np.mod(below, torus.side) == torus.side
    assert torus.wrap(np.array([below])).tolist() == [0.0]
    one, built = TorusConfiguration(torus), TorusConfiguration(torus, [[below], [5.0]])
    insert_point(one, [below])
    assert one._pos[0].tolist() == built._pos[0].tolist() == [0.0]
    full = Window((0.0,), (torus.side,))
    assert full.count(one.by_id()[1]) == 1
    assert full.count(built.by_id()[1]) == 2
    for cfg in (one, built):
        file_on(cfg, 1.0)
        rows, squares = cfg.upkeep._neighbors(*cfg._in_box([below]))
        assert rows.tolist() == [0] and squares.tolist() == [0.0]
        assert cfg.upkeep.fault(cfg) is None


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_are_rejected(bad, axis, grid):
    # a NaN fails every comparison, in the first coordinate or a later one,
    # so no test of the box may take it for a point inside; nothing is
    # stored and numpy warns of nothing
    cfg = TorusConfiguration(T10_2)
    insert_point(cfg, [1.0, 2.0])
    if grid:
        file_on(cfg, 1.0)
    position = [3.0, 4.0]
    position[axis] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="finite"):
            insert_point(cfg, position)
        with pytest.raises(GeometryError, match="finite"):
            TorusConfiguration(T10_2, [[5.0, 5.0], position])
    assert len(cfg) == 1 and cfg._pos[0].tolist() == [1.0, 2.0]
    assert (cfg.upkeep.grid is not None) == grid and cfg.upkeep.fault(cfg) is None


def test_negative_zero_is_stored_as_zero():
    # -0.0 is not strictly inside the box, so it is wrapped to +0.0
    cfg = TorusConfiguration(T10_2, [[3.0, -0.0]])
    insert_point(cfg, [-0.0, 3.0])
    file_on(cfg, 1.0)
    insert_point(cfg, [-0.0, -0.0])
    signs = [math.copysign(1.0, v) for v in cfg.by_id()[1].ravel().tolist()]
    assert signs == [1.0] * 6 and cfg.upkeep.fault(cfg) is None


def test_positions_array_ascending_ids():
    rng = np.random.default_rng(1)
    cfg = uniform_cfg(T10_2, 30, rng)
    for vid in cfg.by_id()[0].tolist()[::3]:
        cfg.remove(row_of(cfg, vid))
    ids, arr = cfg.by_id()
    ids = ids.tolist()
    assert ids == sorted(ids)
    np.testing.assert_allclose(
        arr, np.array([cfg._pos[row_of(cfg, i)] for i in ids])
    )


def reference_cell_groups(cfg):
    """Rows grouped by the bucket of the reference cell, on the store's
    grid, of their positions: the cell itself unless the grid has more
    cells than the store has buckets."""
    groups, index = {}, cfg.upkeep
    for row in range(len(cfg)):
        cell = reference_flat_cell(index.grid, cfg._pos[row]) % index._buckets
        groups.setdefault(cell, set()).add(row)
    return groups


def assert_cell_arrays_consistent(cfg):
    index = cfg.upkeep
    assert index.grid is not None and index.fault(cfg) is None
    for cell, live in live_rows(cfg).items():
        k = live.size
        assert k > 0
        np.testing.assert_array_equal(index._slot[live], np.arange(k))
        np.testing.assert_array_equal(index._cell[live] % index._buckets, cell)
    for cell, live in live_rows(cfg).items():  # their positions fill the slots
        k = live.size
        np.testing.assert_array_equal(index._bpos[:, cell, :k], cfg._pos[live].T)
    free = np.arange(index._rows.shape[1]) >= index._fill[:, None]
    assert (index._bpos[:, free] == math.inf).all()  # and +inf every free slot
    index = {cell: set(live.tolist()) for cell, live in live_rows(cfg).items()}
    assert index == reference_cell_groups(cfg)


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60),
    st.sampled_from([0.4, 2.0, 4.5]),
)
def test_cell_index_rebuild_identity(ops, radius):
    # 0/1 insert at a pseudo-random spot, 2 removes the oldest surviving
    # point, on the grid the empty store is filed on for ``radius``: 24
    # cells, or 8 cells with rings 2 or 4
    rng = np.random.default_rng(123)
    cfg = TorusConfiguration(Torus(10.0, 2))
    file_on(cfg, radius)
    for op in ops:
        if op < 2 or not len(cfg):
            insert_point(cfg, rng.uniform(0.0, 10.0, 2))
        else:
            cfg.remove(row_of(cfg, int(cfg.by_id()[0][0])))
    assert_cell_arrays_consistent(cfg)


@pytest.mark.parametrize(
    "fault", ["fill", "stale position", "free slot", "listed twice", "slot", "outside"]
)
def test_cell_index_fault_names_each_corruption(fault):
    # 20 points on 3 cells, each corrupted in one way: a fill count one
    # short (its last row is listed nowhere) or one long (a free slot lists
    # a row again), a bucket position that is not its row's, a free slot
    # that is not +inf, a row listed twice and a slot column that is not
    # the row's slot; and a row outside the store
    cfg = uniform_cfg(Torus(10.0, 1), 20, np.random.default_rng(13))
    index = file_on(cfg, 3.0)
    assert index.fault(cfg) is None and index.grid.n == 3
    cell, rows = next((c, rows) for c, rows in live_rows(cfg).items() if rows.size >= 2)
    k, first, last = rows.size, int(rows[0]), int(rows[-1])
    prefix = "cell index differs from the positions: "
    misfiled = prefix + "point {} (row {}) is misfiled"
    if fault == "fill":
        index._fill[cell] = k - 1
        assert index.fault(cfg) == misfiled.format(cfg.point_at(last), last)
        index._fill[cell] = k + 1
        assert index.fault(cfg) == misfiled.format(cfg.point_at(0), 0)
    elif fault == "stale position":
        index._bpos[0, cell, 1] = math.nextafter(index._bpos[0, cell, 1], 0.0)
        assert index.fault(cfg) == misfiled.format(cfg.point_at(rows[1]), rows[1])
    elif fault == "free slot":
        index._bpos[0, cell, k] = 1.0
        assert index.fault(cfg) == prefix + f"cell {cell} has a position in a free slot"
    elif fault == "listed twice":
        other = next(o for c, o in live_rows(cfg).items() if c != cell)
        other[0] = first
        assert index.fault(cfg) == misfiled.format(cfg.point_at(first), first)
    elif fault == "slot":
        second = int(rows[1])
        index._slot[second] = 0
        assert index.fault(cfg) == misfiled.format(cfg.point_at(second), second)
    else:
        rows[int(index._slot[first])] = 20
        assert "row outside 0..19" in index.fault(cfg)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_insert_into_a_full_cell_grows_every_cell(dim):
    # a filing leaves CELL_SLACK free slots past its fullest cell; inserts
    # into that cell fill them, and the next insert grows every cell by 2
    # CELL_SLACK slots, keeping each cell's rows and positions in their
    # slots and +inf in the rest; queries still equal the brute-force scan
    rng = np.random.default_rng(20 + dim)
    cfg = TorusConfiguration(Torus(6.0, dim), rng.uniform(0.0, 6.0, (60, dim)))
    file_on(cfg, 1.0)
    fill = cfg.upkeep._fill.tolist()
    cap = cfg.upkeep._rows.shape[1]
    assert cap == max(fill) + CELL_SLACK and cfg.upkeep._fill.size == cfg.upkeep.grid.n**dim
    cell = fill.index(max(fill))
    x = cfg._pos[int(cfg.upkeep._rows[cell, 0])].copy()
    for _ in range(CELL_SLACK):
        insert_point(cfg, x)
        assert cfg.upkeep._rows.shape[1] == cap
    before = {c: rows.tolist() for c, rows in live_rows(cfg).items()}
    insert_point(cfg, x)
    assert cfg.upkeep._rows.shape == (cfg.upkeep.grid.n**dim, cap + 2 * CELL_SLACK)
    before[cell].append(len(cfg) - 1)
    assert {c: rows.tolist() for c, rows in live_rows(cfg).items()} == before
    assert_cell_arrays_consistent(cfg)
    for y in [x, *rng.uniform(0.0, 6.0, (20, dim))]:
        rows, squares = cfg.upkeep._neighbors(*cfg._in_box(y))
        assert found_by(cfg, rows, squares) == brute_force_neighbors(cfg, y.tolist(), 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_query_never_returns_a_free_slot(dim):
    # a store on 8 cells per axis queried at rings 1 and 2 (radius 0.9 and
    # 1.9 cell widths), so that some cells read slices of 3 and 5 cells per
    # axis and the rest wrap, after removals have left free slots whose row
    # entries still name rows: every query returns the brute-force
    # neighbours, each row once, none from a free slot
    rng = np.random.default_rng(30 + dim)
    grid = CellGrid(8.0, dim, 8)
    pts = rng.uniform(0.0, 8.0, (40 * 2**dim, dim))
    for radius in (0.9, 1.9):
        cfg = filed_store(grid, pts, radius)
        for _ in range(len(pts) // 2):
            cfg.remove(int(rng.integers(len(cfg))))
        index = cfg.upkeep
        assert (index._fill < index._rows.shape[1]).all()  # every cell has free slots
        for cell in range(8**dim):
            coords = np.array(np.unravel_index(cell, (8,) * dim))
            x = (coords + rng.uniform(0.0, 1.0, dim)) * grid.cell_size
            rows, squares = cfg.upkeep._neighbors(*cfg._in_box(x))
            assert rows.size == np.unique(rows).size and (rows < len(cfg)).all()
            assert found_by(cfg, rows, squares) == brute_force_neighbors(
                cfg, x.tolist(), radius
            )
        assert 0 < len(cfg.upkeep._wrapped) < 8**dim  # both query forms ran


@pytest.mark.parametrize("slots, shared", [(8, (20, 40)), (3, (2, 8))])
def test_a_grid_of_more_cells_than_buckets_shares_them(monkeypatch, slots, shared):
    # with a slot budget of 8 or 3 slots for each of the store's own 80
    # points, the 100 cells of a 10 x 10 grid share a few dozen buckets, or
    # a handful, cell c in bucket c % buckets, so that the 9 cells of an
    # inner stencil fall in 9 buckets or in fewer: every query takes the
    # minimum image over the distinct buckets of its stencil and equals the
    # brute-force scan, through inserts and removals; the index holds, and
    # a stencil is kept only for a cell whose stencil wraps, however many
    # inner cells are queried
    monkeypatch.setattr(geometry, "INDEX_POINTS", 1)
    monkeypatch.setattr(geometry, "SLOTS_PER_POINT", slots)
    rng = np.random.default_rng(41)
    cfg = TorusConfiguration(T10_2, rng.uniform(0.0, 10.0, (80, 2)))
    file_on(cfg, 0.95)
    assert cfg.upkeep.grid.n == 10 and cfg.upkeep._buckets == cfg.upkeep._rows.shape[0]
    assert shared[0] <= cfg.upkeep._buckets <= shared[1]
    plain, queried = cfg.upkeep.grid.plain_range(0.95), set()
    for step in range(300):
        if step % 3:
            insert_point(cfg, rng.uniform(0.0, 10.0, 2))
        else:
            cfg.remove(int(rng.integers(len(cfg))))
        x, cell = cfg._in_box(rng.uniform(0.0, 10.0, 2))
        rows, squares = cfg.upkeep._neighbors(x, cell)
        assert rows.size == np.unique(rows).size
        assert found_by(cfg, rows, squares) == brute_force_neighbors(cfg, x.tolist(), 0.95)
        queried.add(cell)
    assert cfg.upkeep.fault(cfg) is None
    edge = {c for c in queried if not all(k in plain for k in divmod(c, 10))}
    assert len(queried - edge) > 50 and sorted(cfg.upkeep._wrapped) == sorted(edge)
    buckets = cfg.upkeep._buckets
    assert {c: set(r.tolist()) for c, r in live_rows(cfg).items()} == {
        b: {row for row in range(len(cfg)) if int(cfg.upkeep._cell[row]) % buckets == b}
        for b in set((cfg.upkeep._cell[: len(cfg)] % buckets).tolist())
    }


def test_a_clustered_store_keeps_its_index_within_the_slot_budget():
    # 200 founders within 1 of one spot on a 2000-wide d=2 box, filed for
    # 3.4 on 588^2 cells: the index shares few buckets and holds at most
    # SLOTS_PER_POINT slots per point, counting INDEX_POINTS at least,
    # while 1200 births pile into the founders' cell, the overflows past
    # that budget filing the store afresh; queries equal the brute-force scan
    rng = np.random.default_rng(43)
    cfg = TorusConfiguration(Torus(2000.0, 2), 1000.0 + rng.uniform(0.0, 1.0, (200, 2)))
    index = file_on(cfg, 3.4)
    assert index.grid.n == 588 and index._buckets < 30
    filings, file = 0, CellIndex._file

    def counted(self, cfg, grid, radius):
        nonlocal filings
        filings += 1
        return file(self, cfg, grid, radius)

    index._file = counted.__get__(index)
    for step in range(1200):
        insert_point(cfg, 1000.5 + rng.normal(0.0, 0.1, 2))
        slots = index._rows.size
        assert slots <= geometry.SLOTS_PER_POINT * max(len(cfg), geometry.INDEX_POINTS)
        if step % 100 == 0:
            x = 1000.0 + rng.normal(0.0, 2.0, 2)
            rows, squares = index._neighbors(*cfg._in_box(x))
            assert found_by(cfg, rows, squares) == brute_force_neighbors(cfg, x.tolist(), 3.4)
    assert filings > 0 and index.fault(cfg) is None


def filed_store(grid, pts=(), radius=0.0):
    """A store of the points ``pts`` filed on ``grid`` for ``radius``."""
    cfg = TorusConfiguration(Torus(grid.side, grid.dim), pts)
    file_on(cfg, radius, grid=grid)
    return cfg


def reference_flat_cell(grid, x):
    """Reference grid cell in numpy: floor of the wrapped coordinate over
    the cell size, clamped to the last cell, then row-major flattening."""
    idx = np.minimum(
        np.floor(np.mod(x, grid.side) / grid.cell_size).astype(int), grid.n - 1
    )
    return int(np.ravel_multi_index(tuple(idx), (grid.n,) * grid.dim))


@pytest.mark.parametrize(
    "side, n_cells", [(10.0, 7), (1.0, 3), (30.0, 8), (20.0, 6), (20000.0, 6185)]
)
def test_flat_cell_formulas_agree_on_cell_edges(side, n_cells):
    # the vectorised flat cell and the one-point flat cell that the store's
    # _in_box gives with the point it wraps must agree exactly where
    # rounding decides the cell: on every edge k * cell_size, one ulp either
    # side of it, at side - ulp and on points that need wrapping
    t1 = CellGrid(side, 1, n_cells)
    edges = np.arange(n_cells + 1) * t1.cell_size
    values = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [np.nextafter(side, 0.0), side, -0.0, -1e-300, -side / 3.0, 2.5 * side],
        ]
    )
    vectorised = t1.flat_cells_of(values[:, None])
    one_point = filed_store(t1)._in_box
    for v, cell in zip(values.tolist(), vectorised.tolist()):
        assert cell == reference_flat_cell(t1, [v]) and 0 <= cell < n_cells
        x, filed = one_point([v])
        assert filed == t1.flat_cells_of(x[None])[0] == reference_flat_cell(t1, x)
    t2 = CellGrid(side, 2, n_cells)
    one_point = filed_store(t2)._in_box
    pairs = np.stack([values, np.roll(values, 7)], axis=1)
    for p, cell in zip(pairs.tolist(), t2.flat_cells_of(pairs).tolist()):
        assert cell == reference_flat_cell(t2, p)
        x, filed = one_point(p)
        assert filed == t2.flat_cells_of(x[None])[0] == reference_flat_cell(t2, x)


def brute_force_neighbors(cfg, x, radius):
    """(id, distance) of each point within radius of x by a scan over every
    row, in plain Python floats with the minimum image per axis, in
    ascending id order."""
    x = [v % cfg.torus.side for v in x]
    found = []
    for row in range(len(cfg)):
        dist = min_image_distance(cfg.torus.side, x, cfg._pos[row].tolist())
        if dist <= radius:
            found.append((cfg.point_at(row), dist))
    return sorted(found)


def found_by(cfg, rows, squares):
    """(id, distance) of each row a query returned, the distance the root
    of its squared length, in ascending id order: the query's own order is
    the stencil's gather order."""
    return sorted(zip(map(cfg.point_at, rows.tolist()), np.sqrt(squares).tolist()))


@settings(max_examples=100)
@given(
    dim=st.integers(min_value=1, max_value=3),
    grid_radius=st.sampled_from([0.2, 0.5, 0.75, 1.2, 2.0, 2.5, 3.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=1, max_value=60),
)
def test_neighbors_matches_brute_force(dim, grid_radius, seed, steps):
    # a random sequence of inserts (some outside the box, so _in_box wraps
    # them) and removals of random survivors.  The store has no index until
    # it is filed after a random step on the grid ``grid_radius`` picks (29,
    # 11, 7, 4, 2, 2 or 1 cells per axis), for a radius that is
    # ``grid_radius`` itself or, half the time, a random one up to side/2,
    # so that stencils reach several rings and wrap round the whole grid.
    # From then on, after every step the index holds, and a query at a
    # random spot and one at a live point, which finds the point itself,
    # each within that radius, equal the brute-force scan
    side = 6.0
    rng = np.random.default_rng(seed)
    cfg = TorusConfiguration(Torus(side, dim))
    filed_at = int(rng.integers(steps))
    for step in range(steps):
        if rng.random() < 0.75 or not len(cfg):
            insert_point(cfg, rng.uniform(-0.5 * side, 1.5 * side, dim))
        else:
            cfg.remove(int(rng.integers(len(cfg))))
        if step < filed_at:
            assert cfg.upkeep.grid is None and cfg.upkeep.fault(cfg) is None
            continue
        if step == filed_at:
            radius = grid_radius if rng.random() < 0.5 else rng.uniform(0.0, side / 2.0)
            file_on(cfg, radius, grid=CellGrid.for_radius(cfg.torus, grid_radius))
        queries = [rng.uniform(-0.5 * side, 1.5 * side, dim)]
        if len(cfg):
            queries.append(cfg._pos[int(rng.integers(len(cfg)))].copy())
        for x in queries:
            rows, squares = cfg.upkeep._neighbors(*cfg._in_box(x))
            want = brute_force_neighbors(cfg, x.tolist(), radius)
            assert found_by(cfg, rows, squares) == want
        assert cfg.upkeep.grid == CellGrid.for_radius(cfg.torus, grid_radius)
        assert_cell_arrays_consistent(cfg)


def assert_same_store(a, b):
    """The two stores hold the same rows, ids, loads, load total, load
    bound, grid, radius and cells, with the same order of rows within each
    cell and so the same slots."""
    n = len(a)
    assert len(b) == n and a._next_id == b._next_id and a._total == b._total
    assert a.upkeep.grid == b.upkeep.grid and a.upkeep.radius == b.upkeep.radius
    for name in ("_pos", "_id", "_load"):
        np.testing.assert_array_equal(getattr(a, name)[:n], getattr(b, name)[:n])
    for name in ("_cell", "_slot"):
        np.testing.assert_array_equal(getattr(a.upkeep, name)[:n], getattr(b.upkeep, name)[:n])
    assert a.bound == b.bound
    a_cells, b_cells = live_rows(a), live_rows(b)
    assert a_cells.keys() == b_cells.keys()
    for cell, rows in a_cells.items():
        assert rows.tolist() == b_cells[cell].tolist()
    assert_cell_arrays_consistent(a)
    assert_cell_arrays_consistent(b)


def assert_filed_in_row_order(cfg):
    """A from-scratch filing lists each cell's rows in ascending order;
    after it, inserts and removes alone change the index."""
    for rows in live_rows(cfg).values():
        assert (np.diff(rows) > 0).all()


@pytest.mark.parametrize("dim, radius", [(1, 3.0), (1, 0.5), (2, 1.0), (3, 2.0)])
def test_a_store_built_with_its_points_equals_sequential_inserts(dim, radius):
    # a store filed for ``radius`` while empty that inserts one point at a
    # time by ``_insert`` against one built with the same points and then
    # filed, every row from scratch: the same store, down to the order of
    # rows in each cell.  Grids of side 7: 2 cells (3.0 is in (3/8 side,
    # side/2], the offset 1 is its own negative), 13 cells, 6 and 3 cells
    # per axis.  Then both take the same loads and removals and the same
    # inserts one at a time, points on the box edge among them, and stay
    # the same store, which draws the same rows from the same draws and
    # whose kernel sums refile nothing
    torus = Torus(7.0, dim)
    rng = np.random.default_rng(11)
    first = rng.uniform(-1.0, 8.0, (300, dim))
    second = rng.uniform(-1.0, 8.0, (700, dim))
    second[:5] = 7.0  # exactly on the box edge: wraps to 0
    gone = rng.permutation(300)[:60]
    seq = TorusConfiguration(torus)
    file_on(seq, radius)
    assert seq.upkeep.grid == CellGrid.for_radius(torus, radius)
    built = TorusConfiguration(torus, first)
    for x in first:
        insert_point(seq, x)
    assert built.upkeep.grid is None and built.upkeep.fault(built) is None
    file_on(built, radius)
    assert_same_store(built, seq)
    assert_filed_in_row_order(built)
    loads = rng.integers(0, 3 << 20, 300)
    loads[::7] += 1
    for cfg in (built, seq):
        cfg.set_loads(loads)
        for pid in gone.tolist():
            cfg.remove(row_of(cfg, pid))
    assert_same_store(built, seq)
    for x in second:
        insert_point(built, x)
        insert_point(seq, x)
    assert_same_store(built, seq)
    drawn = [
        [cfg.sample_row(BlockDraws(), np.random.default_rng(k)) for k in range(101)]
        for cfg in (built, seq)
    ]
    assert drawn[0] == drawn[1]
    assert_same_store(built, seq)
    built.kernel_sums(triangular(1.0, radius, dim))
    assert_same_store(built, seq)
    assert len(TorusConfiguration(torus, np.zeros((0, dim)))) == 0
    with pytest.raises(GeometryError):
        TorusConfiguration(torus, np.zeros((3, dim + 1)))


def test_a_store_refiled_for_another_cutoff_files_every_row_afresh():
    # a store keeps up its columns alone until it is filed, here for 1.5 on
    # 6 cells per axis; inserts, removals and queries then change its index
    # and keep the stencils that wrap.  Filed afresh for the cutoff of a
    # kernel, on the grid it picks, it lists every row in row order and
    # keeps no stencil; its kernel sums equal those of a fresh store built
    # with the same points, bit for bit, and the brute-force sums; a query
    # then keeps what lies within the new radius
    torus = Torus(10.0, 2)
    rng = np.random.default_rng(14)
    cfg = sample_poisson(torus, 3.0, rng)
    assert type(cfg.upkeep) is Unloaded and cfg.upkeep.fault(cfg) is None
    n = len(cfg)
    pid = insert_point(cfg, [1.0, 2.0])
    first = cfg._pos[0].copy()
    np.testing.assert_array_equal(cfg.remove(0), first)
    assert len(cfg) == n and cfg.point_at(0) == pid
    assert type(cfg.upkeep) is Unloaded
    file_on(cfg, 1.5)
    assert cfg.upkeep.grid == CellGrid.for_radius(torus, 1.5) == CellGrid(10.0, 2, 6)
    assert sum(rows.size for rows in live_rows(cfg).values()) == len(cfg)
    assert_cell_arrays_consistent(cfg)
    assert_filed_in_row_order(cfg)
    for x in rng.uniform(0.0, 10.0, (50, 2)):
        cfg.upkeep._neighbors(*cfg._in_box(x))
        insert_point(cfg, x)
        cfg.remove(int(rng.integers(len(cfg))))
    assert cfg.upkeep._wrapped
    k = in_quanta(gaussian(1.0, 0.1, 2))  # cutoff about 0.68: 14 cells
    file_on(cfg, k.cutoff_radius(), k)
    sums = cfg.kernel_sums(k)
    assert cfg.upkeep.grid == CellGrid.for_radius(torus, k.cutoff_radius())
    assert cfg.upkeep.grid == CellGrid(10.0, 2, 14) and cfg.upkeep.radius == k.cutoff_radius()
    assert cfg.upkeep._wrapped == {}
    assert_cell_arrays_consistent(cfg)
    assert_filed_in_row_order(cfg)
    fresh = TorusConfiguration(torus, cfg._pos[: len(cfg)])
    assert sums.tobytes() == fresh.kernel_sums(k).tobytes()
    assert sums.tolist() == brute_force_sums(cfg, k).tolist()
    x = [5.0, 5.0]
    rows, squares = cfg.upkeep._neighbors(*cfg._in_box(x))
    want = brute_force_neighbors(cfg, x, k.cutoff_radius())
    assert found_by(cfg, rows, squares) == want


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
def test_load_total_is_the_reduce_of_the_live_block_sums(n):
    # load_total is the store's running root, kept by every call that
    # changes a load: an int equal to the reduce of the live load column,
    # at every size, with no load above the store's load bound, over
    # random births and deaths, which change their neighbours' loads, and
    # removals, that cross block edges, and 0 when empty.  A starting load
    # is at least 2^36 quanta, more than all a point's neighbours' terms of
    # at most 0.01 2^36, so no death leaves a load below 0
    rng = np.random.default_rng(n)
    cfg = TorusConfiguration(Torus(50.0, 1), rng.uniform(0.0, 50.0, (n, 1)))
    kernel = triangular(0.01, 1.0, 1).scaled(2.0**36)
    file_on(cfg, kernel.cutoff_radius(), kernel)
    cfg.set_loads(rng.integers(2**36, 2**37, n))

    def check():
        got = cfg.load_total()
        assert type(got) is int and got == np.add.reduce(cfg.loads)
        assert cfg.stale_sum() is None

    check()
    for _ in range(400):
        k, op = len(cfg), rng.integers(4)
        if op < 2 or not k:
            cfg._add_point(rng.uniform(0.0, 50.0, 1))
        elif op == 2:
            assert cfg._remove_point(int(rng.integers(k)))[2] is None
        else:
            cfg.remove(int(rng.integers(k)))
        check()


def test_the_cell_index_keeps_its_load_bound_at_every_size():
    # a store of 250 rows of random loads on the cell index, grown by
    # births to 300 rows, with load changes, each a death and a birth that
    # change their neighbours' loads, shrunk by remove to 200 and grown past
    # one block again by _insert of points of load 0.  A starting load is at
    # least 1, more than all a point's neighbours' terms of at most 0.01, so
    # no death leaves a load below 0.  After every step, on either side of
    # BLOCK_ROWS rows, a birth has raised the bound to the largest load and
    # any other step left it, no load is above it, and the load total is
    # the reduce of the live column.  Then a draw keeps the first row whose
    # target falls below its load: the least load is no target below its
    # own row's, the largest load less 1 is, and a draw that recomputes the
    # bound first draws against the largest load
    rng = np.random.default_rng(9)
    cfg = TorusConfiguration(Torus(50.0, 1), rng.uniform(0.0, 50.0, (250, 1)))
    kernel = triangular(0.01, 1.0, 1).scaled(2.0**36)
    file_on(cfg, kernel.cutoff_radius(), kernel)
    cfg.set_loads(rng.integers(2**36, 2**37, 250))
    crossings = recomputes = 0

    def step(change, raises=False):
        nonlocal crossings, recomputes
        before, bound = len(cfg), cfg.bound
        change()
        n, loads = len(cfg), cfg.loads
        crossings += before <= BLOCK_ROWS < n
        assert cfg.bound == (max(bound, int(loads.max())) if raises else bound)
        assert cfg.load_total() == np.add.reduce(loads)
        assert cfg.stale_sum() is None
        least, most = int(loads.argmin()), int(loads.argmax())
        bound, due = cfg.bound, cfg._due
        draws = Scripted(least, loads.item(least), most, loads.item(most) - 1)
        assert cfg.sample_row(draws, None) == most and not draws.rows
        assert draws.asked == [n, cfg.bound] * 2
        recomputes += not due
        assert cfg.bound == (loads.item(most) if not due else bound)

    def birth():
        cfg._add_point(rng.uniform(0.0, 50.0, 1))

    def change_loads():
        assert cfg._remove_point(int(rng.integers(len(cfg))))[2] is None
        birth()

    while len(cfg) < 300:
        step(birth, raises=True)
        step(change_loads, raises=True)
    while len(cfg) > 200:
        step(lambda: cfg.remove(int(rng.integers(len(cfg)))))
        step(change_loads, raises=True)
    for x in rng.uniform(0.0, 50.0, (100, 1)):
        step(lambda: insert_point(cfg, x))
    assert crossings == 2 and len(cfg) == 300 and recomputes >= 1


def reference_flat(coords, n):
    """Row-major flat index of integer cell coordinates on n cells per axis."""
    flat = 0
    for c in coords:
        flat = flat * n + int(c)
    return flat


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencils_keep_pairs_that_round_to_a_whole_cell_radius(dim):
    # a pair whose distance rounds to k cell sizes along the first axis can
    # lie k + 1 cells apart: side 7.3 on 6 cells, x a float below the first
    # cell edge and y on the third edge, filed in cell 3, at the radius of 2
    # sizes.  Then, on grids of 6 and 8 cells with points on every cell edge
    # and a float either side of it, queries from each point and the pair
    # walk at every whole-cell radius up to side / 2 keep what the
    # brute-force scan keeps, distances and the walk's squares bit for bit
    side = 7.3
    size = CellGrid(side, dim, 6).cell_size
    rest = [0.5 * size] * (dim - 1)
    x, y = [math.nextafter(size, 0.0)] + rest, [3.0 * size] + rest
    assert min_image_distance(side, x, y) == 2.0 * size
    assert CellGrid(side, 1, 6).flat_cells_of(np.array([x[:1], y[:1]])).tolist() == [0, 3]
    cfg = filed_store(CellGrid(side, dim, 6), np.array([y]), 2.0 * size)
    rows, squares = cfg.upkeep._neighbors(*cfg._in_box(x))
    assert found_by(cfg, rows, squares) == [(0, 2.0 * size)]
    assert walk_pairs(cfg.upkeep.grid, [x, y], 2.0 * size) == [[min_image_square(side, x, y)]] * 2
    for n in (6, 8):
        grid = CellGrid(side, dim, n)
        size = grid.cell_size
        edges = (np.arange(n) * size).tolist()
        pool = edges + [math.nextafter(e, side) for e in edges]
        pool += [math.nextafter(e, 0.0) for e in edges[1:]] + [math.nextafter(side, 0.0)]
        rng = np.random.default_rng(100 + 10 * dim + n)
        pts = rng.choice(pool, (len(pool), dim))
        pts[:, 0] = pool
        radii = [k * size for k in range(1, n) if k * size <= side / 2.0]
        for radius in radii:
            cfg = filed_store(grid, pts, radius)
            for x in pts:
                rows, squares = cfg.upkeep._neighbors(*cfg._in_box(x))
                want = brute_force_neighbors(cfg, x.tolist(), radius)
                assert found_by(cfg, rows, squares) == want
            assert walk_pairs(grid, pts, radius) == scan_pairs(side, pts, radius)


def test_for_radius_cells_hold_the_radius_and_its_pad():
    # cells are wide enough for one ring, and one more cell would make them
    # too narrow: at whole fractions of the side, too, where cells of the
    # radius alone would need a second ring (the shipped certificate
    # config's cutoff of 1.0 on a side of 20 gets 19 cells)
    assert CellGrid.for_radius(Torus(20.0, 1), 1.0) == CellGrid(20.0, 1, 19)
    for side in (7.3, 20.0, 400.0):
        torus = Torus(side, 2)
        radii = [side / k for k in range(2, 200)] + [side / 8.0 + 1e-15, side / 7.0]
        for radius in radii:
            grid = CellGrid.for_radius(torus, radius)
            assert grid.rings(radius) == 1
            assert CellGrid(side, 2, grid.n + 1).rings(radius) > 1


@given(
    side=st.floats(0.5, 1e4),
    k=st.integers(2, 10_000),
    ulps=st.sampled_from([-1, 0, 1]),
    frac=st.floats(1e-3, 1.0),
    dim=st.sampled_from([1, 2, 3]),
)
def test_for_radius_gives_one_ring_of_cells_at_least_the_radius_wide(
    side, k, ulps, frac, dim
):
    # radii in (0, side / 2]: side / k and a float either side of it, and
    # a fraction of side / 2
    near = side / k
    if ulps:
        near = math.nextafter(near, math.inf if ulps > 0 else 0.0)
    torus = Torus(side, dim)
    for radius in (min(near, side / 2.0), frac * side / 2.0):
        grid = CellGrid.for_radius(torus, radius)
        assert grid.rings(radius) == 1 and grid.cell_size >= radius
        assert CellGrid(side, dim, grid.n + 1).rings(radius) > 1


def step_down_grid(torus, radius):
    """``CellGrid.for_radius`` by its plain search: down one cell at a time
    from int(side / radius) cells, capped so that a flat cell fits an
    int64, until ``rings(radius)`` is 1."""
    if radius <= 0.0:
        return CellGrid(torus.side, torus.dim, 8)
    n = int(min(torus.side / radius, geometry._most_cells_per_axis(torus.dim)))
    grid = CellGrid(torus.side, torus.dim, max(n, 1))
    while grid.n > 1 and grid.rings(radius) > 1:
        grid = CellGrid(torus.side, torus.dim, grid.n - 1)
    return grid


@given(
    side=st.floats(0.5, 1e4),
    k=st.integers(2, 10**6),
    ulps=st.sampled_from([-1, 0, 1]),
    frac=st.floats(2e-6, 1.0),
    dim=st.sampled_from([1, 2, 3]),
)
def test_for_radius_ends_where_the_plain_step_down_ends(side, k, ulps, frac, dim):
    # the search starts at most a few cells above its answer, and ends on
    # the plain search's grid: at side / k and a float either side of it,
    # k up to 10^6, and at that less the pad of 8 ulp(side), where a start
    # at int(side / (radius + pad)) cells can lie one below the answer; at
    # a fraction of side / 2 down to side / 10^6; and at every shipped
    # cutoff the box holds
    near = side / k
    if ulps:
        near = math.nextafter(near, math.inf if ulps > 0 else 0.0)
    torus = Torus(side, dim)
    radii = [min(near, side / 2.0), frac * side / 2.0]
    radii += [r for r in [near - 8.0 * math.ulp(side)] if 0.0 < r <= side / 2.0]
    radii += [r for r in shipped_cutoffs() if r <= side / 2.0]
    for radius in radii:
        assert CellGrid.for_radius(torus, radius) == step_down_grid(torus, radius)


@pytest.mark.parametrize("radius", [1e-13, 5e-324])
def test_for_radius_of_a_radius_far_below_the_side_takes_a_few_steps(radius, monkeypatch):
    # the plain search would step down about 1.8e11 and 9e18 times here,
    # from int(side / radius) cells and from the cap of 2^63 - 1: cells must
    # hold the radius and its pad of 8 ulp(side)
    rings = CellGrid.rings
    calls = []
    monkeypatch.setattr(CellGrid, "rings", lambda g, r: calls.append(g.n) or rings(g, r))
    grid = CellGrid.for_radius(Torus(1.0, 1), radius)
    assert len(calls) <= 3 and grid.rings(radius) == 1 and grid.cell_size >= radius
    assert CellGrid(1.0, 1, grid.n + 1).rings(radius) > 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_stencil_lists_each_cell_once(dim):
    # every cell within ``rings`` of the centre along each axis, modulo the
    # grid, once: rings wrap round coarse grids, and the offset n / 2 of an
    # even grid is its own negative
    for n in range(1, 9):
        grid = CellGrid(8.0, dim, n)
        shape = (n,) * dim
        for rings, cell in product(range(5), range(n**dim)):
            stencil = grid.cell_stencil(cell, max(rings - 0.5, 0.0) * grid.cell_size)
            near = [
                [b for b in range(n) if min(abs(a - b), n - abs(a - b)) <= rings]
                for a in np.unravel_index(cell, shape)
            ]
            want = {reference_flat(c, n) for c in product(*near)}
            assert len(stencil) == len(set(stencil)), (n, rings, cell)
            assert set(stencil) == want, (n, rings, cell)


def reference_stencil(grid, cell, radius):
    """The cells of the stencil of ``cell`` in the order a query gathers
    them, and whether they wrap, built naively from the cell's coordinates:
    each moved by the distinct residues of -rings..rings, sorted, the first
    axis outermost; they wrap unless every coordinate lies rings or more
    from both grid edges and 2 (rings + 1) <= n."""
    n, rings = grid.n, grid.rings(radius)
    residues = sorted({o % n for o in range(-rings, rings + 1)})
    coords = np.unravel_index(cell, (n,) * grid.dim)
    cells = [
        reference_flat([(c + o) % n for c, o in zip(coords, offset)], n)
        for offset in product(residues, repeat=grid.dim)
    ]
    wraps = n < 2 * (rings + 1) or not all(rings <= c < n - rings for c in coords)
    return cells, wraps


def wraps_by_rule(grid, radius, cell):
    """Whether the stencil of ``cell`` wraps, read from
    ``CellGrid.plain_range``."""
    plain = grid.plain_range(radius)
    return not all(c in plain for c in np.unravel_index(cell, (grid.n,) * grid.dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_query_gathers_the_naive_stencil_in_its_order(dim):
    # on grids of 1 to 8 cells per axis, at 1 to 4 rings, a query from each
    # cell returns the brute-force neighbours, from cells of the naive
    # stencil alone, in ascending cell and then slot, on which the last
    # bits of every load, and so seeded runs, depend.  The rule's wrap flag
    # is the naive one, and the store keeps a stencil for a cell only if it
    # wraps
    rng = np.random.default_rng(50 + dim)
    for n in range(1, 9):
        grid = CellGrid(8.0, dim, n)
        pts = rng.uniform(0.0, 8.0, (3 * n**dim, dim))
        for rings in range(1, 5):
            radius = (rings - 0.5) * grid.cell_size
            assert grid.rings(radius) == rings
            cfg = filed_store(grid, pts, radius)
            for cell in range(n**dim):
                coords = np.array(np.unravel_index(cell, (n,) * dim))
                x, filed = cfg._in_box((coords + 0.5) * grid.cell_size)
                assert filed == cell
                rows, squares = cfg.upkeep._neighbors(x, cell)
                assert found_by(cfg, rows, squares) == brute_force_neighbors(
                    cfg, x.tolist(), radius
                )
                want, wraps = reference_stencil(grid, cell, radius)
                index = cfg.upkeep
                cells = index._cell[rows]
                got = list(zip((cells % index._buckets).tolist(), index._slot[rows].tolist()))
                assert got == sorted(set(got)), (n, rings, cell)
                assert set(cells.tolist()) <= set(want), (n, rings, cell)
                assert wraps_by_rule(grid, radius, cell) == wraps, (n, rings, cell)
                assert (cell in index._wrapped) == wraps, (n, rings, cell)


# -- the exact reach and plain differences ------------------------------------


@cache
def shipped_cutoffs():
    """The cutoff of every kernel of the shipped configs, in d = 1, 2, 3, as
    a tuple, loaded once."""
    cutoffs = []
    for path in sorted(CONFIGS.glob("*.json")):
        model = load_config(path).model
        for kernel in (model.a_plus, model.a_minus):
            if kernel is not None:
                cutoffs += [replace(kernel, dim=d).cutoff_radius() for d in (1, 2, 3)]
    return tuple(cutoffs)


def test_exact_reach_is_the_largest_square_whose_root_is_within_the_radius():
    # radii across magnitudes, subnormal to huge, and the shipped cutoffs:
    # the reach's root is within the radius and the next float's is not, so
    # for every square s, s <= reach exactly when sqrt(s) <= radius; and
    # radius * radius misses the reach for a good share of radii
    rng = np.random.default_rng(5)
    cutoffs = shipped_cutoffs()
    assert len(cutoffs) == 12 and all(0.0 < r < math.inf for r in cutoffs)
    spread = (10.0 ** rng.uniform(-300.0, 300.0, 2000)).tolist()
    radii = [*cutoffs, *spread, 0.0, 5e-324, 1e-160, 1.0, 1.3, 3.4, 1e154, 1e200]
    for radius in radii:
        reach = exact_reach(radius)
        assert math.sqrt(reach) <= radius < math.sqrt(math.nextafter(reach, math.inf))
    missed = sum(exact_reach(r) != r * r for r in spread)
    assert 0.3 * len(spread) < missed < 0.7 * len(spread)
    assert exact_reach(-1.0) == -math.inf  # no length reaches a negative radius


def pairs_at_the_reach(side, x, radius, rng):
    """Points whose squared minimum-image length from ``x``, in the
    arithmetic of ``min_image_square``, lies in (radius * radius, reach] (the
    first list) or is the float just above reach (the second); six of each,
    wrapped into [0, side).  The reach is found here by the root alone."""
    reach = radius * radius
    while math.sqrt(math.nextafter(reach, math.inf)) <= radius:
        reach = math.nextafter(reach, math.inf)
    above = math.nextafter(reach, math.inf)
    inside, beyond = [], []
    while len(inside) < 6 or len(beyond) < 6:
        step = rng.normal(size=len(x))
        step *= radius / np.linalg.norm(step)
        y = np.mod(np.asarray(x) + step, side)
        for k in range(-3, 4):
            z = y.copy()
            z[-1] = y[-1] + k * np.spacing(y[-1])
            if not ((0.0 < z) & (z < side)).all():
                continue
            square = min_image_square(side, x, z.tolist())
            if radius * radius < square <= reach and len(inside) < 6:
                inside.append(z)
            elif square == above and len(beyond) < 6:
                beyond.append(z)
    return inside, beyond


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("wraps", [False, True])
def test_squares_within_the_reach_keep_what_the_root_keeps(dim, wraps):
    # pairs whose squared length lies above radius * radius but within the
    # reach, which the root keeps, and one float above the reach, which it
    # drops: a query from a cell whose stencil wraps (x near the origin, the
    # pairs across the box edge) or does not (x mid-box), and the pair walk
    # on the same points, keep exactly what sqrt(square) <= radius keeps
    side = 10.0
    radii = np.arange(1.3, 1.4, 1e-3).tolist()  # one whose square rounds down
    radius = next(r for r in radii if math.sqrt(math.nextafter(r * r, math.inf)) <= r)
    rng = np.random.default_rng(80 + dim + 2 * wraps)
    x = [0.1] * dim if wraps else [side / 2.0] * dim
    inside, beyond = pairs_at_the_reach(side, x, radius, rng)
    pts = np.array(inside + beyond + rng.uniform(0.0, side, (30, dim)).tolist())
    cfg = TorusConfiguration(Torus(side, dim), pts)
    file_on(cfg, radius)
    x_in_box, cell = cfg._in_box(x)
    rows, squares = cfg.upkeep._neighbors(x_in_box, cell)
    assert wraps_by_rule(cfg.upkeep.grid, radius, cell) == wraps
    assert list(cfg.upkeep._wrapped) == ([cell] if wraps else [])  # kept only if it wraps
    found = found_by(cfg, rows, squares)
    assert found == brute_force_neighbors(cfg, x, radius)
    ids = {pid for pid, _ in found}
    assert set(range(6)) <= ids and not set(range(6, 12)) & ids
    both = np.concatenate([[x], pts])
    want = scan_pairs(side, both, radius)
    assert len(want[0]) >= 6
    for grid in (cfg.upkeep.grid, CellGrid(side, dim, 4)):
        assert walk_pairs(grid, both, radius) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rings", [1, 2])
@pytest.mark.parametrize("extra", [1, 2, 3])
def test_plain_differences_only_where_the_stencil_does_not_wrap(dim, rings, extra):
    # grids of 2 rings + 1, + 2 and + 3 cells per axis, with points on cell
    # edges, a float either side of them, at 0 and a float below side, and a
    # query near the low edge, at the middle and a float below the high edge
    # of every cell, at radii of ``rings`` rings and at side / 2, for which
    # (rings + 1) cell sizes exceed side / 2: every answer equals the
    # brute-force scan, distances bit for bit, whether the stencil wraps or
    # the plain differences serve.  The radii stay clear of rings cell
    # sizes, where a pair a float farther apart than the radius across
    # rings + 1 cells can round to the radius (the stencil leaves it out)
    side = 7.3
    n = 2 * rings + extra
    grid = CellGrid(side, dim, n)
    size = grid.cell_size
    edges = (np.arange(n) * size).tolist()
    pool = edges + [math.nextafter(e, side) for e in edges]
    pool += [math.nextafter(e, 0.0) for e in edges[1:]] + [math.nextafter(side, 0.0)]
    rng = np.random.default_rng(90 + 9 * dim + 3 * rings + extra)
    pts = rng.choice(pool, (12 * n, dim))
    pts[: len(pool), 0] = pool
    radii = [(rings - 0.5) * size, (rings - 0.01) * size, side / 2.0]
    for radius in radii:
        cfg = filed_store(grid, pts, radius)
        for cell in range(n**dim):
            coords = np.array(np.unravel_index(cell, (n,) * dim), dtype=float)
            spots = (coords * size + 1e-9, (coords + 0.5) * size, (coords + 1.0) * size)
            for x in spots:
                x = np.nextafter(x, 0.0)
                rows, squares = cfg.upkeep._neighbors(*cfg._in_box(x))
                want = brute_force_neighbors(cfg, x.tolist(), radius)
                assert found_by(cfg, rows, squares) == want
        # the stencils that wrap, by the rule, and only those the store
        # keeps: every one at side / 2, whose rings k have 2 (k + 1) > n,
        # and at ``rings`` rings only if extra is 1
        flags = [wraps_by_rule(grid, radius, cell) for cell in range(n**dim)]
        assert sorted(cfg.upkeep._wrapped) == [cell for cell, f in enumerate(flags) if f]
        assert len(flags) == n**dim
        assert grid.rings(radius) == rings or 2 * (grid.rings(radius) + 1) > n
        assert all(flags) if extra == 1 or radius == side / 2.0 else not all(flags)


# -- neighbor sums ------------------------------------------------------------


def test_kernel_sum_empty():
    k = in_quanta(triangular(1.0, 1.0, 1))
    cfg = TorusConfiguration(T10_1)
    assert cfg.kernel_sums(k).shape == (0,)
    insert_point(cfg, [5.0])
    assert cfg.kernel_sums(k).tolist() == [0]


def test_kernel_sum_single_point():
    # the term 0.5 of a sup of 1 is 2^29 quanta of 2^-30, whole, in int64
    cfg = TorusConfiguration(T10_1)
    insert_point(cfg, [5.0])
    insert_point(cfg, [5.5])
    sums = cfg.kernel_sums(in_quanta(triangular(1.0, 1.0, 1)))
    assert sums.dtype == np.int64 and sums.tolist() == [2**29, 2**29]


def test_kernel_sum_exclude_self():
    # a point's sum leaves out the point itself but not a coincident one
    cfg = TorusConfiguration(T10_1)
    insert_point(cfg, [5.0])
    insert_point(cfg, [5.5])
    k = in_quanta(triangular(1.0, 1.0, 1))
    assert cfg.kernel_sums(k).tolist() == [2**29, 2**29]
    insert_point(cfg, [5.0])
    assert cfg.kernel_sums(k).tolist() == [3 * 2**29, 2**30, 3 * 2**29]


def test_kernel_sums_truncate_each_term_before_the_sum():
    # a point 0.5 from two others, whose terms are 1.5 quanta each: the sum
    # of the truncated terms is 2 quanta, not the 3 of the truncated sum
    cfg = TorusConfiguration(T10_1)
    for x in ([4.5], [5.0], [5.5]):
        insert_point(cfg, x)
    assert cfg.kernel_sums(triangular(3.0, 1.0, 1)).tolist() == [1, 2, 1]


def brute_force_sum(cfg, kernel, x, exclude=None):
    """Sum of ``kernel``, in quanta, from x over every row but ``exclude``,
    at every length, each term truncated to a whole quantum, by the
    plain-Python scan of the squared lengths."""
    total = 0
    for row in range(len(cfg)):
        if row == exclude:
            continue
        square = min_image_square(cfg.torus.side, x, cfg._pos[row].tolist())
        total += int(kernel._profile_sq(np.array([square]))[0])
    return total


def brute_force_sums(cfg, kernel):
    return np.array(
        [
            brute_force_sum(cfg, kernel, cfg._pos[row].tolist(), exclude=row)
            for row in range(len(cfg))
        ],
        dtype=np.int64,
    )


def brute_force_terms(cfg, kernel):
    """Each ordered pair's ``kernel`` term in quanta by the plain-Python
    scan, (n, n), 0 on the diagonal, at every length."""
    n = len(cfg)
    terms = np.zeros((n, n), dtype=np.int64)
    for a, b in combinations(range(n), 2):
        square = min_image_square(cfg.torus.side, cfg._pos[a].tolist(), cfg._pos[b].tolist())
        terms[a, b] = terms[b, a] = int(kernel._profile_sq(np.array([square]))[0])
    return terms


@pytest.mark.parametrize("dim, side", [(1, 40.0), (2, 10.0)])
def test_a_store_of_one_block_keeps_its_pair_terms_until_it_passes_one_block(dim, side):
    # a store of 200 rows builds the pair-term matrix of the plain-Python
    # scan, with no grid, and the loads, its row sums, of kernel_sums,
    # which walks the pairs without filing the store.  Births and deaths
    # keep both in step; the birth that takes it past BLOCK_ROWS rows drops
    # the matrix and files the store for its reach, and it stays on the
    # index as it shrinks back to one block
    rng = np.random.default_rng(dim)
    cfg = TorusConfiguration(Torus(side, dim), rng.uniform(0.0, side, (200, dim)))
    kernel = in_quanta(gaussian(0.4, 0.5, dim))
    cfg.build_loads(kernel)
    n = len(cfg)
    assert cfg.upkeep.grid is None and cfg.upkeep._terms.shape == (BLOCK_ROWS, BLOCK_ROWS)
    assert cfg.upkeep._terms[:n, :n].tolist() == brute_force_terms(cfg, kernel).tolist()
    assert cfg.loads.tolist() == cfg.upkeep._terms[:n, :n].sum(axis=1).tolist()

    def check():
        assert cfg.upkeep.fault(cfg) is None and cfg.stale_sum() is None
        filed = cfg.upkeep.grid
        assert cfg.loads.tolist() == cfg.kernel_sums(kernel).tolist()
        assert cfg.upkeep.grid == filed  # kernel_sums files nothing

    check()
    while len(cfg) <= BLOCK_ROWS:
        k = len(cfg)
        if rng.random() < 0.7:
            cfg._add_point(rng.uniform(0.0, side, dim))
        else:
            assert cfg._remove_point(int(rng.integers(k)))[2] is None
        assert isinstance(cfg.upkeep, PairTerms) == (len(cfg) <= BLOCK_ROWS)
        check()
    assert cfg.upkeep.grid == CellGrid.for_radius(cfg.torus, load_reach(kernel))
    while len(cfg) > 240:
        assert cfg._remove_point(int(rng.integers(len(cfg))))[2] is None
        check()
    assert type(cfg.upkeep) is CellIndex and cfg.upkeep.fault(cfg) is None


def test_terms_fault_names_a_row_sum_that_differs_from_its_load():
    # a matrix equal to its fresh build whose row sum is not its load
    rng = np.random.default_rng(4)
    cfg = TorusConfiguration(T10_1, rng.uniform(0.0, 10.0, (30, 1)))
    kernel = in_quanta(triangular(1.0, 1.0, 1))
    cfg.build_loads(kernel)
    assert cfg.upkeep.fault(cfg) is None
    row_sum = cfg._load.item(3)
    cfg._load[3] += 1
    want = f"row sum of point 3 is {row_sum} quanta, its load {row_sum + 1}"
    assert cfg.upkeep.fault(cfg) == "pair-term matrix differs: " + want


def test_kernel_sum_matches_brute_force_gaussian():
    rng = np.random.default_rng(3)
    cfg = uniform_cfg(Torus(20.0, 2), 100, rng)
    k = in_quanta(gaussian(1.0, 1.0, 2))
    assert cfg.kernel_sums(k).tolist() == brute_force_sums(cfg, k).tolist()


def test_kernel_sum_matches_brute_force_many_cases():
    rng = np.random.default_rng(4)
    kernels_1d = [in_quanta(triangular(1.0, 1.0, 1)), in_quanta(gaussian(0.7, 0.4, 1))]
    for trial in range(250):
        cfg = uniform_cfg(Torus(12.0, 1), rng.integers(0, 40), rng)
        k = kernels_1d[trial % 2]
        assert cfg.kernel_sums(k).tolist() == brute_force_sums(cfg, k).tolist()


REACH_KERNELS = {
    "gaussian-d1": in_quanta(gaussian(0.5, 0.5, 1)),
    "gaussian-d2": in_quanta(gaussian(0.5, 0.5, 2)),
    "gaussian-d3": in_quanta(gaussian(0.5, 0.5, 3)),
    "exponential-d2": in_quanta(exponential(0.3, 0.2, 2)),
    "triangular-d2": in_quanta(triangular(1.0, 1.0, 2)),
    "tabulated-to-zero": in_quanta(tabulated([0.0, 0.5, 1.0], [1.0, 0.5, 0.0])),
    "tabulated-ends-positive": in_quanta(
        tabulated([0.0, 0.7, 1.4], [0.1, 0.05, 0.02], tail_sup_bound=0.02, tail_mass_bound=0.1)
    ),
    # 0 at radius 1, then 2 quanta of 2^-30 at radius 2, back to 0 at 3
    "tabulated-rises-in-its-tail": in_quanta(
        tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0**-29, 0.0])
    ),
    "below-a-quantum": gaussian(0.5, 0.5, 1),  # not in quanta: no term is whole
}


@pytest.mark.parametrize("name", list(REACH_KERNELS))
def test_load_reach_is_where_every_term_floors_to_zero(name):
    # past the reach the profile in quanta stays below REACH_LEVEL, so every
    # term there is 0, out to 100 reaches and at the next float square; a
    # hair inside it the profile is at the level or above, so the reach is
    # no wider than it must be.  The rising table's reach is on its last
    # segment that reaches a quantum: 3 - REACH_LEVEL / 2
    kernel = REACH_KERNELS[name]
    reach = load_reach(kernel)
    if name == "below-a-quantum":
        assert reach == 0.0 and kernel.sup_norm() < REACH_LEVEL
        return
    beyond = reach * np.geomspace(1.0, 100.0, 20_001)[1:]
    beyond = np.append(beyond * beyond, math.nextafter(exact_reach(reach), math.inf))
    assert kernel._profile_sq(beyond).max() < REACH_LEVEL
    inside = reach * (1.0 - 1e-12)
    assert kernel._profile_sq(np.array([inside * inside])).item() >= REACH_LEVEL
    if name == "tabulated-ends-positive":
        assert reach == 1.4
    if name == "tabulated-rises-in-its-tail":
        assert reach == pytest.approx(3.0 - REACH_LEVEL / 2.0, rel=1e-12)
    if name.startswith("gaussian"):  # the quantum ends short of the cutoff in d >= 2
        assert (reach > kernel.cutoff_radius()) == name.endswith("d1")


@pytest.mark.parametrize("far", [0, 300], ids=["matrix", "index"])
def test_a_pair_between_the_cutoff_and_the_reach_keeps_its_quantum(far):
    # the competition_1d a- in d=1 is cut off at about 3.2335, where it is
    # still 1.42 quanta, and its reach is about 3.2605.  A pair 3.25 apart
    # has a term of one quantum, which the loads of either regime hold, from
    # the build, a birth and the kernel sums, and a death takes back.  The
    # ``far`` points lie more than the reach from the pair
    kernel = in_quanta(gaussian(0.5, 0.5, 1))
    cutoff, reach, gap = kernel.cutoff_radius(), load_reach(kernel), 3.25
    assert cutoff < gap < reach < 3.261
    assert kernel._profile_sq(np.array([gap * gap])).astype(np.int64).tolist() == [1]
    torus, rng = Torus(100.0, 1), np.random.default_rng(far)
    pts = np.concatenate([[[1.0], [1.0 + gap]], rng.uniform(8.0, 92.0, (far, 1))])
    built = TorusConfiguration(torus, pts)
    built.build_loads(kernel)
    grown = TorusConfiguration(torus, pts[2:])
    grown.build_loads(kernel)
    grown._add_point(pts[0])
    grown._add_point(pts[1])
    regime = CellIndex if far else PairTerms
    for cfg in (built, grown):
        assert type(cfg.upkeep) is regime
        pair = [0, 1] if cfg is built else [far, far + 1]
        assert cfg.loads[pair].tolist() == [1, 1]
        assert cfg.loads.tolist() == cfg.kernel_sums(kernel).tolist()
    assert grown._remove_point(far)[2] is None
    assert grown.loads.tolist() == grown.kernel_sums(kernel).tolist()
    assert grown.loads[row_of(grown, far + 1)] == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_sums_same_on_every_cell_grid(dim):
    # the store filed for the kernel's reach (about 3.3) by hand on the grid
    # of each radius, or on the one it picks for the reach, and the kernel
    # sums walked on that grid: 2, 79, 15, 7 or 1 cells; on the coarser
    # grids the ball of the reach wraps
    # round the whole grid, so cell offsets repeat modulo the grid and must
    # be visited once each
    rng = np.random.default_rng(6)
    k = in_quanta(gaussian(1.0, 0.5, dim))
    points = rng.uniform(0.0, 8.0, (60, dim))
    expected = None
    for grid_radius in (None, 0.1, 0.5, 1.0, 4.0):
        cfg = TorusConfiguration(Torus(8.0, dim))
        for x in points:
            insert_point(cfg, x)
        radius = grid_radius or load_reach(k)
        file_on(cfg, load_reach(k), grid=CellGrid.for_radius(cfg.torus, radius))
        sums = walk_sums(cfg, k, cfg.upkeep.grid)
        assert cfg.upkeep.grid == CellGrid.for_radius(cfg.torus, radius)
        if expected is None:
            expected = brute_force_sums(cfg, k)
        assert sums.tolist() == expected.tolist()


def index_of(cfg):
    """The store's cell index as plain values: its grid, cell and slot
    columns and each cell's live rows, in order."""
    n = len(cfg)
    cells = {c: rows.tolist() for c, rows in live_rows(cfg).items()}
    index = cfg.upkeep
    return index.grid, index._cell[:n].tolist(), index._slot[:n].tolist(), cells


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_sums_refile_on_the_store_grid(dim):
    # kernel_sums of a store filed by hand for its kernel's reach on 19
    # cells walks the reach's own grid (about 3.3, so 3 cells), as a walk
    # of the store's grid sums, and refiles no row: the index that inserts
    # and removes left, whose cells no longer list their rows in ascending
    # order, is exactly as it was
    rng = np.random.default_rng(15 + dim)
    torus = Torus(10.0, dim)
    cfg = sample_poisson(torus, 40.0 / torus.volume, rng)
    grid = CellGrid.for_radius(torus, 0.5)
    k = in_quanta(gaussian(1.0, 0.5, dim))
    file_on(cfg, load_reach(k), grid=grid)
    assert cfg.upkeep.grid == grid != CellGrid.for_radius(torus, load_reach(k))
    reordered = False
    for _ in range(3):
        for x in rng.uniform(0.0, 10.0, (10, dim)):
            insert_point(cfg, x)
        for _ in range(5):
            cfg.remove(int(rng.integers(len(cfg))))
        index = index_of(cfg)
        sums = cfg.kernel_sums(k)
        assert index_of(cfg) == index and cfg.upkeep.fault(cfg) is None
        assert_cell_arrays_consistent(cfg)
        reordered |= any(rows != sorted(rows) for rows in index[3].values())
        assert sums.tolist() == brute_force_sums(cfg, k).tolist()
        assert walk_sums(cfg, k, grid).tolist() == sums.tolist()
    assert reordered or dim == 2  # 361 cells in d=2 seldom hold two points


def test_kernel_too_wide_rejected():
    cfg = TorusConfiguration(T10_1)
    insert_point(cfg, [5.0])
    with pytest.raises(GeometryError, match="kernel too wide"):
        cfg.kernel_sums(in_quanta(gaussian(1.0, 2.0, 1)))


def both_stores(n, seed):
    """Stores of the same ``n`` uniform points on T10_1, each of which draws
    a death by acceptance against its load bound: a bare one and, at up to
    BLOCK_ROWS rows, one that keeps the pair-term matrix."""
    stores = [uniform_cfg(T10_1, n, np.random.default_rng(seed))]
    if n <= BLOCK_ROWS:
        matrix = uniform_cfg(T10_1, n, np.random.default_rng(seed))
        matrix.build_loads(in_quanta(triangular(1.0, 1.0, 1)))
        assert type(matrix.upkeep) is PairTerms
        stores.append(matrix)
    return stores


def test_sample_row_never_draws_zero_weight():
    # the two rows in the middle have load 0 and the others 1 to 3, the
    # bound: neither keeps any target, 0 among them, and each rejection
    # draws a fresh row and a fresh target, until a row above 0 keeps one
    for n in (BLOCK_ROWS, 512):
        loads = 1 + np.arange(n) % 3
        loads[n // 2 - 1 : n // 2 + 1] = 0
        for cfg in both_stores(n, 7):
            cfg.set_loads(loads)
            assert cfg.bound == 3
            for target in range(3):
                zero = (n // 2 - 1, target), (n // 2, target)
                assert draw_from(cfg, *zero, (n // 2 + 1, 0)) == n // 2 + 1
            assert draw_from(cfg, (n // 2 - 2, 0)) == n // 2 - 2


@pytest.mark.parametrize("n", [3, BLOCK_ROWS, BLOCK_ROWS + 1, 700])
def test_sample_row_at_zero_skips_the_leading_rows_of_load_0(n):
    # the target 0 keeps no leading row of load 0, the first and the last
    # of them included, and keeps the first row above 0, in the largest
    # store past the whole first block of rows of load 0
    loads = np.random.default_rng(6).integers(1, 5, n)
    first = min(n - 1, BLOCK_ROWS + 3) if n > BLOCK_ROWS + 1 else n // 2
    loads[:first] = 0
    for cfg in both_stores(n, n):
        cfg.set_loads(loads)
        assert draw_from(cfg, (0, 0), (first - 1, 0), (first, 0)) == first


@pytest.mark.parametrize("n", [1, 100, BLOCK_ROWS, BLOCK_ROWS + 1, 700])
def test_sample_row_at_the_largest_uniform_draws_the_last_row(n):
    # the largest target, the bound less 1, at every size: the last row,
    # whose load is the bound, keeps it, and row 0, below the bound,
    # does not.  With the rows from n / 2 on at load 0 and row n / 2 - 1
    # at the bound, the last row keeps no target, and the last row of
    # positive load keeps the largest
    for cfg in both_stores(n, n):
        loads = np.random.default_rng(5).integers(1, 2**40, n)
        loads[-1] = 2**40
        cfg.set_loads(loads)
        assert cfg.bound == 2**40
        assert draw_from(cfg, (n - 1, 2**40 - 1)) == n - 1
        if n > 1:
            assert draw_from(cfg, (0, 2**40 - 1), (n - 1, 2**40 - 1)) == n - 1
            loads[n // 2 :] = 0
            loads[n // 2 - 1] = 2**40
            cfg.set_loads(loads)
            assert cfg.bound == 2**40
            assert draw_from(cfg, (n - 1, 0), (n // 2 - 1, 2**40 - 1)) == n // 2 - 1


@pytest.mark.parametrize("n", [4, 3 * BLOCK_ROWS + 4])
def test_sample_row_finds_the_covering_row_of_every_target(n):
    # every row and every target below the bound, one trial each: the row
    # is kept for the targets 0..load - 1 and no other, so a trial keeps
    # row r with probability its load over n times the bound; a rejected
    # trial draws a fresh row and target, here the row of the largest load
    # at 0.  loads [0, 3, 0, 2] keep (1, 0), (1, 1), (1, 2), (3, 0) and
    # (3, 1).  The store past BLOCK_ROWS holds many loads of 0 and a block,
    # block 1, of loads 0 alone
    loads = np.array([0, 3, 0, 2])
    if n > 4:
        loads = np.random.default_rng(12).integers(0, 4, n) * (np.arange(n) % 3 == 0)
        loads[BLOCK_ROWS : 2 * BLOCK_ROWS] = 0
        loads[-4:] = [0, 3, 0, 2]
    most = int(loads.argmax())
    for cfg in both_stores(n, n):
        cfg.set_loads(loads)
        assert cfg.bound == 3
        kept = []
        for row, target in product(range(n), range(3)):
            if target < loads[row]:
                assert draw_from(cfg, (row, target)) == row
                kept.append((row, target))
            else:
                assert draw_from(cfg, (row, target), (most, 0)) == most
        assert kept == [(r, t) for r in range(n) for t in range(loads[r])]
    if n == 4:
        assert kept == [(1, 0), (1, 1), (1, 2), (3, 0), (3, 1)]


# -- windows ------------------------------------------------------------------


def test_window_volume_and_validation():
    w = Window((0.0, 0.0), (2.0, 2.0))
    assert w.volume == 4.0
    with pytest.raises(GeometryError):
        Window((0.0,), (0.0,))
    with pytest.raises(GeometryError):
        Window((1.0, 0.0), (0.5, 1.0))
    # a NaN or infinite bound used to pass, giving a NaN or infinite volume
    for lo, hi in [
        ((math.nan,), (20.0,)),
        ((0.0,), (math.nan,)),
        ((0.0,), (math.inf,)),
        ((0.0, -math.inf), (1.0, 1.0)),
        ((math.inf,), (math.inf,)),
    ]:
        with pytest.raises(GeometryError, match="finite"):
            Window(lo, hi)


def test_count_in_window_examples():
    cfg = TorusConfiguration(T10_2)
    w = Window((0.0, 0.0), (2.0, 2.0))
    assert w.count(cfg.by_id()[1]) == 0
    insert_point(cfg, [1.0, 1.0])
    insert_point(cfg, [9.0, 9.0])
    assert w.count(cfg.by_id()[1]) == 1


def test_count_in_window_binomial_thinning():
    rng = np.random.default_rng(6)
    w = Window((0.0,), (1.0,))
    counts = []
    for _ in range(50):
        cfg = uniform_cfg(T10_1, 10_000, rng)
        counts.append(w.count(cfg.by_id()[1]))
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
        w.count(sample_poisson(T10_1, 1.0, rng).by_id()[1]) for _ in range(2000)
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
