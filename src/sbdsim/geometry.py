"""Periodic boxes, cell grids, the pair walk, the point store, windows and
Poisson draws.

``Torus`` is the periodic box alone; its ``wrap`` takes points into
[0, side).  ``CellGrid`` maps points to flat cells, and one rule,
``CellGrid.for_radius``, picks a grid for a radius.  ``CellGrid.rings``
counts the cells a radius reaches along an axis, padded by a proved bound
on the rounding of a minimum-image length.  ``CellGrid.offsets`` lists the
signed cell offsets that every stencil and pair walk take.  ``cell_runs``
is the one sort by cell.

``periodic_pairs`` walks each unordered pair within a radius once, over
half the cell offsets, in bounded batches.  In d >= 2 it cuts each offset
along its lead axis.  A pair is kept when its squared minimum-image length
is at most ``exact_reach`` of the radius, the same test as distance <=
radius.  Lengths leave the query and the walk squared: each kernel family
states its profile on the square (``RadialKernel._profile_sq``).

``TorusConfiguration`` is the simulator's one point store.  It keeps the
columns every load regime shares, the load total and a bound on the loads,
and draws a row by its load, by stochastic acceptance against that bound,
whatever the regime.  Its ``upkeep`` keeps the loads, in one of three
regimes: ``Unloaded``, ``PairTerms`` or ``CellIndex``.  ``sample_poisson``
draws a homogeneous Poisson configuration and builds the store with it.

The store's per-event methods, its regimes' and ``periodic_pairs`` call
numpy only through ufuncs, ufunc methods and ndarray methods.  A
Python-level wrapper of ``numpy/_core/fromnumeric.py``, ``_methods.py`` or
``lib/_function_base_impl.py`` costs a few microseconds, a sizeable share
of an event of some tens of them.  The per-event methods make no ufunc
reduction or ``ufunc.at`` either: a sum is the last element of a running
sum, and a least or largest load an argmin or argmax.  They read scalars
with ``.item()``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .kernels import RadialKernel

# A store of at most this many rows, one block, keeps the pair-term matrix
BLOCK_ROWS = 256
# Row pairs per batch of the vectorised kernel sums; bounds their scratch memory.
PAIR_BATCH = 1 << 14
# The pair walk keys each row by its run in the high bits of an int64 and by
# its lead coordinate, in quanta of side / 2**LEAD_BITS, in the low bits.
LEAD_BITS = 32
LEAD_MAX = (1 << LEAD_BITS) - 1
# A pair's load term, in quanta of a-, is below 2**LOAD_BITS (see load_scale)
LOAD_BITS = 31
# Free slots past the fullest bucket at a filing; an insert into a full
# bucket grows every bucket by twice as many, or by a sixteenth if more
CELL_SLACK = 4
# The cell index holds at most SLOTS_PER_POINT slots a point, counting
# INDEX_POINTS points at least: a filing that would fill more than half of
# that shares fewer buckets, and an overflow past it all refiles the store
SLOTS_PER_POINT = 8
INDEX_POINTS = 1024
# The fault of a death that would take a point's load below 0
LOAD_FAULT = "death-rate cache for point {} fell to {} quanta on removing point {}"


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Torus:
    """Periodic box [0, side)^dim; its cell grids are ``CellGrid`` values."""

    side: float
    dim: int

    def __post_init__(self):
        if not (self.side > 0.0 and math.isfinite(self.side)):
            raise GeometryError(f"side must be positive, got {self.side}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise GeometryError(f"dim must be a positive integer, got {self.dim!r}")

    @property
    def volume(self) -> float:
        return self.side**self.dim

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """``x`` taken into [0, side): ``np.mod`` alone rounds a coordinate a
        hair below 0 up to side itself, which is taken to 0."""
        x = np.mod(x, self.side)
        return np.where(x < self.side, x, 0.0)


def _most_cells_per_axis(dim: int) -> int:
    """The largest n with n**dim < 2**63, so that flat cells fit an int64."""
    n = int(2.0 ** (63 / dim))
    while n**dim >= 2**63:
        n -= 1
    while (n + 1) ** dim < 2**63:
        n += 1
    return n


@dataclass(frozen=True)
class CellGrid:
    """Grid of n cells per axis on the box [0, side)^dim, for the pair walk
    and the point store, which picks its own with ``for_radius``."""

    side: float
    dim: int
    n: int

    @classmethod
    def for_radius(cls, torus: Torus, radius: float) -> "CellGrid":
        """The grid for queries within ``radius`` > 0: the most cells per
        axis, at most side / radius, for which ``rings(radius)`` is 1, so
        that a stencil spans three cells along each axis, but fewer than
        would make a flat cell reach 2^63; for a radius of 0, 8 per axis.

        The search steps down one cell at a time until ``rings`` is 1,
        starting from the fewer of int(side / radius) and int(side / (radius
        + pad)) + 2 cells, pad = 8 ulp(side) as in ``rings``: k >= int(fl(side
        / P)) + 2 cells, P = fl(radius + pad), are narrower than P / (1 + 5
        u) with u = 2^-53, since P >= 8 u side, so they reach two rings.
        ``rings`` never falls as cells are added, so the search ends on the
        grid a step-down from int(side / radius) gives, in a few steps even
        for a radius far below the side."""
        if radius <= 0.0:
            return cls(torus.side, torus.dim, 8)
        side = torus.side
        n = min(
            int(min(side / radius, _most_cells_per_axis(torus.dim))),
            int(side / (radius + 8.0 * math.ulp(side))) + 2,
        )
        grid = cls(side, torus.dim, max(n, 1))
        while grid.n > 1 and grid.rings(radius) > 1:  # cells narrower than radius + pad
            grid = cls(side, torus.dim, grid.n - 1)
        return grid

    @cached_property
    def cell_size(self) -> float:
        return self.side / self.n

    def rings(self, radius: float) -> int:
        """How many cells along each axis a stencil or pair walk reaches for
        ``radius``: ceil((radius + pad) / cell_size), with pad = 8 ulp(side),
        and 0 for a radius of 0, which keeps only pairs at a rounded distance
        of 0: equal coordinates, or 0 and side, which share a cell.

        The pad is a bound on the rounding of one minimum-image length.
        Write u = 2^-53 and s = cell_size, side / n rounded, so that n s <=
        side (1 + u).  A coordinate v of [0, side] is filed in cell c =
        min(floor(fl(v / s)), n - 1), so c >= k implies v >= k s (1 - u),
        and c = k < n - 1 implies v < (k + 1) s.  Let two coordinates lie in
        cells more than R = rings apart both ways round the grid (with 2 R +
        1 >= n the stencil holds every cell along the axis).  Then their
        exact separations both ways round the box exceed R s - 2.1 u side.
        Their computed minimum image, min(|fl(y - x)|, fl(side - |fl(y -
        x)|)), loses at most 2 u side more, and the square, the sum of the
        squares, which is at least that axis's square, and the root lose a
        relative 2 u of a length below side / 2 (1 + u): 1.1 u side.  So the
        pair's computed distance exceeds R s - 5.2 u side.  R >= fl(fl(radius
        + pad) / s) gives R s >= (radius + pad)(1 - 2 u) >= radius + pad -
        1.1 u side, and with pad = 8 ulp(side) > 8 u side that distance
        exceeds the radius: the exact test drops every pair of cells that a
        stencil leaves out.
        """
        if radius <= 0.0:
            return 0
        return math.ceil((radius + 8.0 * math.ulp(self.side)) / self.cell_size)

    def offsets(self, radius: float) -> list[int]:
        """The cell offsets along one axis that reach within ``radius``, the
        one rule of every stencil and pair walk: one of -rings..rings for
        each residue modulo the grid, in the order of the residues, signed
        as the residue o if o <= rings and as o - n if not.  On a grid of
        more than 2 rings cells that is 0, 1, .., rings, -rings, .., -1."""
        rings, n = self.rings(radius), self.n
        residues = sorted({o % n for o in range(-rings, rings + 1)})
        return [o if o <= rings else o - n for o in residues]

    def flat_cells_of(self, pts: np.ndarray) -> np.ndarray:
        """Row-major flat index of the grid cell of every row of ``pts``,
        each coordinate wrapped into the box first, in one vectorised pass."""
        idx = (np.mod(pts, self.side) / self.cell_size).astype(np.intp)
        np.minimum(idx, self.n - 1, out=idx)
        flat = idx[:, 0]
        for axis in range(1, self.dim):
            flat = flat * self.n + idx[:, axis]
        return flat

    def cell_stencil(self, cell: int, radius: float) -> tuple[int, ...]:
        """The flat cells that can hold a point within ``radius`` of a point
        of flat cell ``cell``, each once, wrapping round the grid: the cell
        moved by each tuple of ``offsets`` along the axes, the first axis
        outermost.  They reach ``rings(radius)`` cells along each axis,
        which covers every pair the exact test keeps."""
        n, offsets = self.n, self.offsets(radius)
        coords = []
        for _ in range(self.dim):
            cell, c = divmod(cell, n)
            coords.append(c)
        flats = [0]
        for c in reversed(coords):
            flats = [f * n + (c + o) % n for f in flats for o in offsets]
        return tuple(flats)

    @lru_cache(maxsize=16)  # the replicas of a run file one grid for one radius
    def plain_range(self, radius: float) -> range:
        """Coordinates along an axis at least rings from both grid edges, on
        a grid of 2 (rings + 1) <= n cells per axis: the stencil of a cell
        with every coordinate there does not wrap, and its points and the
        cell's lie at most side / 2 apart along each axis, up to a rounding
        only pairs beyond the radius see: their difference is the minimum image."""
        n, rings = self.n, self.rings(radius)
        return range(rings, n - rings) if n >= 2 * (rings + 1) else range(0)


def exact_reach(radius: float) -> float:
    """The largest float whose correctly rounded square root is at most
    ``radius`` (-inf if radius < 0), so that sqrt(s) <= radius exactly when
    s <= exact_reach(radius); radius * radius misses it for about half of
    all radii, by a float or two."""
    if radius < 0.0:
        return -math.inf
    reach = radius * radius
    while math.sqrt(reach) > radius:
        reach = math.nextafter(reach, 0.0)
    while reach < math.inf and math.sqrt(math.nextafter(reach, math.inf)) <= radius:
        reach = math.nextafter(reach, math.inf)
    return reach


def _min_image_squares(d: np.ndarray, side: float) -> np.ndarray:
    """Squared minimum-image lengths of the rows of ``d``, differences of
    points in [0, side]^dim; ``d`` is overwritten.

    |delta| <= side along each axis, so min(|delta|, side - |delta|) is the
    minimum image along it.  The squares are summed column by column, since
    a sum along short rows is slow in numpy.
    """
    np.abs(d, out=d)
    np.minimum(d, side - d, out=d)
    d *= d
    square = d[:, 0] if d.shape[1] == 1 else d[:, 0] + d[:, 1]
    for axis in range(2, d.shape[1]):
        square += d[:, axis]
    return square


def cell_runs(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """The package's one sort by cell: (order, occupied, first, count), the
    rows of ``cells`` stably sorted by cell, and each occupied cell with the
    start and length of its run of rows in that order.

    ``cells`` are nonnegative flat cells.  The sort takes them in the least
    unsigned type that holds them, so grids of up to 2^16 cells get numpy's
    radix sort; a stable sort is unique, so the order is the same.  The runs
    come from one scan of the sorted cells for the rows where the cell
    changes.
    """
    if not cells.size:
        return tuple(np.zeros(0, t) for t in (np.intp, cells.dtype, np.intp, np.intp))
    small = cells.astype(np.min_scalar_type(np.maximum.reduce(cells)))
    order = small.argsort(kind="stable")
    in_order = cells.take(order)
    changes = (in_order[1:] != in_order[:-1]).nonzero()[0]
    bounds = np.concatenate(([0], changes + 1, [cells.size]))
    first = bounds[:-1]
    return order, in_order.take(first), first, bounds[1:] - first


def _lead_quanta(lead: np.ndarray, scale: float, pad: int) -> np.ndarray:
    """``lead * scale`` truncated to int64, plus ``pad``, clamped to
    -1..LEAD_MAX; ``lead`` is overwritten."""
    lead *= scale
    q = lead.astype(np.int64)
    q += pad
    np.maximum(q, -1, out=q)
    return np.minimum(q, LEAD_MAX, out=q)


def _axis_keys(
    coord: np.ndarray, run_of_row: np.ndarray, scale: float, side: float
) -> tuple[np.ndarray, np.ndarray]:
    """The pair walk's keys of rows along one axis, sorted, and the order
    that sorts them: each row's run in the high bits and its coordinate
    ``coord``, taken into [0, side), in quanta of 1 / scale in the low
    LEAD_BITS; ``coord`` is overwritten."""
    np.mod(coord, side, out=coord)  # side itself is 0, as in its flat cell
    keys = _lead_quanta(coord, scale, 0)
    keys += run_of_row << LEAD_BITS
    by_axis = keys.argsort()
    return keys.take(by_axis), by_axis


def periodic_pairs(
    grid: CellGrid, pos: np.ndarray, runs: tuple[np.ndarray, ...], radius: float
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Unordered pairs of distinct rows of ``pos`` at most ``radius`` apart,
    each once, with their squared minimum-image lengths, walked over
    neighbouring grid cells.

    ``pos`` holds points in [0, side]^dim and ``runs`` is ``cell_runs`` of
    their flat cells on ``grid``.  Returns (order, batches).  ``order`` is
    the walk's own order of the rows of ``pos``, run by run as in ``runs``;
    ``batches`` yields (i, j, square): the pair of rows ``order[i]`` and
    ``order[j]`` and its squared length, with no root taken.

    The cell offsets, the residues of ``grid.offsets``, are distinct
    modulo the grid, so a radius that wraps round the whole grid visits
    each cell once; only the lexicographically lower of each offset and its
    negative is walked, every row paired with the rows of its offset cell.
    An offset that is its own negative pairs each two cells once, from the
    lower one; the zero offset pairs i < j within a cell.  The candidate
    pairs of consecutive offsets that fit in PAIR_BATCH together go to the
    exact test as one batch; an offset with more is walked in batches of at
    most about PAIR_BATCH candidates of its own, with ``i`` ascending in
    each.

    In d >= 2, on grids of more than 2 rings + 1 cells per axis (rings =
    ``grid.rings(radius)``), the walk cuts each offset other than 0 along
    its lead axis a, that of its first nonzero component o_a, 0 < o_a <=
    rings: the target cell lies o_a - 1 to o_a + 1 cells ahead of a row
    along a, and the other way round at least rings + 1 cells, farther than
    the radius.  It sorts each run's rows along a with one sort of an int64
    key: the run's index in the high bits and the coordinate along a, taken
    into [0, side), in quanta of side / 2^LEAD_BITS, clamped below
    2^LEAD_BITS, in the low LEAD_BITS.  The walk's own order is that of
    axis 0; the order along another lead axis is made when the walk reaches
    its offsets, which come one lead axis after another, maps the
    candidates back to the walk's order, and is dropped before the next
    axis's.  Along each later axis b > a with o_b not 0 (|o_b| cells ahead
    or behind, modulo the grid), a row lies a gap g_b = (|o_b| - 1) s plus
    its distance to the edge of its own cell that faces the target cell
    from every point of that cell, s = ``grid.cell_size``.  So a row at x_a
    pairs only with the prefix of its target run whose coordinates along a
    are at most x_a + sqrt((radius + pad)^2 - g^2), g^2 the sum of the
    g_b^2, less side where the target lies past the last cell; pad = 8 d^2
    ulp(side), and a negative radicand is taken as 0.  One ``searchsorted``
    of the keys per offset finds every row's prefix, its bound padded by
    one more quantum.  In d = 1, and on grids of at most 2 rings + 1 cells
    per axis, the walk keeps the filing's order and cuts nothing: each
    offset pairs a row with its whole target cell.  Scratch memory is
    O(d n + PAIR_BATCH).

    The exact test, square <= ``exact_reach(radius)``, stays the only one
    that drops a pair.  Write u = 2^-53, L = side, r = radius <= L / 2, e =
    8 u L, and m_b for the computed minimum image along axis b of a pair the
    exact test keeps; the cut needs n >= 3 and n^d < 2^63, so d <= 39, and
    the bounds below are to first order in u.  The kept square, a sum of d
    rounded squares, is at most exact_reach(r) <= r^2 (1 + u)^2, so sum
    m_b^2 <= r^2 (1 + (d + 3) u).  As in ``CellGrid.rings``, filing puts a
    coordinate at most u L outside its cell and m_b is at most 2 u L below
    the exact minimum image, so with the rounding of the gap m_b >= g_b - e,
    and g_b >= -e; hence m_b^2 >= g_b^2 - 2 e |g_b|, with |g_b| <= m_b + e
    <= r + 2 e, and m_a^2 <= N = r^2 (1 + (d + 3) u) - g^2 + 2 (d - 1) e (r
    + 2 e).  The computed radicand errs by at most (d^2 + 3) u (r + pad + 2
    e)^2, as g^2 <= (d - 1) (r + 2 e)^2 for a kept pair, so it is at least N
    when 2 r pad + pad^2 exceeds (d + 3) u r^2 + 2 (d - 1) e (r + 2 e) and
    that error.  With pad = 8 d^2 ulp(L) > 8 d^2 u L and 2 r <= L, 2 r pad
    exceeds the terms in r more than twice over, and pad^2 the terms in e^2
    = 64 u^2 L^2 four times over.  So the root is at least m_a, and the lead
    distance, at most m_a + 4 u L as in ``CellGrid.rings``, is within the
    bound but for a few u L from the root and the two sums that make the
    bound; one quantum, L 2^-32, covers them and the rounding of the keys
    many times over.
    """
    order, occupied, first, count = runs
    n, side, dim, reach = order.size, grid.side, grid.dim, exact_reach(radius)
    run_of_row = np.arange(occupied.size).repeat(count)
    rings = grid.rings(radius)
    scale = 2.0**LEAD_BITS / side
    cut = dim > 1 and grid.n > 2 * rings + 1 and n
    if cut:
        keys, by_lead = _axis_keys(pos[:, 0].take(order), run_of_row, scale, side)
        order = order.take(by_lead)
        del by_lead

    def candidates(in_order):
        """(i, j) of the candidate pairs of consecutive whole offsets that
        fit in PAIR_BATCH together, or of a part of an offset with more."""
        size = grid.cell_size
        strides = [grid.n**a for a in reversed(range(dim))]
        coords = [occupied // s % grid.n for s in strides]  # of each occupied cell
        if cut:  # each row's distance above its cell's lower edge, along axes 1..
            below = [None] + [
                np.mod(in_order[:, b], side) - (coords[b] * size).take(run_of_row)
                for b in range(1, dim)
            ]
            padded = (radius + 8.0 * dim * dim * math.ulp(side)) ** 2
            lead_axis, lead_keys, to_walk = 0, keys, None
        held, held_pairs = [], 0  # candidates of whole offsets, not yet tested
        for offset in product([o % grid.n for o in grid.offsets(radius)], repeat=dim):
            mirror = tuple(-o % grid.n for o in offset)
            if offset > mirror:
                continue  # its pairs are walked from the other end
            remap = None
            if not any(offset):  # row i pairs with the rows after it in its cell
                start = np.arange(1, n + 1)
                pairs = (first + count).take(run_of_row) - start
            else:
                target = 0
                for c, o in zip(coords, offset):
                    target = target * grid.n + (c + o) % grid.n
                k = occupied.searchsorted(target)
                np.minimum(k, occupied.size - 1, out=k)
                hit = occupied.take(k) == target
                if offset == mirror:
                    hit &= occupied < target
                start = np.where(hit, first.take(k), 0).take(run_of_row)
                if not cut:
                    pairs = np.where(hit, count.take(k), 0).take(run_of_row)
                else:  # the prefix of the target run within reach along a
                    a = next(b for b, o in enumerate(offset) if o)
                    if a != lead_axis:  # offsets come one lead axis after another
                        lead_keys = to_walk = None  # dropped before the next sort
                        lead_keys, to_walk = (
                            _axis_keys(in_order[:, a].copy(), run_of_row, scale, side)
                            if a
                            else (keys, None)
                        )
                        lead_axis = a
                    gap2 = None
                    for b in range(a + 1, dim):
                        o = offset[b]
                        if not o:
                            continue
                        if o <= rings:  # ahead: past the upper edge of its cell
                            gap, between = size - below[b], o - 1
                        else:  # behind, by n - o cells: past the lower edge
                            gap, between = below[b], grid.n - o - 1
                        if between:
                            gap = gap + between * size
                        gap2 = gap * gap if gap2 is None else gap2 + gap * gap
                    rho = math.sqrt(padded)
                    if gap2 is not None:
                        rho = np.subtract(padded, gap2, out=gap2)
                        np.sqrt(np.maximum(rho, 0.0, out=rho), out=rho)
                    ahead = coords[a] + offset[a] < grid.n
                    bound = np.where(ahead, 0.0, -side).take(run_of_row)
                    bound += rho
                    bound += in_order[:, a]  # side, not 0, only widens it
                    bound = _lead_quanta(bound, scale, 1)
                    bound += k.take(run_of_row) << LEAD_BITS
                    end = lead_keys.searchsorted(bound, "right")
                    pairs = np.where(hit.take(run_of_row), end - start, 0)
                    remap = to_walk
                    del bound, end  # freed before the batches
            ends = np.add.accumulate(pairs)
            total = ends.item(-1)
            if not total:
                continue
            fits = total <= PAIR_BATCH
            if held and (not fits or held_pairs + total > PAIR_BATCH):
                yield [np.concatenate(c) for c in zip(*held)]
                held, held_pairs = [], 0
            lo = 0
            while lo < n:  # row i pairs with rows start[i] .. start[i] + pairs[i] - 1
                done = ends.item(lo - 1) if lo else 0
                hi = n if fits else max(
                    lo + 1, int(ends.searchsorted(done + PAIR_BATCH, "right"))
                )
                batch = pairs[lo:hi]
                i = np.arange(lo, hi).repeat(batch)
                first_pair = ends[lo:hi] - batch - done  # of each row, in this batch
                j = np.arange(i.size) + (start[lo:hi] - first_pair).repeat(batch)
                if remap is not None:  # from the lead axis's order to the walk's
                    j = remap.take(j)
                if fits:
                    held.append((i, j))
                    held_pairs += total
                else:
                    yield i, j
                lo = hi
            del ends, i, j  # freed before the next offset's arrays
        if held:
            yield [np.concatenate(c) for c in zip(*held)]

    def batches():
        if not n:
            return
        in_order = pos.take(order, axis=0)
        for i, j in candidates(in_order):  # the exact test, for every candidate
            d = in_order.take(i, axis=0)
            d -= in_order.take(j, axis=0)
            square = _min_image_squares(d, side)
            keep = (square <= reach).nonzero()[0]  # faster than three masks
            yield i.take(keep), j.take(keep), square.take(keep)
            # each array stays until the next batch makes its own: freed
            # first, the arrays of the next batch page-fault more

    return order, batches()


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [lo, hi) inside the fundamental domain."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise GeometryError("lo and hi must have the same length")
        if not all(0.0 <= a < b < math.inf for a, b in zip(lo, hi)):
            raise GeometryError(f"require finite 0 <= lo < hi, got lo={lo}, hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))

    def count(self, pts: np.ndarray) -> int:
        if pts.size == 0:
            return 0
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        inside = np.all((pts >= lo) & (pts < hi), axis=1)
        return int(inside.sum())


def load_scale(kernel: RadialKernel) -> float:
    """Quanta of load per unit of ``kernel``: S = 2^(LOAD_BITS - e) for a sup
    of f 2^e, f in [0.5, 1), so that S times any value is below 2^LOAD_BITS.
    S is a power of two, so ``kernel.scaled(S)`` keeps the cutoff, and its
    profile is S times the kernel's bit for bit."""
    return math.ldexp(1.0, LOAD_BITS - math.frexp(kernel.sup_norm())[1])


def first_drift(running: np.ndarray, fresh: np.ndarray) -> int | None:
    """Index of the first running value that differs from its
    recomputation, else None."""
    drifted = (running != fresh).nonzero()[0]
    return drifted.item(0) if drifted.size else None


def _grown(col: np.ndarray, length: int) -> np.ndarray:
    """``col`` copied into the first rows of a zeroed column of ``length`` rows."""
    out = np.zeros((length,) + col.shape[1:], dtype=col.dtype)
    out[: col.shape[0]] = col
    return out


class TorusConfiguration:
    """The simulator's one point store, on a torus.

    Living points fill rows 0..n-1 of dense columns: position, id and load.
    Positions are kept wrapped into [0, side).  A load is an int64 count of
    quanta of a- (see ``load_scale``).  The store is built with its
    starting points, ids 0..k-1 and loads 0.

    The row is a point's only address.  ``_insert`` appends a row, and
    ``remove`` moves the last row into the freed one, so a row stays valid
    until the next removal.  Ids are never reused, and nothing maps an id
    back to its row.

    The load total, a Python int, is kept in step by every call that
    changes a load.  ``bound``, an int, is never below any load:
    ``set_loads`` sets it to the largest load, a birth raises it to its
    largest new load, and a death, which only lowers loads, leaves it.  It
    carries across the switch from the pair-term matrix to the cell index.
    ``sample_row`` draws against it and recomputes it now and then, so it
    falls after a crash.  ``upkeep`` keeps the loads as points are born and
    die: ``Unloaded``, ``PairTerms`` or ``CellIndex``, which ``build_loads``
    picks.
    """

    def __init__(self, torus: Torus, positions=()):
        self.torus = torus
        x = np.asarray(positions, dtype=float)
        if x.shape == (0,):  # no points
            x = x.reshape(0, torus.dim)
        if x.ndim != 2 or x.shape[1] != torus.dim:
            raise GeometryError(
                f"positions have shape {x.shape}, expected (k, {torus.dim})"
            )
        if not np.isfinite(x).all():
            raise GeometryError("positions must be finite")
        x, k = torus.wrap(x), x.shape[0]
        capacity = max(16, 1 << (k - 1).bit_length())  # 16 doubled, as _double does
        self._pos = np.zeros((capacity, torus.dim))
        self._id = np.zeros(capacity, dtype=np.int64)
        self._load = np.zeros(capacity, dtype=np.int64)
        self._total = 0  # the load column's running sum
        self.bound = 0  # never below any load
        self._due = k  # draws before the bound's next recompute
        self._pos[:k] = x
        self._id[:k] = np.arange(k)
        self._n = self._next_id = k
        self.upkeep: Unloaded = Unloaded()

    def __len__(self) -> int:
        return self._n

    @property
    def loads(self) -> np.ndarray:
        """View of the competition-load column, one entry per row.

        Change it through ``_add_point``, ``_remove_point`` or ``set_loads``.
        A direct write bypasses the load total and the load bound, which
        ``stale_sum`` then reports.
        """
        return self._load[: self._n]

    def set_loads(self, values: np.ndarray) -> None:
        """Replace the whole load column, in quanta.  The load total and the
        load bound are recomputed."""
        self._load[: self._n] = values
        self._total = int(np.add.reduce(self.loads))
        self._rebound()

    def _rebound(self) -> None:
        """The bound set to the largest load, and the draws to its next
        recompute to the population."""
        loads = self.loads
        self.bound = loads.item(loads.argmax()) if self._n else 0
        self._due = self._n

    def build_loads(self, kernel: RadialKernel | None) -> None:
        """Every load from scratch for ``kernel``, a- in quanta, or 0 with no
        kernel, kept from here on by the regime ``load_regime`` picks."""
        self.upkeep = Unloaded()  # the old regime's arrays go before the new one's
        self.upkeep, loads = load_regime(self, kernel)
        self.set_loads(loads)

    def load_total(self) -> int:
        """The running sum of the load column: kept in step by every call
        that changes a load, never reduced here."""
        return self._total

    def sample_row(self, draws, rng: np.random.Generator) -> int:
        """A row with probability exactly its load over the load total, above
        0, by stochastic acceptance (Lipowski and Lipowska, Physica A 391,
        2012): a uniform row of ``draws.row(n, rng)``, kept if a uniform
        target below the bound falls below its load, else a fresh row and
        target.  Each trial is uniform on n x bound, and the bound never
        depends on the trial, so a kept row has probability exactly its load
        over the total L.  A draw takes n bound / L trials on average:
        sub-Poissonian states keep every load near the mean, so that stays
        a few.  The bound is recomputed first once the draws since the last
        recompute reach the population then: O(1) per event on average,
        and the bound falls after a crash."""
        if not self._due:
            self._rebound()
        self._due -= 1
        n, bound, load = self._n, self.bound, self._load
        while True:
            row = draws.row(n, rng)
            if draws.row(bound, rng) < load.item(row):
                return row

    def stale_sum(self) -> str | None:
        """The load total if it differs from the reduce of the loads, then a
        load above the load bound, as a message; else None."""
        loads = self.loads
        fresh = int(np.add.reduce(loads))
        if self._total != fresh:
            return f"load total drifted: running {self._total}, recomputed {fresh}"
        if self._n and loads.item(row := loads.argmax()) > self.bound:
            load, pid = loads.item(row), self.point_at(row)
            return f"load of point {pid} is {load} quanta, above the load bound {self.bound}"

    def point_at(self, row: int) -> int:
        """Id of the point in ``row``."""
        return int(self._id[row])

    def by_id(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids in ascending order and their points' positions, shape (n,
        dim), from one argsort of the id column."""
        ids = self._id[: self._n]
        order = ids.argsort()
        return ids.take(order), self._pos.take(order, axis=0)

    def _double(self) -> None:
        """Double the columns' capacity."""
        capacity = 2 * self._id.size
        self._pos, self._id, self._load = (
            _grown(col, capacity) for col in (self._pos, self._id, self._load)
        )

    def _in_box(self, position) -> tuple[np.ndarray, int]:
        """``position`` as a (dim,) float array in [0, side), and its flat
        cell on the grid of ``upkeep``, as ``CellGrid.flat_cells_of`` gives
        it; a regime with no grid files every point in cell 0.

        The loop that tests each coordinate for lying strictly inside
        (0, side) also files it; only when one does not does ``Torus.wrap``
        run, and the wrapped point is filed afresh.  A NaN fails that test
        wherever it sits, and -0.0 is wrapped to +0.0.  A coordinate that is
        not finite raises GeometryError.
        """
        x = np.asarray(position, dtype=float)
        if x.shape != (self.torus.dim,):
            raise GeometryError(
                f"position has shape {x.shape}, expected ({self.torus.dim},)"
            )
        coords = x.tolist()
        side, n, size = self.torus.side, self.upkeep._axis_cells, self.upkeep._cell_size
        flat = 0
        for v in coords:
            if not 0.0 < v < side:
                break
            i = int(v / size)  # v / size < n + 1, and is n only by rounding
            flat = flat * n + (i if i < n else n - 1)
        else:
            return x, flat
        if not all(map(math.isfinite, coords)):
            raise GeometryError(f"position {coords} is not finite")
        x = self.torus.wrap(x)
        flat = 0
        for v in x.tolist():
            i = int(v / size)
            flat = flat * n + (i if i < n else n - 1)
        return x, flat

    def _insert(self, x: np.ndarray, cell: int, load: int) -> int:
        """Add the point that ``_in_box`` took into the box as ``x`` and filed
        in ``cell`` as the last row, with ``load``; return its new id."""
        row, pid = self._n, self._next_id
        if row == self._id.size:
            self._double()
        self._pos[row] = x
        self._id[row] = pid
        self._load[row] = load
        self.upkeep.added(self, row, x, cell)
        self._n += 1
        self._next_id += 1
        self._total += load
        return pid

    def remove(self, row: int) -> np.ndarray:
        """Delete the point in ``row`` and return its position.  The last row
        moves into ``row``, and the removed load leaves the load total."""
        last = self._n - 1
        if not 0 <= row <= last:
            raise GeometryError(f"no row {row} among {self._n} points")
        x = self._pos[row].copy()
        self._total -= self._load.item(row)
        self.upkeep.removed(self, row, last)
        if row != last:
            for col in (self._pos, self._id, self._load):
                col[row] = col[last]
        self._n = last
        return x

    def _add_point(self, position) -> tuple:
        """A birth at ``position``: the point is stored, and ``upkeep`` adds
        its terms to its neighbours' loads and theirs to its own; return (id,
        wrapped position)."""
        return self.upkeep.birth(self, position)

    def _remove_point(self, row: int) -> tuple:
        """A death of the point in ``row``, 0..n-1: the point is removed, and
        ``upkeep`` takes its terms out of its neighbours' loads; return (id,
        position, fault or None).

        A load that would fall below 0, which only a corrupt cache allows,
        is a fault naming the lowest one's point.  The point is still
        removed, and no other load changes.
        """
        if not 0 <= row < self._n:
            raise GeometryError(f"no row {row} among {self._n} points")
        return self.upkeep.death(self, row)

    def _checked_cutoff(self, kernel: RadialKernel) -> float:
        """The cutoff of ``kernel``, after checking that it has the torus's
        dimension and a cutoff of at most half the side."""
        if kernel.dim != self.torus.dim:
            raise GeometryError(
                f"kernel dimension {kernel.dim} != torus dimension {self.torus.dim}"
            )
        cutoff = kernel.cutoff_radius()
        if cutoff > self.torus.side / 2.0:
            raise GeometryError(
                f"kernel too wide for torus: cutoff {cutoff:g} > side/2 "
                f"{self.torus.side / 2.0:g}"
            )
        return cutoff

    def kernel_sums(self, kernel: RadialKernel) -> np.ndarray:
        """Each point's sum of ``kernel`` over the other points within its
        cutoff, one int64 per row, from one pair walk (see ``_pair_sums``)
        of the grid ``CellGrid.for_radius`` picks for the cutoff.  It files
        nothing."""
        cutoff, pos = self._checked_cutoff(kernel), self._pos[: self._n]
        grid = CellGrid.for_radius(self.torus, cutoff)
        return _pair_sums(grid, pos, cell_runs(grid.flat_cells_of(pos)), kernel, cutoff)


def _pair_sums(grid: CellGrid, pos: np.ndarray, runs: tuple, kernel, cutoff: float):
    """Each row's sum of ``kernel`` over the other rows of ``pos`` within
    ``cutoff``, one int64 per row, from one ``periodic_pairs`` walk of
    ``grid``, whose cell runs are ``runs``.  ``RadialKernel._profile_sq`` of
    each pair's square, truncated to a whole number as the event path
    truncates it, is added to both its rows, by a bincount over the batch's
    span of rows at each end, in the walk's own order.  ``kernel`` is a- in
    quanta, each term below 2^LOAD_BITS, so the float64 sums of whole
    numbers are exact while no row has 2^22 neighbours."""
    order, batches = periodic_pairs(grid, pos, runs, cutoff)
    sums = np.zeros(len(pos))  # in the walk's order
    for i, j, square in batches:
        if not square.size:
            continue
        weights = kernel._profile_sq(square)
        np.trunc(weights, out=weights)
        for rows in (i, j):
            lo = np.minimum.reduce(rows)
            part = np.bincount(rows - lo, weights=weights)
            sums[lo : lo + part.size] += part
        del i, j, square, weights, rows, part  # freed before the next batch
    out = np.empty(len(pos), dtype=np.int64)
    out[order] = sums
    return out


def load_regime(cfg: TorusConfiguration, kernel: RadialKernel | None) -> tuple:
    """The regime that keeps the loads of ``cfg`` for ``kernel``, and every
    load from scratch.

    With no kernel, ``Unloaded`` and loads of 0.  At up to BLOCK_ROWS rows,
    ``PairTerms`` and the row sums of its matrix.  Past that, ``CellIndex``
    and the sums of one pair walk of its grid, filed for the cutoff on the
    grid ``CellGrid.for_radius`` picks.
    """
    n = cfg._n
    if kernel is None:
        return Unloaded(), np.zeros(n, np.int64)
    if n <= BLOCK_ROWS:
        terms = PairTerms(cfg, kernel)
        return terms, np.add.reduce(terms._terms[:n, :n], axis=1)
    cutoff, index = cfg._checked_cutoff(kernel), CellIndex(cfg, kernel)
    runs = index._file(cfg, CellGrid.for_radius(cfg.torus, cutoff), cutoff)
    return index, _pair_sums(index.grid, cfg._pos[:n], runs, kernel, cutoff)


class Unloaded:
    """The load regime of a run without a-: every load stays 0.

    It keeps no grid, so ``_in_box`` files every point in cell 0.  It is
    also the base of the other two regimes: each of its hooks is their
    default.  Every hook is handed the store it keeps.
    """

    grid: CellGrid | None = None  # the grid the index is filed on
    _axis_cells, _cell_size = 1, math.inf  # for _in_box: every point in cell 0

    def birth(self, cfg: TorusConfiguration, position) -> tuple:
        """Store a point at ``position`` with load 0."""
        x, cell = cfg._in_box(position)
        return cfg._insert(x, cell, 0), x

    def death(self, cfg: TorusConfiguration, row: int) -> tuple:
        """Remove the point in ``row``."""
        return cfg._id.item(row), cfg.remove(row), None

    def added(self, cfg: TorusConfiguration, row: int, x, cell: int) -> None:
        """Keep up with the new last ``row``, at ``x`` in ``cell``."""

    def removed(self, cfg: TorusConfiguration, row: int, last: int) -> None:
        """Keep up with the removal of ``row``, into which ``last`` moves."""

    def fault(self, cfg: TorusConfiguration) -> str | None:
        """First fault of what the regime keeps beside the loads, else None."""


class PairTerms(Unloaded):
    """The load regime of a store of at most BLOCK_ROWS rows.

    ``_terms`` is the int32 matrix of each pair's term in whole quanta, 0 on
    the diagonal and past ``exact_reach`` of the cutoff.  Its row sums are
    the loads.  Squares are summed axis by axis, as the pair walk sums
    them.  A birth writes row and column n from one pass over the rows.  A
    death subtracts the dying row from the loads in place.  The birth into
    BLOCK_ROWS rows switches the store to a ``CellIndex`` for good, so a
    population near BLOCK_ROWS does not switch to and fro.
    """

    def __init__(self, cfg: TorusConfiguration, kernel: RadialKernel):
        self.kernel = kernel  # a- in quanta
        self._radius = cfg._checked_cutoff(kernel)
        self._reach = exact_reach(self._radius)
        n, size = cfg._n, min(cfg._id.size, BLOCK_ROWS)  # grown with the store
        self._terms = np.zeros((size, size), dtype=np.int32)
        self._terms[:n, :n] = self._pair_terms(cfg)

    def _pair_terms(self, cfg: TorusConfiguration) -> np.ndarray:
        """The (n, n) int32 matrix of each pair's term, truncated to whole
        quanta, built from scratch."""
        n, side = cfg._n, cfg.torus.side
        square = np.zeros((n, n))
        for axis in range(cfg.torus.dim):
            coord = cfg._pos[:n, axis]
            d = coord[:, None] - coord
            np.abs(d, out=d)
            np.minimum(d, side - d, out=d)
            d *= d
            square += d
        terms = self.kernel._profile_sq(square)
        terms *= square <= self._reach
        terms = terms.astype(np.int32)
        terms.reshape(-1)[:: n + 1] = 0
        return terms

    def birth(self, cfg: TorusConfiguration, position) -> tuple:
        """Store a point at ``position``.  Its terms, the profile of the
        squares of one pass over the rows, masked and truncated to int64,
        go to its neighbours' loads and to row and column n; their running
        sum's last element is its load.  One ``argmax`` of the loads raises
        the bound.  The bound carries over to the cell index."""
        n = cfg._n
        if n == BLOCK_ROWS:  # past one block, for good
            cfg.upkeep = index = CellIndex(cfg, self.kernel)
            index._file(cfg, CellGrid.for_radius(cfg.torus, self._radius), self._radius)
            return index.birth(cfg, position)
        x, cell = cfg._in_box(position)
        squares = _min_image_squares(cfg._pos[:n] - x, cfg.torus.side)
        contrib = self.kernel._profile_sq(squares)
        contrib *= squares <= self._reach
        contrib = contrib.astype(np.int64)
        load = 0
        if n:
            load, loads = np.add.accumulate(contrib).item(-1), cfg._load[:n]
            loads += contrib
            cfg._total += load
            cfg.bound = max(cfg.bound, load, loads.item(loads.argmax()))
        if n == self._terms.shape[0]:  # doubled as the store doubles
            self._terms = _grown(_grown(self._terms.T, 2 * n).T, 2 * n)
        pid = cfg._insert(x, cell, load)
        self._terms[n, :n] = self._terms[:n, n] = contrib
        return pid, x

    def death(self, cfg: TorusConfiguration, row: int) -> tuple:
        """Remove the point in ``row``.  Its row of terms leaves the load
        column in place, and its own load leaves the total a second time."""
        n, pid = cfg._n, cfg._id.item(row)
        loads, terms = cfg._load[:n], self._terms[row, :n]
        loads -= terms  # terms[row, row] is 0: the dying load stays
        i = loads.argmin()
        if loads.item(i) < 0:
            fault = LOAD_FAULT.format(cfg.point_at(i), loads.item(i), pid)
            loads += terms
            return pid, cfg.remove(row), fault
        cfg._total -= loads.item(row)  # what the neighbours lose
        return pid, cfg.remove(row), None

    def removed(self, cfg: TorusConfiguration, row: int, last: int) -> None:
        if row != last:  # row first: then terms[row, row] is 0
            terms = self._terms
            terms[row, : last + 1] = terms[last, : last + 1]
            terms[:last, row] = terms[:last, last]

    def fault(self, cfg: TorusConfiguration) -> str | None:
        """An entry that differs from a fresh build, then a row sum that
        differs from its load."""
        n = cfg._n
        kept, fresh = self._terms[:n, :n], self._pair_terms(cfg)
        wrong, prefix = (kept != fresh).nonzero(), "pair-term matrix differs: "
        if wrong[0].size:
            i, j = wrong[0].item(0), wrong[1].item(0)
            return prefix + (
                f"term of points {cfg.point_at(i)} and {cfg.point_at(j)}: "
                f"kept {kept.item(i, j)}, recomputed {fresh.item(i, j)} quanta"
            )
        sums = np.add.reduce(kept, axis=1)
        row = first_drift(sums, cfg.loads)
        if row is not None:
            return prefix + (
                f"row sum of point {cfg.point_at(row)} is {sums.item(row)} quanta, "
                f"its load {cfg._load.item(row)}"
            )


class CellIndex(Unloaded):
    """The load regime past BLOCK_ROWS rows: a bucketed cell index.

    The index is filed once, for one radius, and no query changes it.  A
    birth and a death each query it once, from the point's cell.
    ``_cell`` and ``_slot`` hold each row's flat cell and its slot in its
    bucket.  ``_rows``, (buckets, cap), lists each bucket's rows, and
    ``_fill`` counts them.  ``_bpos``, (dim, buckets, cap), holds their
    positions, +inf in each free slot.  The padding follows the fullest
    bucket (see CELL_SLACK).  A grid of more cells than the slot budget
    allows (SLOTS_PER_POINT) shares buckets: cell c goes in bucket c %
    buckets.
    """

    def __init__(self, cfg: TorusConfiguration, kernel: RadialKernel | None):
        self.kernel = kernel  # a- in quanta
        self._cell, self._slot = np.zeros((2, cfg._id.size), dtype=np.intp)

    def _file(self, cfg: TorusConfiguration, grid: CellGrid, radius: float) -> tuple:
        """File every row on ``grid`` for ``radius``, within [0, side / 2],
        the index's grid and one query radius from then on, each run of
        ``cell_runs`` in its bucket's first slots; return the runs."""
        n, dim = cfg._n, grid.dim
        cells = grid.flat_cells_of(cfg._pos[:n])
        runs = order, occupied, first, count = cell_runs(cells)
        cap = int(np.maximum.reduce(count)) + CELL_SLACK if n else 0
        buckets, budget = grid.n**dim, SLOTS_PER_POINT * max(n, INDEX_POINTS)
        while buckets > 1 and 2 * buckets * max(cap, CELL_SLACK) > budget:
            buckets = max(1, budget // (2 * max(cap, CELL_SLACK)))  # fewer, shared
            order, occupied, first, count = cell_runs(cells % buckets)
            cap = int(np.maximum.reduce(count)) + CELL_SLACK if n else 0
        slot = np.arange(n) - first.repeat(count)  # in the runs' order
        self.grid, self._wrapped = grid, {}  # cell -> its sorted stencil
        self.radius, self._reach = radius, exact_reach(radius)
        self._axis_cells, self._cell_size = grid.n, grid.cell_size
        self._buckets, self._rings = buckets, grid.rings(radius)
        self._plain = grid.plain_range(radius)
        self._fold = None  # on shared buckets, an inner stencil's less its cell's
        if buckets < grid.n**dim and self._plain:
            inner = self._rings * sum(grid.n**axis for axis in range(dim))
            flats = grid.cell_stencil(inner, radius)  # without a wrap
            self._fold = np.array(sorted({(f - inner) % buckets for f in flats}))
        self._later_axes = tuple(range(1, dim))
        self._strides = tuple(grid.n**axis for axis in reversed(self._later_axes))
        self._set_buckets(buckets, cap)
        owner = occupied.repeat(count)  # each row's bucket, in the runs' order
        self._rows[owner, slot] = order
        self._bpos[:, owner, slot] = cfg._pos.take(order, axis=0).T
        self._fill = np.zeros(buckets, dtype=np.intp)
        self._fill.put(occupied, count)
        self._cell[:n] = cells
        self._slot[order] = slot
        return runs

    def _set_buckets(self, buckets: int, cap: int, grow: bool = False) -> None:
        """Buckets of ``cap`` free slots, the old ones' kept if they ``grow``."""
        rows = np.zeros((buckets, cap), dtype=np.intp)
        bpos = np.empty((self.grid.dim, buckets, cap))
        bpos.fill(math.inf)
        if grow:
            rows[:, : self._cap] = self._rows
            bpos[:, :, : self._cap] = self._bpos
        self._rows, self._bpos, self._axis_pos = rows, bpos, tuple(bpos)
        n = self._axis_cells
        self._cap, self._span = cap, (2 * self._rings + 1) * cap  # a slice's slots
        self._grid_rows = self._grid_pos = self._grid_bpos = None  # buckets shared
        if buckets == n ** len(bpos):  # the last axis's cells run on
            shape = (n,) * (len(bpos) - 1) + (n * cap,)
            self._grid_rows = rows.reshape(shape)
            self._grid_pos = bpos[0].reshape(shape)  # d = 1
            self._grid_bpos = bpos.reshape((len(bpos),) + shape)  # d >= 2
            self._x_shape = (len(bpos),) + (1,) * len(shape)

    def added(self, cfg: TorusConfiguration, row: int, x, cell: int) -> None:
        """File the new row in its bucket's next slot.  A full bucket grows
        every bucket, or, past the slot budget, the whole index is filed
        afresh on fewer buckets."""
        if row == self._cell.size:  # the store has doubled, to 2 row rows
            self._cell, self._slot = _grown(self._cell, 2 * row), _grown(self._slot, 2 * row)
        self._cell[row] = cell
        bucket = cell % self._buckets
        k = self._fill.item(bucket)
        if k == self._cap:  # a full bucket: every bucket grows
            cap = k + max(2 * CELL_SLACK, k >> 4)
            budget = SLOTS_PER_POINT * max(row, INDEX_POINTS)
            if self._buckets == 1 or self._buckets * cap <= budget:
                self._set_buckets(self._buckets, cap, grow=True)
            else:  # past the budget: filed afresh, on fewer buckets
                self._file(cfg, self.grid, self.radius)
                bucket = cell % self._buckets
                k = self._fill.item(bucket)
        self._rows[bucket, k] = row
        self._bpos[:, bucket, k] = x
        self._fill[bucket] = k + 1
        self._slot[row] = k

    def removed(self, cfg: TorusConfiguration, row: int, last: int) -> None:
        """Free the slot of ``row``, and renumber the moved last row in its
        slot."""
        buckets, rows = self._buckets, self._rows
        bucket, slot = self._cell.item(row) % buckets, self._slot.item(row)
        k = self._fill.item(bucket) - 1
        tail = rows.item(bucket, k)  # row itself if it holds the last slot
        rows[bucket, slot] = tail
        self._slot[tail] = slot
        for p in self._axis_pos:
            p[bucket, slot] = p.item(bucket, k)
            p[bucket, k] = math.inf
        self._fill[bucket] = k
        if row != last:
            rows[self._cell.item(last) % buckets, self._slot.item(last)] = row
            self._cell[row], self._slot[row] = self._cell[last], self._slot[last]

    def birth(self, cfg: TorusConfiguration, position) -> tuple:
        """Store a point at ``position``, wrapped and filed once, in
        ``_in_box``.  Its neighbours come from one query before it is
        stored; each term is the profile truncated to int64.  The last
        element of their running sum is both its load and what the
        neighbours gain.  Their loads come in with one ``take`` and go back
        with one ``put``, and one ``argmax`` of them raises the store's
        bound."""
        x, cell = cfg._in_box(position)
        rows, squares = self._neighbors(x, cell)
        if not rows.size:
            return cfg._insert(x, cell, 0), x
        contrib = self.kernel._profile_sq(squares).astype(np.int64)
        load = np.add.accumulate(contrib).item(-1)
        gained = cfg._load.take(rows)
        gained += contrib
        cfg._load.put(rows, gained)
        cfg._total += load
        cfg.bound = max(cfg.bound, load, gained.item(gained.argmax()))
        return cfg._insert(x, cell, load), x

    def death(self, cfg: TorusConfiguration, row: int) -> tuple:
        """Remove the point in ``row``, then query from its cell.  The old
        loads come in with one ``take``, and what is left goes back with one
        ``put``; the load total loses the last element of the terms' running
        sum.  The bound stays."""
        pid, cell = cfg._id.item(row), self._cell.item(row)
        x = cfg.remove(row)
        rows, squares = self._neighbors(x, cell)
        if not rows.size:
            return pid, x, None
        contrib = self.kernel._profile_sq(squares).astype(np.int64)
        left = cfg._load.take(rows)
        left -= contrib
        i = left.argmin()
        if left.item(i) < 0:
            lowest = cfg.point_at(rows.item(i))
            return pid, x, LOAD_FAULT.format(lowest, left.item(i), pid)
        cfg._load.put(rows, left)
        cfg._total -= np.add.accumulate(contrib).item(-1)
        return pid, x, None

    def _neighbors(self, x: np.ndarray, cell: int):
        """Rows, in the index's order, and squared lengths, the pair walk's
        floats, of the points within the radius of one that ``_in_box`` took
        into the box as ``x`` and filed in ``cell``, while it is not in the
        store: those whose square is at most ``exact_reach`` of the radius,
        as distance <= radius is, which +inf never is.

        A query from a cell in ``CellGrid.plain_range`` along every axis, on
        unshared buckets, reads one slice per axis and squares plain
        differences.  Any other gathers its stencil's buckets and takes the
        minimum image; a stencil that wraps is kept.  Rows come in ascending
        bucket, then slot.

        A plain query in d = 1 subtracts the scalar ``x.item(0)`` from one
        slice of ``_grid_pos``, not the (1, 1) broadcast of d >= 2: at n ~
        10^5 (the benchmark's d=1 store, 1,000 random inner points, both
        forms interleaved in one process for 21 rounds, on a 2-core Intel
        Xeon) it takes 3.5-3.8 us a query against 4.5-4.7 us, in two
        runs."""
        rings, plain = self._rings, self._plain
        last = cell % self._axis_cells  # the coordinate along the last axis
        inner, key = last in plain, ()
        if inner:
            for stride in self._strides:  # the axes before the last, first first
                k = cell // stride % self._axis_cells
                if k not in plain:
                    inner = False
                    break
                key += (slice(k - rings, k + rings + 1),)
        if inner and self._fold is None:  # one slice per axis, plain differences
            start = (last - rings) * self._cap
            key += (slice(start, start + self._span),)
            if self._later_axes:  # d >= 2: every axis in one subtraction
                d = self._grid_bpos[(slice(None),) + key] - x.reshape(self._x_shape)
                d *= d
                square = d[0]
                for axis in self._later_axes:
                    square += d[axis]
                square = square.reshape(-1)
            else:  # d = 1: one axis, a scalar subtraction
                square = self._grid_pos[key] - x.item(0)
                square *= square
            rows = self._grid_rows[key]
        else:  # gather the stencil's buckets
            if inner:  # on shared buckets, worked out afresh
                stencil = self._fold + cell % self._buckets
                stencil %= self._buckets
                stencil.sort()
            else:  # the stencil wraps
                stencil = self._wrapped.get(cell)
                if stencil is None:  # each bucket once, ascending
                    cells = self.grid.cell_stencil(cell, self.radius)
                    stencil = sorted({c % self._buckets for c in cells})
                    stencil = self._wrapped[cell] = np.array(stencil, dtype=np.intp)
            d = self._bpos.take(stencil, axis=1).reshape(x.size, -1).T  # (slots, dim)
            d -= x
            square = _min_image_squares(d, self.grid.side)
            rows = self._rows.take(stencil, axis=0)
        keep = (square <= self._reach).nonzero()[0]
        return rows.take(keep), square.take(keep)

    def fault(self, cfg: TorusConfiguration) -> str | None:
        """A row misfiled against the positions, else a position in a free
        slot.  The index holds when the cell column equals ``flat_cells_of``
        the positions, the filled slots list each row once, at its slot of
        its cell's bucket, with its position, and free slots hold +inf.  A
        fault of the rows names the lowest row it touches by point."""
        n, cells, slots = cfg._n, self._cell[: cfg._n], self._slot[: cfg._n]
        pos, prefix = cfg._pos[:n], "cell index differs from the positions: "
        bad = cells != self.grid.flat_cells_of(pos)
        filled = np.arange(self._rows.shape[1]) < self._fill[:, None]
        owner, slot_of = filled.nonzero()
        listed = self._rows[filled]
        if listed.size and not 0 <= listed.min() <= listed.max() < n:
            return f"{prefix}the cell arrays list a row outside 0..{n - 1}"
        bad |= np.bincount(listed, minlength=n) != 1
        wrong = (cells[listed] % self._buckets != owner) | (slots[listed] != slot_of)
        bad[listed[wrong]] = True
        at = (~bad).nonzero()[0]  # rows filed at their slots: is the position there?
        kept = self._bpos[:, cells[at] % self._buckets, slots[at]]
        bad[at[(kept != pos[at].T).any(axis=0)]] = True
        if bad.any():
            row = int(bad.argmax())
            return f"{prefix}point {cfg.point_at(row)} (row {row}) is misfiled"
        stale = ((self._bpos != math.inf).any(axis=0) & ~filled).nonzero()[0]
        if stale.size:
            return f"{prefix}cell {stale[0]} has a position in a free slot"


def sample_poisson(
    torus: Torus, intensity: float, rng: np.random.Generator
) -> TorusConfiguration:
    """Homogeneous Poisson configuration: N ~ Poisson(intensity * volume),
    positions independent and uniform."""
    if intensity < 0.0:
        raise GeometryError(f"intensity must be >= 0, got {intensity}")
    n = rng.poisson(intensity * torus.volume)
    return TorusConfiguration(torus, rng.uniform(0.0, torus.side, (n, torus.dim)))
