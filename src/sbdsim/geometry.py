"""Periodic boxes, point configurations, and the cell-list spatial index."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .kernels import RadialKernel

# The load column is summed per block of 2**BLOCK_SHIFT consecutive rows:
# the death draw finds its block among n / BLOCK_ROWS running block sums and
# then its row inside that one block.
BLOCK_SHIFT = 8
BLOCK_ROWS = 1 << BLOCK_SHIFT
# Row pairs per batch of the vectorised kernel sums; bounds their scratch memory.
PAIR_BATCH = 1 << 14


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Torus:
    """Periodic box [0, side)^dim with a cell grid of n_cells per axis."""

    side: float
    dim: int
    n_cells: int = 8

    def __post_init__(self):
        if not (self.side > 0.0 and math.isfinite(self.side)):
            raise GeometryError(f"side must be positive, got {self.side}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise GeometryError(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 1:
            raise GeometryError("n_cells must be a positive integer")

    @property
    def cell_size(self) -> float:
        return self.side / self.n_cells

    @property
    def volume(self) -> float:
        return self.side**self.dim

    @classmethod
    def for_cutoff(cls, side: float, dim: int, cutoff: float) -> "Torus":
        """Pick the cell grid for a kernel cutoff: cells of the cutoff size,
        but never fewer than 8 per axis worth of resolution."""
        if cutoff <= 0.0:
            return cls(side, dim, 8)
        target = min(cutoff, side / 8.0)
        return cls(side, dim, max(1, int(side / target)))

    def wrap(self, x: np.ndarray) -> np.ndarray:
        return np.mod(x, self.side)

    def cell_of(self, x: np.ndarray) -> tuple[int, ...]:
        idx = np.floor(self.wrap(x) / self.cell_size).astype(int)
        return tuple(np.minimum(idx, self.n_cells - 1))

    def flat_cell(self, cell: tuple[int, ...]) -> int:
        flat = 0
        for c in cell:
            flat = flat * self.n_cells + c
        return flat


def periodic_delta(torus: Torus, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-image displacement y - x, componentwise in (-side/2, side/2]."""
    d = np.mod(np.asarray(y, float) - np.asarray(x, float), torus.side)
    return np.where(d > torus.side / 2.0, d - torus.side, d)


def periodic_distance(torus: Torus, x, y) -> float:
    return float(np.linalg.norm(periodic_delta(torus, x, y)))


def periodic_distances(torus: Torus, x, pts: np.ndarray) -> np.ndarray:
    """Minimum-image distances from ``x`` (one point, or one per row) to each
    row of ``pts``."""
    if pts.size == 0:
        return np.zeros(0)
    d = np.mod(pts - np.asarray(x, float), torus.side)
    d = np.where(d > torus.side / 2.0, d - torus.side, d)
    return np.sqrt((d * d).sum(axis=1))


def pairwise_periodic_distances(torus: Torus, pts: np.ndarray) -> np.ndarray:
    """Condensed vector of minimum-image distances between distinct rows."""
    n = pts.shape[0]
    if n < 2:
        return np.zeros(0)
    iu, ju = np.triu_indices(n, 1)
    d = np.mod(pts[iu] - pts[ju], torus.side)
    d = np.where(d > torus.side / 2.0, d - torus.side, d)
    return np.sqrt((d * d).sum(axis=1))


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
        if any(a < 0.0 or a >= b for a, b in zip(lo, hi)):
            raise GeometryError(f"require 0 <= lo < hi, got lo={lo}, hi={hi}")

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


class TorusConfiguration:
    """Finite point configuration on a torus: the simulator's one point store.

    Living points fill rows 0..n-1 of dense columns: position, stable id,
    flat grid cell and competition load.  Ids are never reused.  ``insert``
    appends a row; ``remove`` moves the last row into the freed one, so a row
    index stays valid only until the next removal.  Each grid cell keeps the
    set of its rows, so local sums only visit cells that intersect the
    relevant cutoff ball.

    Next to the load column the store keeps one running sum per block of
    BLOCK_ROWS rows, a two-level sum tree: ``load_total`` and ``sample_row``
    read n / BLOCK_ROWS block sums and one block instead of the whole column.
    ``insert``, ``remove``, ``add_loads`` and ``set_loads`` keep the block
    sums in step with the column; ``stale_block`` checks them against it.
    """

    def __init__(self, torus: Torus):
        self.torus = torus
        self._n = 0
        self._next_id = 0
        self._pos = np.zeros((16, torus.dim))
        self._id = np.zeros(16, dtype=np.int64)
        self._cell = np.zeros(16, dtype=np.int64)
        self._load = np.zeros(16)
        self._block = np.zeros(1)  # load sum of each block of rows
        self._row: dict[int, int] = {}  # id -> row
        self._cells: dict[int, set[int]] = {}  # flat cell -> rows

    def __len__(self) -> int:
        return self._n

    @property
    def loads(self) -> np.ndarray:
        """View of the competition-load column, one entry per row.

        Change it through ``add_loads`` or ``set_loads``: a direct write
        bypasses the block sums, which ``stale_block`` then reports.
        """
        return self._load[: self._n]

    def add_loads(self, rows: np.ndarray, delta: np.ndarray) -> None:
        """Add ``delta`` to the loads of ``rows`` (distinct) and to their block sums."""
        self._load[rows] += delta
        np.add.at(self._block, rows >> BLOCK_SHIFT, delta)

    def set_loads(self, values: np.ndarray) -> None:
        """Replace the whole load column and recompute every block sum."""
        self._load[: self._n] = values
        self._block = self._block_sums_of_column()

    def _block_sums_of_column(self) -> np.ndarray:
        blocks = np.arange(self._n) >> BLOCK_SHIFT
        return np.bincount(blocks, weights=self.loads, minlength=self._block.size)

    def load_total(self) -> float:
        """Sum of the load column, read from the block sums of the live rows."""
        return float(self._block[: (self._n + BLOCK_ROWS - 1) >> BLOCK_SHIFT].sum())

    def sample_row(self, u: float, base: float) -> int:
        """Row drawn with weight base + load, from one uniform ``u`` in [0, 1).

        Returns the first row whose running weight reaches u times the total,
        as ``searchsorted(cumsum(base + loads), u * total)`` does, up to
        rounding of the block sums: the block is found among the block
        weights, the row among that block's rows.  Needs at least one row.
        """
        n = self._n
        if n <= BLOCK_ROWS:
            cum = np.cumsum(base + self._load[:n])
            return int(cum.searchsorted(u * cum[-1]))
        n_blocks = (n + BLOCK_ROWS - 1) >> BLOCK_SHIFT
        weights = self._block[:n_blocks] + base * BLOCK_ROWS
        weights[-1] -= base * ((n_blocks << BLOCK_SHIFT) - n)  # partial last block
        cum = np.cumsum(weights)
        target = u * cum[-1]
        block = min(int(cum.searchsorted(target)), n_blocks - 1)
        if block:
            target -= cum[block - 1]
        lo = block << BLOCK_SHIFT
        local = np.cumsum(base + self._load[lo : min(lo + BLOCK_ROWS, n)])
        # rounding may leave the target past the block's own total
        return lo + int(local.searchsorted(min(target, local[-1])))

    def stale_block(self, rel_tol: float) -> tuple[int, float, float] | None:
        """First block whose running sum drifted from its rows' loads by more
        than rel_tol * (1 + |sum|), as (block, running, recomputed); else None."""
        fresh = self._block_sums_of_column()
        drift = np.abs(self._block - fresh) > rel_tol * (1.0 + np.abs(fresh))
        stale = np.flatnonzero(drift)
        if not stale.size:
            return None
        block = int(stale[0])
        return block, float(self._block[block]), float(fresh[block])

    def ids(self) -> list[int]:
        return sorted(self._id[: self._n].tolist())

    def point_at(self, row: int) -> int:
        """Id of the point in ``row``."""
        return int(self._id[row])

    def _row_of(self, point_id: int) -> int:
        try:
            return self._row[point_id]
        except KeyError:
            raise GeometryError(f"no point with id {point_id}") from None

    def position(self, point_id: int) -> np.ndarray:
        return self._pos[self._row_of(point_id)].copy()

    def positions_array(self) -> np.ndarray:
        """Positions in ascending id order, shape (n, dim)."""
        return self._pos[np.argsort(self._id[: self._n])]

    def insert(self, position, load: float = 0.0) -> int:
        """Add a point as the last row with the given load; return its new id."""
        x = self.torus.wrap(np.asarray(position, dtype=float))
        if x.shape != (self.torus.dim,):
            raise GeometryError(
                f"position has shape {x.shape}, expected ({self.torus.dim},)"
            )
        if self._n == self._id.size:
            self._pos, self._id, self._cell, self._load = (
                np.concatenate([col, np.zeros_like(col)])
                for col in (self._pos, self._id, self._cell, self._load)
            )
            blocks = -(-self._id.size // BLOCK_ROWS)
            self._block = np.concatenate(
                [self._block, np.zeros(blocks - self._block.size)]
            )
        row, pid = self._n, self._next_id
        cell = self.torus.flat_cell(self.torus.cell_of(x))
        self._pos[row] = x
        self._id[row] = pid
        self._cell[row] = cell
        self._load[row] = load
        self._block[row >> BLOCK_SHIFT] += load
        self._row[pid] = row
        self._cells.setdefault(cell, set()).add(row)
        self._n += 1
        self._next_id += 1
        return pid

    def remove(self, point_id: int) -> np.ndarray:
        """Delete a point and return its position; the last row moves into its row."""
        row = self._row_of(point_id)
        x = self._pos[row].copy()
        last = self._n - 1
        block = self._block
        self._leave_cell(row)
        block[row >> BLOCK_SHIFT] -= self._load[row]
        if row != last:
            self._leave_cell(last)
            self._cells.setdefault(int(self._cell[last]), set()).add(row)
            moved = self._load[last]
            block[last >> BLOCK_SHIFT] -= moved
            block[row >> BLOCK_SHIFT] += moved
            for col in (self._pos, self._id, self._cell, self._load):
                col[row] = col[last]
            self._row[int(self._id[row])] = row
        if not last & (BLOCK_ROWS - 1):
            block[last >> BLOCK_SHIFT] = 0.0  # emptied: drop its rounding residue
        del self._row[point_id]
        self._n = last
        return x

    def _leave_cell(self, row: int) -> None:
        cell = int(self._cell[row])
        bucket = self._cells[cell]
        bucket.discard(row)
        if not bucket:
            del self._cells[cell]

    # -- index ------------------------------------------------------------

    def cell_index(self) -> dict[int, set[int]]:
        return {k: set(v) for k, v in self._cells.items()}

    def rebuilt_cell_index(self) -> dict[int, set[int]]:
        """Index recomputed from the positions; equals cell_index() at all times."""
        fresh: dict[int, set[int]] = {}
        for row in range(self._n):
            cell = self.torus.flat_cell(self.torus.cell_of(self._pos[row]))
            fresh.setdefault(cell, set()).add(row)
        return fresh

    def _candidate_rows(self, x: np.ndarray, radius: float) -> np.ndarray:
        t = self.torus
        rings = int(math.ceil(radius / t.cell_size))
        if 2 * rings + 1 >= t.n_cells:
            return np.arange(self._n)
        base = t.cell_of(x)
        found: list[int] = []
        offsets = range(-rings, rings + 1)
        for off in product(offsets, repeat=t.dim):
            cell = tuple((b + o) % t.n_cells for b, o in zip(base, off))
            bucket = self._cells.get(t.flat_cell(cell))
            if bucket:
                found.extend(bucket)
        return np.array(found, dtype=np.intp)

    # -- local sums and counts ---------------------------------------------

    def neighbors_within(self, x, radius: float, exclude: int | None = None):
        """Rows and minimum-image distances of points within ``radius`` of x.

        Rows come back in ascending id order so float reductions are
        reproducible; they index ``loads`` until the next removal.
        """
        x = np.asarray(x, dtype=float)
        if radius > self.torus.side / 2.0:
            raise GeometryError(
                f"interaction radius {radius:g} exceeds half the box side "
                f"{self.torus.side / 2.0:g}"
            )
        rows = self._candidate_rows(x, radius)
        dists = periodic_distances(self.torus, x, self._pos[rows])
        keep = dists <= radius
        if exclude is not None:
            keep &= self._id[rows] != exclude
        rows, dists = rows[keep], dists[keep]
        order = np.argsort(self._id[rows])
        return rows[order], dists[order]

    def kernel_sums(self, kernel: RadialKernel) -> np.ndarray:
        """Each point's sum of kernel(distance) over the other points within
        the kernel cutoff, one entry per row.

        One pass over pairs of neighbouring grid cells: rows sorted by cell,
        and for each cell offset within the cutoff, every row paired with the
        rows of its offset cell, PAIR_BATCH pairs at a time.  Offsets are
        taken modulo the grid, so a cutoff ball that wraps round the whole
        grid visits each cell once.
        """
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
        t = self.torus
        n = self._n
        if n == 0:
            return np.zeros(0)
        order = np.argsort(self._cell[:n], kind="stable")
        cells = self._cell[order]
        pos = self._pos[order]
        occupied, first, cell_of_row, count = np.unique(
            cells, return_index=True, return_inverse=True, return_counts=True
        )
        shape = (t.n_cells,) * t.dim
        coords = np.unravel_index(occupied, shape)
        rings = int(math.ceil(cutoff / t.cell_size))
        axis_offsets = sorted({o % t.n_cells for o in range(-rings, rings + 1)})
        sums = np.zeros(n)
        for offset in product(axis_offsets, repeat=t.dim):
            target = np.ravel_multi_index(
                tuple((c + o) % t.n_cells for c, o in zip(coords, offset)), shape
            )
            k = np.minimum(np.searchsorted(occupied, target), occupied.size - 1)
            hit = occupied[k] == target
            start = np.where(hit, first[k], 0)[cell_of_row]
            pairs = np.where(hit, count[k], 0)[cell_of_row]
            self._add_pair_sums(kernel, pos, start, pairs, sums)
        out = np.empty(n)
        out[order] = sums
        return out

    def _add_pair_sums(self, kernel, pos, start, pairs, sums) -> None:
        """Add kernel(distance) over pairs (i, start[i] + k), k < pairs[i],
        i != start[i] + k and within the cutoff, into sums[i]."""
        cutoff = kernel.cutoff_radius()
        ends = np.cumsum(pairs)
        lo = 0
        while lo < ends.size:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + PAIR_BATCH, "right")))
            batch = pairs[lo:hi]
            i = np.repeat(np.arange(lo, hi), batch)
            first_pair = ends[lo:hi] - batch - done  # of each row, in this batch
            j = np.arange(i.size) + np.repeat(start[lo:hi] - first_pair, batch)
            dist = periodic_distances(self.torus, pos[i], pos[j])
            keep = (dist <= cutoff) & (i != j)
            sums[lo:hi] += np.bincount(
                i[keep] - lo, weights=kernel.profile(dist[keep]), minlength=hi - lo
            )
            lo = hi

    def kernel_sum_tail_budget(self, kernel: RadialKernel) -> float:
        """Certified bound on mass any entry of kernel_sums may miss beyond the cutoff."""
        return kernel.tail_sup() * len(self)

    def count_in_window(self, window: Window) -> int:
        if window.dim != self.torus.dim:
            raise GeometryError(
                f"window dimension {window.dim} != torus dimension {self.torus.dim}"
            )
        if any(b > self.torus.side for b in window.hi):
            raise GeometryError("window extends beyond the fundamental domain")
        return window.count(self.positions_array())


def sample_poisson(
    torus: Torus, intensity: float, rng: np.random.Generator
) -> TorusConfiguration:
    """Homogeneous Poisson configuration: N ~ Poisson(intensity * volume),
    positions independent and uniform."""
    if intensity < 0.0:
        raise GeometryError(f"intensity must be >= 0, got {intensity}")
    cfg = TorusConfiguration(torus)
    n = rng.poisson(intensity * torus.volume)
    for x in rng.uniform(0.0, torus.side, (n, torus.dim)):
        cfg.insert(x)
    return cfg
