"""Periodic boxes, point configurations, and the cell-list spatial index."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .kernels import RadialKernel


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
    """Minimum-image distances from ``x`` to each row of ``pts``."""
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
    """

    def __init__(self, torus: Torus):
        self.torus = torus
        self._n = 0
        self._next_id = 0
        self._pos = np.zeros((16, torus.dim))
        self._id = np.zeros(16, dtype=np.int64)
        self._cell = np.zeros(16, dtype=np.int64)
        self._load = np.zeros(16)
        self._row: dict[int, int] = {}  # id -> row
        self._cells: dict[int, set[int]] = {}  # flat cell -> rows

    def __len__(self) -> int:
        return self._n

    @property
    def loads(self) -> np.ndarray:
        """Writable view of the competition-load column, one entry per row."""
        return self._load[: self._n]

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

    def insert(self, position) -> int:
        """Add a point as the last row, with load 0; return its new id."""
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
        row, pid = self._n, self._next_id
        cell = self.torus.flat_cell(self.torus.cell_of(x))
        self._pos[row] = x
        self._id[row] = pid
        self._cell[row] = cell
        self._load[row] = 0.0
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
        self._leave_cell(row)
        if row != last:
            self._leave_cell(last)
            self._cells.setdefault(int(self._cell[last]), set()).add(row)
            for col in (self._pos, self._id, self._cell, self._load):
                col[row] = col[last]
            self._row[int(self._id[row])] = row
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

    def kernel_sum_at(
        self, kernel: RadialKernel, x, exclude: int | None = None
    ) -> float:
        """Sum of kernel(dist(x, y)) over points y within the kernel cutoff."""
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
        _, dists = self.neighbors_within(x, cutoff, exclude=exclude)
        if dists.size == 0:
            return 0.0
        return float(kernel.profile(dists).sum())

    def kernel_sums(self, kernel: RadialKernel) -> np.ndarray:
        """kernel_sum_at every point over the others, one entry per row."""
        return np.array(
            [
                self.kernel_sum_at(kernel, self._pos[row], exclude=self.point_at(row))
                for row in range(self._n)
            ]
        )

    def kernel_sum_tail_budget(self, kernel: RadialKernel) -> float:
        """Certified bound on mass any kernel_sum_at may miss beyond the cutoff."""
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
