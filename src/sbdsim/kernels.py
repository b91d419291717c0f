"""Radial interaction kernels and immigration fields.

Every built-in kernel is radial, continuous, non-increasing in the radius and
integrable.  For the gaussian and exponential families the shape is a
probability density scaled by a weight, so ``mass()`` returns the weight
exactly; the triangular family is parametrized by its peak height and support
radius instead.  Kernels report a cutoff radius beyond which the simulator
treats them as zero; for families with unbounded support the cutoff is chosen
so the discarded mass is below ``TAIL_MASS_FRACTION`` of the total, and the
discarded sup/mass are available as certified error budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

# Relative mass allowed beyond the cutoff radius of an unbounded kernel.
TAIL_MASS_FRACTION = 1e-10


class KernelError(ValueError):
    """Invalid kernel parameters or misuse of a kernel."""


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in ``dim`` dimensions."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    if dim == 3:
        return 4.0 * math.pi / 3.0
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise KernelError(f"dimension must be a positive integer, got {dim!r}")


def uniform_direction(dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` unit vectors uniformly on the sphere in ``dim`` dimensions."""
    v = rng.standard_normal((size, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


@dataclass(frozen=True, eq=False)
class RadialKernel:
    """Base class for radial interaction kernels on R^d."""

    dim: int

    def __post_init__(self):
        _check_dim(self.dim)

    # -- radial profile -------------------------------------------------

    def _profile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def profile(self, r):
        """Kernel value at radius ``r`` (scalar or array, vectorized)."""
        arr = np.abs(np.asarray(r, dtype=float))
        out = self._profile(arr)
        return float(out) if arr.ndim == 0 else out

    # -- integrals and norms ---------------------------------------------

    def mass(self) -> float:
        """Total integral over R^d."""
        raise NotImplementedError

    def sup_norm(self) -> float:
        """Supremum of the kernel; attained at the origin."""
        return float(self.profile(0.0))

    def mass_beyond(self, radius: float) -> float:
        """Certified upper bound on the integral outside the ball of ``radius``."""
        raise NotImplementedError

    def cutoff_radius(self) -> float:
        """Radius beyond which the kernel is treated as zero in sums."""
        raise NotImplementedError

    def tail_sup(self) -> float:
        """Certified sup of the kernel beyond the cutoff radius."""
        return float(self.profile(self.cutoff_radius()))

    def characteristic_radius(self) -> float:
        """Length scale of the kernel, used to build default search grids."""
        raise NotImplementedError

    @property
    def is_nonincreasing(self) -> bool:
        return True

    def scaled(self, alpha: float) -> "RadialKernel":
        """Same shape with the overall weight multiplied by ``alpha > 0``."""
        raise NotImplementedError

    # -- sampling ---------------------------------------------------------

    def sample_radius(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample_displacement(self, rng: np.random.Generator, size: int | None = None):
        """Draw displacement vectors with density ``profile(|x|)/mass()``."""
        n = 1 if size is None else int(size)
        radii = self.sample_radius(rng, n)
        disp = uniform_direction(self.dim, rng, n) * radii[:, None]
        return disp[0] if size is None else disp


@dataclass(frozen=True, eq=False)
class GaussianKernel(RadialKernel):
    weight: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise KernelError(f"weight must be positive, got {self.weight}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise KernelError(f"sigma must be positive, got {self.sigma}")

    @property
    def _peak(self) -> float:
        return self.weight / (2.0 * math.pi * self.sigma**2) ** (self.dim / 2.0)

    def _profile(self, r):
        return self._peak * np.exp(-(r**2) / (2.0 * self.sigma**2))

    def mass(self) -> float:
        return self.weight

    def sup_norm(self) -> float:
        return self._peak

    def mass_beyond(self, radius: float) -> float:
        if radius <= 0.0:
            return self.weight
        z = radius**2 / (2.0 * self.sigma**2)
        return self.weight * float(special.gammaincc(self.dim / 2.0, z))

    def cutoff_radius(self) -> float:
        z = float(special.gammainccinv(self.dim / 2.0, TAIL_MASS_FRACTION))
        return self.sigma * math.sqrt(2.0 * z)

    def characteristic_radius(self) -> float:
        return self.sigma

    def scaled(self, alpha: float) -> "GaussianKernel":
        return replace(self, weight=self.weight * alpha)

    def sample_radius(self, rng, size):
        v = rng.standard_normal((size, self.dim)) * self.sigma
        return np.linalg.norm(v, axis=1)

    def sample_displacement(self, rng, size=None):
        n = 1 if size is None else int(size)
        disp = rng.standard_normal((n, self.dim)) * self.sigma
        return disp[0] if size is None else disp


@dataclass(frozen=True, eq=False)
class TriangularKernel(RadialKernel):
    """Tent profile ``height * max(0, 1 - r/radius)`` with compact support."""

    height: float = 1.0
    radius: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.height > 0.0 and math.isfinite(self.height)):
            raise KernelError(f"height must be positive, got {self.height}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise KernelError(f"radius must be positive, got {self.radius}")

    def _profile(self, r):
        return self.height * np.clip(1.0 - r / self.radius, 0.0, None)

    def mass(self) -> float:
        d = self.dim
        return self.height * unit_ball_volume(d) * self.radius**d / (d + 1)

    def sup_norm(self) -> float:
        return self.height

    def mass_beyond(self, radius: float) -> float:
        if radius >= self.radius:
            return 0.0
        if radius <= 0.0:
            return self.mass()
        d, R = self.dim, self.radius
        # d * c_d * integral_s^R (1 - u/R) u^(d-1) du, antiderivative is exact
        def anti(u: float) -> float:
            return u**d / d - u ** (d + 1) / ((d + 1) * R)

        return (
            self.height * d * unit_ball_volume(d) * (anti(R) - anti(radius))
        )

    def cutoff_radius(self) -> float:
        return self.radius

    def tail_sup(self) -> float:
        return 0.0

    def characteristic_radius(self) -> float:
        return self.radius / 2.0

    def scaled(self, alpha: float) -> "TriangularKernel":
        return replace(self, height=self.height * alpha)

    def sample_radius(self, rng, size):
        # Rejection against the uniform ball: accept radius s with prob 1 - s/R.
        out = np.empty(size)
        filled = 0
        while filled < size:
            n = max(2 * (size - filled), 16)
            s = self.radius * rng.random(n) ** (1.0 / self.dim)
            acc = s[rng.random(n) < 1.0 - s / self.radius]
            take = min(acc.size, size - filled)
            out[filled : filled + take] = acc[:take]
            filled += take
        return out


@dataclass(frozen=True, eq=False)
class ExponentialKernel(RadialKernel):
    """Profile ``weight * exp(-r/scale)`` normalized so mass() == weight."""

    weight: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise KernelError(f"weight must be positive, got {self.weight}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise KernelError(f"scale must be positive, got {self.scale}")

    @property
    def _peak(self) -> float:
        d = self.dim
        # integral of exp(-|x|/scale) over R^d is c_d * scale^d * d!
        return self.weight / (
            unit_ball_volume(d) * self.scale**d * math.factorial(d)
        )

    def _profile(self, r):
        return self._peak * np.exp(-r / self.scale)

    def mass(self) -> float:
        return self.weight

    def sup_norm(self) -> float:
        return self._peak

    def mass_beyond(self, radius: float) -> float:
        if radius <= 0.0:
            return self.weight
        return self.weight * float(special.gammaincc(self.dim, radius / self.scale))

    def cutoff_radius(self) -> float:
        return self.scale * float(special.gammainccinv(self.dim, TAIL_MASS_FRACTION))

    def characteristic_radius(self) -> float:
        return self.scale

    def scaled(self, alpha: float) -> "ExponentialKernel":
        return replace(self, weight=self.weight * alpha)

    def sample_radius(self, rng, size):
        # Radius has a Gamma(dim, scale) law: density prop to r^(d-1) e^(-r/scale).
        return rng.gamma(self.dim, self.scale, size)


@dataclass(frozen=True, eq=False)
class TabulatedKernel(RadialKernel):
    """Piecewise-linear radial profile given on a grid of (radius, value) pairs.

    The profile is zero beyond the last grid radius.  When the table truncates
    a kernel with unbounded support, the declared tail bounds certify how much
    sup and mass the truncation discards; both default to zero.
    """

    radii: np.ndarray = None
    values: np.ndarray = None
    tail_sup_bound: float = 0.0
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if radii.ndim != 1 or radii.size < 2:
            raise KernelError("need at least two (radius, value) grid points")
        if radii[0] != 0.0:
            raise KernelError("radial grid must start at radius 0")
        if not np.all(np.diff(radii) > 0.0):
            raise KernelError("radial grid must be strictly increasing")
        if values.shape != radii.shape:
            raise KernelError("radii and values must have matching shapes")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise KernelError("tabulated values must be finite and nonnegative")
        if self.tail_sup_bound < 0.0 or self.tail_mass_bound < 0.0:
            raise KernelError("tail bounds must be nonnegative")
        if values[-1] > 0.0 and (
            self.tail_sup_bound < values[-1] or self.tail_mass_bound <= 0.0
        ):
            raise KernelError(
                "table truncates a positive profile: declare tail_sup_bound >= "
                "last value and a positive tail_mass_bound"
            )
        if self.mass() <= 0.0:
            raise KernelError("tabulated kernel must have positive mass")

    def _profile(self, r):
        return np.interp(r, self.radii, self.values, right=0.0)

    def mass(self) -> float:
        # Exact integral of the piecewise-linear profile times the sphere area.
        d = self.dim
        r, v = self.radii, self.values
        slopes = np.diff(v) / np.diff(r)
        intercepts = v[:-1] - slopes * r[:-1]

        def anti(u):  # antiderivative of (intercept + slope*u) * u^(d-1)
            return intercepts * u**d / d + slopes * u ** (d + 1) / (d + 1)

        segs = anti(r[1:]) - anti(r[:-1])
        return float(d * unit_ball_volume(d) * segs.sum())

    def sup_norm(self) -> float:
        return float(self.values.max())

    def mass_beyond(self, radius: float) -> float:
        if radius <= 0.0:
            return self.mass() + self.tail_mass_bound
        if radius >= self.radii[-1]:
            return self.tail_mass_bound
        d = self.dim
        r, v = self.radii, self.values
        slopes = np.diff(v) / np.diff(r)
        intercepts = v[:-1] - slopes * r[:-1]

        def anti(u):
            return intercepts * u**d / d + slopes * u ** (d + 1) / (d + 1)

        lo = np.clip(r[:-1], radius, None)
        hi = np.clip(r[1:], radius, None)
        segs = anti(hi) - anti(lo)
        return float(d * unit_ball_volume(d) * segs.sum()) + self.tail_mass_bound

    def cutoff_radius(self) -> float:
        return float(self.radii[-1])

    def tail_sup(self) -> float:
        return self.tail_sup_bound

    def characteristic_radius(self) -> float:
        positive = np.nonzero(self.values > 0.0)[0]
        return float(self.radii[positive[-1]]) / 2.0

    @property
    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0.0))

    def scaled(self, alpha: float) -> "TabulatedKernel":
        return TabulatedKernel(
            dim=self.dim,
            radii=self.radii,
            values=self.values * alpha,
            tail_sup_bound=self.tail_sup_bound * alpha,
            tail_mass_bound=self.tail_mass_bound * alpha,
        )

    def sample_radius(self, rng, size):
        # Rejection against a dominating step function on each grid segment.
        d = self.dim
        r, v = self.radii, self.values
        seg_sup = np.maximum(v[:-1], v[1:]) * r[1:] ** (d - 1)
        seg_w = seg_sup * np.diff(r)
        total = seg_w.sum()
        if total <= 0.0:
            raise KernelError("cannot sample from an all-zero kernel")
        cum = np.cumsum(seg_w)
        out = np.empty(size)
        filled = 0
        while filled < size:
            n = max(2 * (size - filled), 16)
            seg = np.searchsorted(cum, rng.random(n) * total)
            s = r[seg] + rng.random(n) * (r[seg + 1] - r[seg])
            target = np.interp(s, r, v) * s ** (d - 1)
            acc = s[rng.random(n) * seg_sup[seg] < target]
            take = min(acc.size, size - filled)
            out[filled : filled + take] = acc[:take]
            filled += take
        return out


def gaussian(weight: float, sigma: float, dim: int = 1) -> GaussianKernel:
    return GaussianKernel(dim=dim, weight=weight, sigma=sigma)


def triangular(height: float, radius: float, dim: int = 1) -> TriangularKernel:
    return TriangularKernel(dim=dim, height=height, radius=radius)


def exponential(weight: float, scale: float, dim: int = 1) -> ExponentialKernel:
    return ExponentialKernel(dim=dim, weight=weight, scale=scale)


def tabulated(
    radii,
    values,
    dim: int = 1,
    tail_sup_bound: float = 0.0,
    tail_mass_bound: float = 0.0,
) -> TabulatedKernel:
    return TabulatedKernel(
        dim=dim,
        radii=radii,
        values=values,
        tail_sup_bound=tail_sup_bound,
        tail_mass_bound=tail_mass_bound,
    )


class ImmigrationField:
    """Bounded nonnegative immigration intensity on a periodic box.

    Either constant, or piecewise constant on a regular grid over the box.
    """

    def __init__(self, constant: float | None = None, grid: np.ndarray | None = None):
        if (constant is None) == (grid is None):
            raise KernelError("give exactly one of constant or grid")
        if constant is not None:
            if not (constant >= 0.0 and math.isfinite(constant)):
                raise KernelError(f"constant intensity must be >= 0, got {constant}")
            self.constant = float(constant)
            self.grid = None
        else:
            grid = np.asarray(grid, dtype=float)
            if grid.ndim < 1 or not np.all(np.isfinite(grid)) or np.any(grid < 0.0):
                raise KernelError("grid intensities must be finite and nonnegative")
            if len(set(grid.shape)) != 1:
                raise KernelError("grid must have equal extent along every axis")
            self.constant = None
            self.grid = grid

    @property
    def dim(self) -> int | None:
        return None if self.grid is None else self.grid.ndim

    def sup_norm(self) -> float:
        if self.grid is None:
            return self.constant
        return float(self.grid.max())

    def integral(self, side: float, dim: int) -> float:
        """Total intensity over the box [0, side)^dim."""
        if self.grid is None:
            return self.constant * side**dim
        if self.grid.ndim != dim:
            raise KernelError(
                f"grid has {self.grid.ndim} axes but the box has dimension {dim}"
            )
        cell_vol = (side / self.grid.shape[0]) ** dim
        return float(self.grid.sum()) * cell_vol

    def evaluate(self, x, side: float) -> float:
        x = np.asarray(x, dtype=float)
        if self.grid is None:
            return self.constant
        n = self.grid.shape[0]
        idx = np.floor(np.mod(x, side) / side * n).astype(int)
        idx = np.minimum(idx, n - 1)
        return float(self.grid[tuple(idx)])

    def sample_position(self, side: float, dim: int, rng: np.random.Generator):
        """Draw a point with density proportional to the intensity."""
        if self.grid is None:
            return rng.uniform(0.0, side, dim)
        if self.grid.ndim != dim:
            raise KernelError(
                f"grid has {self.grid.ndim} axes but the box has dimension {dim}"
            )
        n = self.grid.shape[0]
        flat = self.grid.ravel()
        total = flat.sum()
        if total <= 0.0:
            raise KernelError("cannot sample from an all-zero intensity")
        cell = np.searchsorted(np.cumsum(flat), rng.random() * total)
        cell = min(cell, flat.size - 1)
        idx = np.array(np.unravel_index(cell, self.grid.shape), dtype=float)
        return (idx + rng.random(dim)) * (side / n)
