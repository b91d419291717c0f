"""Radial interaction kernels and immigration fields.

Every built-in kernel is radial, continuous, non-increasing in the radius and
integrable.  For the gaussian and exponential families the shape is a
probability density scaled by a weight, so ``mass()`` returns the weight
exactly; the triangular family is parametrized by its peak height and support
radius instead.  Kernels report a cutoff radius beyond which the simulator
treats them as zero; for families with unbounded support the cutoff is chosen
so the discarded mass is below ``TAIL_MASS_FRACTION`` of the total, and the
discarded sup/mass are available as certified error budgets.

Each family is a frozen dataclass whose fields are its parameters, in the
order its constructor takes them, then ``dim`` (default 1); the tabulated
family's optional tail bounds come last.  Those fields are the one list of a
family's parameters: the base class requires each parametric family's to be
positive and finite (the tabulated family checks its own), ``scaled``
multiplies the ones a family names in ``SCALED``, and the config reads and
writes them by name.  The lower-case names ``gaussian``, ``triangular``,
``exponential`` and ``tabulated`` are the classes themselves.

Each family states its profile once, as ``_profile_sq``, a function of the
squared length: the neighbour query, the pair walk and the certificate keep
lengths squared.  The gaussian is a function of the square; the other
families take its root and go on from there.  ``profile(r)`` is
``_profile_sq(r * r)``, and ``sup_norm`` is the profile at 0 for every
family but the tabulated, which reads its largest value.

The two unbounded families have closed-form tails.  The share of a gaussian's
mass beyond radius ``r`` in ``d`` dimensions is Q(d/2, r^2 / (2 sigma^2)), and
the share of an exponential's is Q(d, r / scale), where Q(s, x) is the
regularised upper incomplete gamma function.  For the half-integer and integer
orders these need, Q has elementary forms (Abramowitz & Stegun, *Handbook of
Mathematical Functions*, 6.5):

    Q(1/2, x) = erfc(sqrt(x)),    Q(1, x) = exp(-x),
    Q(s + 1, x) = Q(s, x) + x^s exp(-x) / Gamma(s + 1).

The cutoff radius maps back the least float z with Q(s, z) <=
``TAIL_MASS_FRACTION`` and is then raised by the few ulps that rounding may
cost, so ``mass_beyond(cutoff_radius())`` never exceeds that fraction of the
weight.  Each instance computes it once, on first use, as it does its peak.

A kernel draws one displacement per call: ``sample_displacement(rng)``
draws a radius with density proportional to profile(s) s^(d-1), then a
uniform direction; the gaussian draws its d coordinates in one normal call
instead.  Every radius is one exact draw: Gamma(d, scale) for the exponential,
``radius`` times Beta(d, 2) for the triangle, and for a table a segment by its
exact mass, then s on it with density proportional to s^(d-1), by inversion,
until profile(s) / max(v_i, v_(i+1)) accepts one (Devroye, 1986, ch. II-III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

try:  # the compiled interp under np.interp's Python wrapper, which adds only
    # the period option and complex values and costs several times the call
    from numpy._core.multiarray import interp as _interp
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import interp as _interp

# Relative mass allowed beyond the cutoff radius of an unbounded kernel.
TAIL_MASS_FRACTION = 1e-10


class KernelError(ValueError):
    """Invalid kernel parameters or misuse of a kernel."""


def _gamma_q(s2: int, x: float) -> float:
    """Regularised upper incomplete gamma Q(s2/2, x) for a positive integer s2."""
    if x <= 0.0:
        return 1.0
    if s2 % 2:
        s, q = 0.5, math.erfc(math.sqrt(x))
    else:
        s, q = 1.0, math.exp(-x)
    log_x = math.log(x)
    while 2.0 * s < s2:
        # every term is positive, so the recurrence loses no digits to cancellation
        q += math.exp(s * log_x - x - math.lgamma(s + 1.0))
        s += 1.0
    return q


@lru_cache
def _gamma_q_inv(s2: int, p: float) -> float:
    """Least float z with ``_gamma_q(s2, z) <= p``, for 0 < p < 1.

    Bisection over [0, hi] down to adjacent floats; memoised because every
    new kernel's cutoff asks for it.
    """
    hi = 1.0
    while _gamma_q(s2, hi) > p:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _gamma_q(s2, mid) > p:
            lo = mid
        else:
            hi = mid


def _within_tail_budget(kernel: RadialKernel, radius: float) -> float:
    """Least float at or above ``radius`` whose ``mass_beyond`` is at most
    ``TAIL_MASS_FRACTION`` of the kernel's weight.

    Mapping a gamma argument back to a radius rounds, and ``mass_beyond``
    rounds again on the way in, which can leave the radius a few ulps short.
    """
    while kernel.mass_beyond(radius) > TAIL_MASS_FRACTION * kernel.weight:
        radius = math.nextafter(radius, math.inf)
    return radius


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in ``dim`` dimensions."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    if dim == 3:
        return 4.0 * math.pi / 3.0
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _constants(*values: float) -> tuple[np.ndarray, ...]:
    """``values`` as read-only 0-d float64 arrays: the constant operands of
    a family's ``_profile_sq``, made once per kernel."""
    out = tuple(np.array(v, dtype=float) for v in values)
    for a in out:
        a.flags.writeable = False
    return out


def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise KernelError(f"dimension must be a positive integer, got {dim!r}")


def uniform_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one unit vector uniformly on the sphere in ``dim`` dimensions: a
    standard normal vector over its norm.  In d = 1 that is the sign of the
    one draw, and a zero draw itself, as a norm of 0 divides by 1."""
    v = rng.standard_normal(dim)
    if dim == 1:
        return np.sign(v) if v.item(0) else v
    # np.linalg.norm(v, axis=0, keepdims=True) bit for bit, without its
    # wrapper: its add.reduce adds the squares in order, and in d = 2 one add
    # gives that sum for less than a reduction's set-up
    sq = v * v
    sq = sq[:1] + sq[1:] if dim == 2 else np.add.reduce(sq, keepdims=True)
    norm = np.sqrt(sq)
    norm[norm == 0.0] = 1.0
    return v / norm


class RadialKernel:
    """Base class for radial interaction kernels on R^d.

    ``SCALED`` names the fields that carry a family's overall weight.
    """

    dim: int
    SCALED: tuple[str, ...]

    def __post_init__(self):
        """Check ``dim``, and that every other field is a positive finite number."""
        _check_dim(self.dim)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "dim" and not (value > 0.0 and math.isfinite(value)):
                raise KernelError(f"{f.name} must be positive, got {value}")

    # -- radial profile -------------------------------------------------

    def _profile_sq(self, s: np.ndarray) -> np.ndarray:
        """The kernel at the lengths whose squares are ``s``: a family's one
        statement of its profile.  It takes a float array of at least one
        axis, never writes into it, and returns one fresh array.  The rate
        caches and the certificate call it on the squared lengths they keep;
        a family that is a function of the length takes the root itself.

        A ufunc's constant operand is a 0-d array, never a Python float: the
        family's ``_operands``, made once.  numpy converts a Python float
        operand afresh on every call (NEP 50), for the same floats: some
        0.2 us a ufunc call on 100 floats (numpy 2.4, a 2-core Intel Xeon)."""
        raise NotImplementedError

    def profile(self, r):
        """Kernel value at radius ``r`` (scalar or array, vectorized), as
        ``_profile_sq(r * r)``.

        Contract: ``r >= 0`` (a length, not a signed coordinate); nothing is
        checked.  The input is never written into; a scalar comes back as a
        float.  For r >= 0 the correctly rounded root of fl(r * r) is r
        unless the square overflows or underflows, so these are the floats
        of the family's formula at r.
        """
        arr = np.asarray(r, dtype=float)
        if arr.ndim == 0:
            x = float(arr)  # a float's product rounds as numpy's does
            return float(self._profile_sq(np.array([x * x]))[0])
        return self._profile_sq(arr * arr)

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
        return replace(self, **{n: getattr(self, n) * alpha for n in self.SCALED})

    # -- sampling ---------------------------------------------------------

    def sample_radius(self, rng: np.random.Generator) -> float:
        """Draw one radius with density proportional to profile(s) s^(d-1)."""
        raise NotImplementedError

    def sample_displacement(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one displacement with density ``profile(|x|)/mass()``: its
        radius, then its direction."""
        radius = self.sample_radius(rng)
        return uniform_direction(self.dim, rng) * radius


@dataclass(frozen=True, eq=False)
class GaussianKernel(RadialKernel):
    """Profile ``weight`` times the centred normal density of deviation ``sigma``."""

    weight: float
    sigma: float
    dim: int = 1

    SCALED = ("weight",)

    @cached_property
    def _peak(self) -> float:
        return self.weight / (2.0 * math.pi * self.sigma**2) ** (self.dim / 2.0)

    @cached_property
    def _operands(self) -> tuple[np.ndarray, ...]:
        return _constants(-(2.0 * self.sigma**2), self._peak)

    def _profile_sq(self, s):
        # peak * exp(-s / (2 sigma^2)), in place in one fresh array, no root
        scale, peak = self._operands
        t = s / scale
        np.exp(t, out=t)
        t *= peak
        return t

    def mass(self) -> float:
        return self.weight

    def mass_beyond(self, radius: float) -> float:
        if radius <= 0.0:
            return self.weight
        z = radius**2 / (2.0 * self.sigma**2)
        return self.weight * _gamma_q(self.dim, z)

    @cached_property
    def _cutoff(self) -> float:
        z = _gamma_q_inv(self.dim, TAIL_MASS_FRACTION)
        return _within_tail_budget(self, self.sigma * math.sqrt(2.0 * z))

    def cutoff_radius(self) -> float:
        return self._cutoff

    def characteristic_radius(self) -> float:
        return self.sigma

    def sample_displacement(self, rng):
        # the stream and floats of standard_normal(dim) * sigma, in one call
        return rng.normal(0.0, self.sigma, self.dim)


@dataclass(frozen=True, eq=False)
class TriangularKernel(RadialKernel):
    """Tent profile ``height * max(0, 1 - r/radius)`` with compact support."""

    height: float
    radius: float
    dim: int = 1

    SCALED = ("height",)

    @cached_property
    def _operands(self) -> tuple[np.ndarray, ...]:
        return _constants(self.radius, 1.0, 0.0, self.height)

    def _profile_sq(self, s):
        # height * max(1 - sqrt(s) / radius, 0), in place in the fresh root
        radius, one, zero, height = self._operands
        t = np.sqrt(s)
        t /= radius
        np.subtract(one, t, out=t)
        np.maximum(t, zero, out=t)
        t *= height
        return t

    def mass(self) -> float:
        d = self.dim
        return self.height * unit_ball_volume(d) * self.radius**d / (d + 1)

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

    def characteristic_radius(self) -> float:
        return self.radius / 2.0

    def sample_radius(self, rng):
        # s/R has density prop to (1 - s/R) (s/R)^(d-1): Beta(d, 2) exactly
        return self.radius * rng.beta(self.dim, 2.0)


@dataclass(frozen=True, eq=False)
class ExponentialKernel(RadialKernel):
    """Profile ``weight * exp(-r/scale)`` normalized so mass() == weight."""

    weight: float
    scale: float
    dim: int = 1

    SCALED = ("weight",)

    @cached_property
    def _peak(self) -> float:
        d = self.dim
        # integral of exp(-|x|/scale) over R^d is c_d * scale^d * d!
        return self.weight / (
            unit_ball_volume(d) * self.scale**d * math.factorial(d)
        )

    @cached_property
    def _operands(self) -> tuple[np.ndarray, ...]:
        return _constants(-self.scale, self._peak)

    def _profile_sq(self, s):
        # peak * exp(-sqrt(s) / scale), in place in the fresh root
        scale, peak = self._operands
        t = np.sqrt(s)
        t /= scale
        np.exp(t, out=t)
        t *= peak
        return t

    def mass(self) -> float:
        return self.weight

    def mass_beyond(self, radius: float) -> float:
        if radius <= 0.0:
            return self.weight
        return self.weight * _gamma_q(2 * self.dim, radius / self.scale)

    @cached_property
    def _cutoff(self) -> float:
        z = _gamma_q_inv(2 * self.dim, TAIL_MASS_FRACTION)
        return _within_tail_budget(self, self.scale * z)

    def cutoff_radius(self) -> float:
        return self._cutoff

    def characteristic_radius(self) -> float:
        return self.scale

    def sample_radius(self, rng):
        # Radius has a Gamma(dim, scale) law: density prop to r^(d-1) e^(-r/scale).
        return rng.gamma(self.dim, self.scale)


@dataclass(frozen=True, eq=False)
class TabulatedKernel(RadialKernel):
    """Piecewise-linear radial profile given on a grid of (radius, value) pairs.

    The profile is zero beyond the last grid radius.  When the table truncates
    a kernel with unbounded support, the declared tail bounds certify how much
    sup and mass the truncation discards; both default to zero.  The kernel
    keeps read-only copies of the grid, so the sampler's tables, computed
    once, stay in step with it.
    """

    radii: np.ndarray
    values: np.ndarray
    dim: int = 1
    tail_sup_bound: float = 0.0
    tail_mass_bound: float = 0.0

    SCALED = ("values", "tail_sup_bound", "tail_mass_bound")

    def __post_init__(self):
        _check_dim(self.dim)
        radii = np.array(self.radii, dtype=float)
        values = np.array(self.values, dtype=float)
        radii.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if radii.ndim != 1 or radii.size < 2:
            raise KernelError("need at least two (radius, value) grid points")
        if not np.all(np.isfinite(radii)):
            raise KernelError("radial grid must be finite")
        if radii[0] != 0.0:
            raise KernelError("radial grid must start at radius 0")
        if not np.all(np.diff(radii) > 0.0):
            raise KernelError("radial grid must be strictly increasing")
        if values.shape != radii.shape:
            raise KernelError("radii and values must have matching shapes")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise KernelError("tabulated values must be finite and nonnegative")
        for bound in (self.tail_sup_bound, self.tail_mass_bound):
            if not (0.0 <= bound < math.inf):
                raise KernelError("tail bounds must be finite and nonnegative")
        if values[-1] > 0.0 and (
            self.tail_sup_bound < values[-1] or self.tail_mass_bound <= 0.0
        ):
            raise KernelError(
                "table truncates a positive profile: declare tail_sup_bound >= "
                "last value and a positive tail_mass_bound"
            )
        if self.mass() <= 0.0:
            raise KernelError("tabulated kernel must have positive mass")
        self._segments  # built here, not by a first draw on the event path

    @cached_property
    def _operands(self) -> tuple[np.ndarray, ...]:
        return _constants(0.0)

    def _profile_sq(self, s):
        (beyond,) = self._operands
        return _interp(np.sqrt(s), self.radii, self.values, None, beyond)

    def _pieces(self, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The profile's slope and intercept on each grid segment, and the
        exact integral of profile(s) s^(d-1) over each, cut below at radius:
        h sum_k (u (d - k) + w (k + 1)) a^(d-1-k) b^k / (d (d + 1)) over [a,
        b], values u and w, h = b - a, whose terms, unlike an antiderivative's
        difference, do not cancel on a short segment far out."""
        d, r, v = self.dim, self.radii, self.values
        slopes = np.diff(v) / np.diff(r)
        intercepts = v[:-1] - slopes * r[:-1]
        lo, hi = np.clip(r[:-1], radius, None), np.clip(r[1:], radius, None)
        u = v[:-1] + slopes * (lo - r[:-1])  # v[:-1] itself where not cut
        terms = sum((u * (d - k) + v[1:] * (k + 1)) * lo ** (d - 1 - k) * hi**k for k in range(d))
        return slopes, intercepts, (hi - lo) * terms / (d * (d + 1))

    def _mass_from(self, radius: float) -> float:
        """Exact integral of the profile beyond max(radius, 0)."""
        d = self.dim
        return float(d * unit_ball_volume(d) * self._pieces(radius)[2].sum())

    def mass(self) -> float:
        return self._mass_from(0.0)

    def sup_norm(self) -> float:
        return float(self.values.max())

    def mass_beyond(self, radius: float) -> float:
        return self._mass_from(radius) + self.tail_mass_bound

    def cutoff_radius(self) -> float:
        return float(self.radii[-1])

    def tail_sup(self) -> float:
        return self.tail_sup_bound

    def characteristic_radius(self) -> float:
        """Half the radius where the support ends: the grid radius after the
        last positive value, or the last one if the table ends above zero,
        as a triangle's is half its radius."""
        end = np.flatnonzero(self.values > 0.0)[-1] + 1
        return float(self.radii[min(end, self.radii.size - 1)]) / 2.0

    @property
    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0.0))

    @cached_property
    def _segments(self) -> tuple[np.ndarray, float, int, list]:
        """The running sum of the segments' integrals, their total, the last
        segment of positive mass, and per segment, as Python floats, r_i^d,
        r_(i+1)^d - r_i^d, the slope, the intercept and max(v_i, v_(i+1))."""
        r, v, d = self.radii, self.values, self.dim
        slopes, intercepts, integrals = self._pieces(0.0)
        cum = np.add.accumulate(integrals)
        last = int(cum.searchsorted(cum[-1]))  # the first to reach the total
        columns = r[:-1] ** d, np.diff(r**d), slopes, intercepts, np.maximum(v[:-1], v[1:])
        return cum, float(cum[-1]), last, list(zip(*(c.tolist() for c in columns)))

    def sample_radius(self, rng):
        # A segment with probability its exact mass ("right" skips segments
        # of zero mass; the clamp guards the trailing ones should the product
        # round up to the total), then s prop to s^(d-1) on it by inversion,
        # accepted with probability profile(s) / max(v_i, v_(i+1)).  A
        # rejection redraws s only: redrawing the segment would tilt the law
        cum, total, last, rows = self._segments
        i = min(int(cum.searchsorted(rng.random() * total, "right")), last)
        lo_d, span_d, slope, intercept, top = rows[i]
        while True:
            s = (lo_d + rng.random() * span_d) ** (1.0 / self.dim)
            if rng.random() * top < intercept + slope * s:
                return s


gaussian = GaussianKernel
triangular = TriangularKernel
exponential = ExponentialKernel
tabulated = TabulatedKernel


class ImmigrationField:
    """Bounded nonnegative immigration intensity on a periodic box.

    Either constant, or piecewise constant on a regular grid over the box.
    A grid field keeps a read-only copy of the grid, with the running sum of
    its flattened cells and their total, computed once for
    ``sample_position``.
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
            grid = np.array(grid, dtype=float)
            if grid.ndim < 1 or not np.all(np.isfinite(grid)) or np.any(grid < 0.0):
                raise KernelError("grid intensities must be finite and nonnegative")
            if grid.size == 0 or len(set(grid.shape)) != 1:
                raise KernelError("grid must have one nonzero extent along every axis")
            grid.flags.writeable = False
            self.constant = None
            self.grid = grid
            flat = grid.ravel()
            self._cum = np.cumsum(flat)
            self._grid_sum = float(flat.sum())

    @property
    def dim(self) -> int | None:
        return None if self.grid is None else self.grid.ndim

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

    def sample_position(self, side: float, dim: int, rng: np.random.Generator):
        """Draw a point with density proportional to the intensity."""
        if self.grid is None:
            return rng.uniform(0.0, side, dim)
        if self.grid.ndim != dim:
            raise KernelError(
                f"grid has {self.grid.ndim} axes but the box has dimension {dim}"
            )
        n = self.grid.shape[0]
        if self._grid_sum <= 0.0:
            raise KernelError("cannot sample from an all-zero intensity")
        cell = self._cum.searchsorted(rng.random() * self._grid_sum)
        cell = min(cell, self.grid.size - 1)
        idx = np.array(np.unravel_index(cell, self.grid.shape), dtype=float)
        return (idx + rng.random(dim)) * (side / n)
