"""Constructive self-regulation certificates for birth/death kernel pairs.

A pair of radial non-increasing kernels (dispersal a_plus, competition
a_minus) self-regulates at level (omega, theta) if for every finite point set
eta in R^d

    U(eta) = omega*|eta| + sum_{x != y} a_minus(x - y)
                         - theta * sum_{x != y} a_plus(x - y)  >=  0,

with both sums over ordered pairs.  ``certify`` builds such a theta > 0
explicitly whenever the competition kernel is strictly positive somewhere
near the origin, by a covering/packing argument:

* tile R^d by cubes of side h and over-count the dispersal kernel by its
  per-cube suprema (an upper Riemann sum; epsilon is the cell sum's excess
  over the mass);
* inside one cube, points closer than 2r to a crowded point see competition
  at least a_minus(2r), and at most h^d * g(h, r) points can be mutually
  2r-separated, where g is an explicit packing bound with the densest
  packing constant of the dimension (``TIGHT_PACKING``).

Balancing the two effects yields theta = min(omega/(2*delta), a_r/delta)
with delta = max(sup a_plus, (mass a_plus + epsilon) * g(h, r)) and
a_r = a_minus(2r), the infimum of a_minus on the ball of radius 2r;
``certify`` reads a_r at every search radius from one evaluation of a_minus
over the whole grid.  All certificate arithmetic is elementary and
recomputable from the stored fields.  Distances here are flat (not
periodic): the certificate is a statement about configurations in the whole
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .kernels import RadialKernel, unit_ball_volume

# Densest-packing constants by dimension (see ``packing_bound``); 1.0 is
# sound in any d and serves d >= 4.
TIGHT_PACKING = {1: 1.0, 2: math.pi / math.sqrt(12.0), 3: math.pi / math.sqrt(18.0)}
# Defaults of certify and verify_certificate, which config imports.
DEFAULT_OMEGA = 1.0
DEFAULT_TRIALS = 100_000
DEFAULT_SIZE_MAX = 30
SELF_CHECK_TOL = 1e-12  # relative and absolute, on each field self_check recomputes
VIOLATION_TOL = 1e-9  # see ViolationReport.tolerance


class CertificationError(RuntimeError):
    pass


def _require_radial_nonincreasing(kernel: RadialKernel, name: str) -> None:
    if not kernel.is_nonincreasing:
        raise CertificationError(f"{name} must be radial non-increasing")


def packing_bound(dim: int, h: float, r: float, packing_constant: float = 1.0) -> float:
    """Bound g(h, r) on the density of 2r-separated points per unit cube volume.

    Any set of points in a cube of side h whose open r-balls are pairwise
    disjoint has at most h^d * g(h, r) elements, with
    g(h, r) = (packing_constant / c_d) * ((h + 2r) / (h r))^d.

    Proof: the r-balls lie in the cube Q of side h + 2r around the cell.
    Translates of Q by (h + 2r) Z^d tile R^d, and copying the balls into
    every tile gives a packing of R^d by r-balls of density
    n c_d r^d / (h + 2r)^d.  No packing of R^d by equal balls is denser than
    delta_d, so n <= delta_d (h + 2r)^d / (c_d r^d).  delta_d = 1 is trivial
    in any d; the densest constants are delta_1 = 1, delta_2 = pi/sqrt(12)
    (Thue; Fejes Toth 1940) and delta_3 = pi/sqrt(18) (Hales 2005), which
    are the ``TIGHT_PACKING`` values; d >= 4 uses 1.0.
    """
    if h <= 0.0 or r <= 0.0:
        raise CertificationError(f"h and r must be positive, got h={h}, r={r}")
    if not (0.0 < packing_constant <= 1.0):
        raise CertificationError(
            f"packing constant must lie in (0, 1], got {packing_constant}"
        )
    return (packing_constant / unit_ball_volume(dim)) * (
        (h + 2.0 * r) / (h * r)
    ) ** dim


def riemann_upper_sum(a_plus: RadialKernel, h: float) -> float:
    """Upper Riemann sum h^d * sum over lattice cubes of the per-cube sup.

    Cubes are [m h, (m+1) h)^d over all integer vectors m.  For a radial
    non-increasing kernel the sup over a cube is the value at the cube's
    closest point to the origin.  Cubes beyond the kernel cutoff contribute
    through a certified far-field bound, so the result is a true upper bound
    for the infinite sum.
    """
    if h <= 0.0:
        raise CertificationError(f"h must be positive, got {h}")
    _require_radial_nonincreasing(a_plus, "a_plus")
    d = a_plus.dim
    diag = h * math.sqrt(d)
    r_enum = a_plus.cutoff_radius() + diag

    m_max = int(math.ceil(r_enum / h)) + 1
    idx = np.arange(-m_max, m_max + 1)
    lo = idx * h
    hi = (idx + 1) * h
    # closest coordinate of the closed cube [lo, hi] to the origin
    near = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
    near_sq = near**2

    # accumulate squared distances axis by axis, pruning cubes already too far
    rho_sq = near_sq[near_sq < r_enum**2]
    for _ in range(d - 1):
        rho_sq = (rho_sq[:, None] + near_sq[None, :]).ravel()
        rho_sq = rho_sq[rho_sq < r_enum**2]
    core = h**d * float(a_plus._profile_sq(rho_sq).sum())

    # cubes with closest point at distance >= r_enum: each sup is dominated by
    # the kernel value at (|x| - h sqrt(d)) pointwise, so their total is at most
    # (r_enum / (r_enum - diag))^(d-1) * mass_beyond(r_enum - diag).
    far = (r_enum / (r_enum - diag)) ** (d - 1) * a_plus.mass_beyond(r_enum - diag)
    return core + far


@dataclass(frozen=True)
class SearchGrid:
    """Candidate (r, h) pairs for the certificate search.

    h values are tied to r through h_factors: h = factor * r.
    """

    radii: tuple[float, ...]
    h_factors: tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "h_factors", tuple(float(f) for f in self.h_factors))
        for name in ("radii", "h_factors"):
            values = getattr(self, name)
            if not values or not all(0.0 < v < math.inf for v in values):
                raise CertificationError(
                    f"{name} must be a nonempty tuple of finite positive numbers, "
                    f"got {values}"
                )


@dataclass(frozen=True)
class Certificate:
    """A verified-by-construction self-regulation level (omega, theta)."""

    dim: int
    omega: float
    theta: float
    epsilon: float
    h: float
    r: float
    a_r_minus: float
    riemann_sum: float
    g: float
    delta: float
    packing_constant: float
    unit_ball_volume: float
    sup_a_plus: float
    mass_a_plus: float
    provenance: dict = field(default_factory=dict)

    def self_check(self) -> None:
        """Recompute the arithmetic chain from stored fields; raise on mismatch."""
        g = packing_bound(self.dim, self.h, self.r, self.packing_constant)
        delta = max(self.sup_a_plus, (self.mass_a_plus + self.epsilon) * g)
        theta = min(self.omega / (2.0 * delta), self.a_r_minus / delta)
        checks = {
            "unit_ball_volume": (self.unit_ball_volume, unit_ball_volume(self.dim)),
            "g": (self.g, g),
            "delta": (self.delta, delta),
            "theta": (self.theta, theta),
        }
        tol = SELF_CHECK_TOL
        for name, (stored, recomputed) in checks.items():
            if not math.isclose(stored, recomputed, rel_tol=tol, abs_tol=tol):
                raise CertificationError(
                    f"certificate field {name} inconsistent: "
                    f"stored {stored!r}, recomputed {recomputed!r}"
                )
        if not self.riemann_sum <= self.mass_a_plus + self.epsilon:
            raise CertificationError(
                "certificate cell sum exceeds mass + epsilon: "
                f"{self.riemann_sum!r} > {self.mass_a_plus + self.epsilon!r}"
            )
        if self.a_r_minus <= 0.0 or self.theta <= 0.0 or self.omega <= 0.0:
            raise CertificationError("certificate fields must be strictly positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        """Rebuild a certificate from ``to_dict`` output.

        Raises TypeError for a missing, unknown or mistyped field: ``dim`` is
        an int, ``provenance`` a dict, and every other field a real number.
        """
        cert = cls(**data)
        for f in fields(cls):
            value = getattr(cert, f.name)
            kind = {"dim": int, "provenance": dict}.get(f.name, (int, float))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(
                    f"certificate field {f.name} has the wrong type: {value!r}"
                )
        return cert


def certify(
    a_plus: RadialKernel,
    a_minus: RadialKernel,
    omega: float = DEFAULT_OMEGA,
    grid: SearchGrid | None = None,
    tight_packing: bool = True,
) -> Certificate:
    """Search the (r, h) grid for the largest certified theta.

    a_r = a_minus(2r) is read once, as one array over the grid's radii;
    radii where it is 0 are dropped.  omega is an input, not searched; it
    must be strictly positive, since omega = 0 forces theta = 0 and the
    level degenerates.  epsilon is the cell sum's excess over the mass, the
    least sound value; theta only falls as it grows.  ``tight_packing=False``
    uses packing constant 1.0.  Raises CertificationError when no grid point
    sees competition (a_minus vanishes on every probed ball).
    """
    if not (omega > 0.0 and math.isfinite(omega)):
        raise CertificationError(
            f"omega must be strictly positive (omega = 0 forces theta = 0), "
            f"got {omega}"
        )
    if a_plus.dim != a_minus.dim:
        raise CertificationError(
            f"kernel dimensions differ: {a_plus.dim} vs {a_minus.dim}"
        )
    _require_radial_nonincreasing(a_plus, "a_plus")
    _require_radial_nonincreasing(a_minus, "a_minus")
    if grid is None:  # 13 radii log-spaced over [0.01, 10] competition lengths
        char = a_minus.characteristic_radius()
        grid = SearchGrid(np.geomspace(0.01 * char, 10.0 * char, 13))
    dim = a_plus.dim
    packing = TIGHT_PACKING.get(dim, 1.0) if tight_packing else 1.0
    sup_plus = a_plus.sup_norm()
    mass_plus = a_plus.mass()

    # The cell sum is at least the mass, so theta with the mass in its place
    # bounds a grid point's theta from above: rank by that bound and compute
    # cell sums in rank order until no bound beats the best theta found.
    a_rs = a_minus.profile(2.0 * np.array(grid.radii)).tolist()
    candidates = []
    for r, a_r in zip(grid.radii, a_rs):
        if a_r <= 0.0:
            continue
        for hf in grid.h_factors:
            h = hf * r
            g = packing_bound(dim, h, r, packing)
            delta = max(sup_plus, mass_plus * g)
            bound = min(omega / (2.0 * delta), a_r / delta)
            candidates.append((bound, r, h, a_r, g))
    if not candidates:
        raise CertificationError(
            "no competition within reach: a_minus vanishes on every ball "
            "probed by the search grid"
        )
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    provenance = {
        "radii": list(grid.radii),
        "h_factors": list(grid.h_factors),
        "candidates_ranked": len(candidates),
        "tight_packing": bool(tight_packing),
    }
    cell_sum = lru_cache(maxsize=None)(lambda h: riemann_upper_sum(a_plus, h))
    best = None
    for bound, r, h, a_r, g in candidates:
        if best is not None and bound <= best.theta:
            break
        riemann = cell_sum(h)
        # the least epsilon >= 0 with mass + epsilon >= riemann in floats
        eps = max(riemann - mass_plus, 0.0)
        while mass_plus + eps < riemann:
            eps = math.nextafter(eps, math.inf)
        delta = max(sup_plus, (mass_plus + eps) * g)
        theta = min(omega / (2.0 * delta), a_r / delta)
        if best is None or theta > best.theta:
            best = Certificate(
                dim=dim,
                omega=float(omega),
                theta=float(theta),
                epsilon=float(eps),
                h=float(h),
                r=float(r),
                a_r_minus=float(a_r),
                riemann_sum=float(riemann),
                g=float(g),
                delta=float(delta),
                packing_constant=float(packing),
                unit_ball_volume=unit_ball_volume(dim),
                sup_a_plus=float(sup_plus),
                mass_a_plus=float(mass_plus),
                provenance=provenance,
            )
    return best


# -- the certified functional -----------------------------------------------


@lru_cache(maxsize=256)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the unordered pairs of n points, read-only."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _pair_sums_by_size(
    coords: np.ndarray,
    starts: np.ndarray,
    size: int,
    a_plus: RadialKernel,
    a_minus: RadialKernel,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered-pair sums of both kernels over k configurations of one size.

    ``coords`` holds one row per axis of a point array (flat metric), and
    configuration i is its points ``starts[i] .. starts[i] + size - 1``,
    with size >= 2.  Returns (S-, S+), each of shape (k,).

    The (k, pairs) squared lengths are built in one array, the first
    axis's gather: it is differenced and squared in place, and each further
    axis adds its squares into it.  Both kernels read it as it is, with
    ``RadialKernel._profile_sq``.
    """
    iu, ju = _triu(size)
    rows = starts[:, None] + np.arange(size)
    squares = None
    for axis in coords:
        at = axis[rows]
        diff = at[:, iu]
        diff -= at[:, ju]
        diff *= diff
        if squares is None:
            squares = diff
        else:
            squares += diff
    # kernels are even, so ordered sums double the unordered ones
    return (
        2.0 * a_minus._profile_sq(squares).sum(axis=1),
        2.0 * a_plus._profile_sq(squares).sum(axis=1),
    )


def _pair_sums(
    points: np.ndarray,
    sizes: np.ndarray,
    a_plus: RadialKernel,
    a_minus: RadialKernel,
    starts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(S-, S+) per configuration of a ragged batch, one array pass per size.

    Configuration i is the ``sizes[i]`` rows of ``points`` from
    ``starts[i]`` on; without ``starts`` the configurations are stacked in
    order.  Both sums are 0 for fewer than two points.
    """
    if starts is None:
        starts = np.cumsum(sizes) - sizes
    sum_minus = np.zeros(sizes.shape[0])
    sum_plus = np.zeros(sizes.shape[0])
    coords = points.T
    # the sizes present, ascending; np.unique would import numpy.ma
    present = np.flatnonzero(np.bincount(sizes))
    for size in present[present >= 2]:
        group = np.flatnonzero(sizes == size)
        sum_minus[group], sum_plus[group] = _pair_sums_by_size(
            coords, starts[group], int(size), a_plus, a_minus
        )
    return sum_minus, sum_plus


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, dim))
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise CertificationError(
            f"points must have shape (n, {dim}), got {pts.shape}"
        )
    return pts


def u_theta(
    points,
    a_plus: RadialKernel,
    a_minus: RadialKernel,
    omega: float,
    theta: float,
) -> float:
    """The certified functional U on a finite configuration (flat metric)."""
    pts = _as_points(points, a_plus.dim)
    n = pts.shape[0]
    sum_minus, sum_plus = _pair_sums(pts, np.array([n]), a_plus, a_minus)
    return omega * n + float(sum_minus[0]) - theta * float(sum_plus[0])


def u_theta_increment(
    x,
    others,
    a_plus: RadialKernel,
    a_minus: RadialKernel,
    omega: float,
    theta: float,
) -> float:
    """U(others + {x}) - U(others), in closed form.

    Removing one point cancels all pair terms not involving it, leaving
    omega + 2 * (sum a_minus(x - y) - theta * sum a_plus(x - y)) over the
    remaining points y.
    """
    x = np.asarray(x, dtype=float).reshape(a_plus.dim)
    pts = _as_points(others, a_plus.dim)
    if pts.shape[0] == 0:
        return float(omega)
    diff = pts - x
    squares = (diff * diff).sum(axis=1)
    minus = a_minus._profile_sq(squares).sum()
    plus = a_plus._profile_sq(squares).sum()
    return float(omega + 2.0 * (minus - theta * plus))


# -- randomized verification --------------------------------------------------

SAMPLER_NAMES = ("uniform", "poisson", "cluster_competition", "cluster_dispersal")
# The running sums of the verifier's equal sampler weights: 0.25, 0.5, 0.75, 1
SAMPLER_CUM = np.arange(1, len(SAMPLER_NAMES) + 1) / len(SAMPLER_NAMES)

# verify_certificate draws and evaluates trials in blocks of this many; a
# block's largest array holds its trials of one size times that size's pairs
TRIAL_BATCH = 4096


@dataclass(frozen=True)
class ViolationReport:
    """What ``verify_certificate`` found, and the bracket of the best level.

    ``theta_ceiling`` is mass(a-) / mass(a+): no theta above it is valid,
    whatever the verifier drew.  Proof: put N points independently and
    uniformly in a box B of R^d and write phi = a- - theta a+.  Then
    E[U] = omega N + N (N - 1) I(B) / |B|^2, with I(B) the integral of
    phi(x - y) over x and y in B.  As B grows, I(B) / |B| tends to
    mass(a-) - theta mass(a+), which is negative for theta above the
    ceiling; so some box has I(B) < 0, E[U] falls to -inf as N grows, and
    some configuration has U < 0.  The best level thus lies in
    [cert.theta, min(theta_up, theta_ceiling)], and a certified theta above
    the ceiling is a bug.
    """

    trials: int
    size_max: int
    min_u: float  # least U over sampled configurations of two or more points
    theta_up: float  # least theta a sampled configuration refutes
    theta_ceiling: float  # mass(a-) / mass(a+), above which no theta is valid
    n_violations: int
    tolerance: float  # a trial violates when U < -tolerance * (1 + omega |eta|)
    argmin_sampler: str
    argmin_points: np.ndarray
    sampler_mix: dict

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["argmin_points"] = self.argmin_points.tolist()
        out["sampler_mix"] = dict(self.sampler_mix)
        return {**out, "passed": self.passed}


def _draw_block(
    rng: np.random.Generator,
    b: int,
    dim: int,
    size_max: int,
    box: float,
    spread: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw b trials: each one's sampler (an index into ``SAMPLER_NAMES``),
    its size, the row its points start at, and all their points.

    Each trial picks one of the four samplers with equal weight: its
    uniform draw u falls in (0.25 j, 0.25 (j + 1)] for sampler j, and u = 0
    in the first.  Uniform and Poisson trials fill the cube of side ``box``
    centred at the origin; the points of a cluster trial of sampler j are
    normal with standard deviation ``spread[j]``.  The draws come in this
    order: the samplers, the sizes per sampler, one ``uniform`` for the
    points of every box trial and one ``normal`` for those of every cluster
    trial.  The points are stacked by sampler class: the box trials' points
    in trial order, then the cluster trials' points in trial order.
    """
    kind = np.searchsorted(SAMPLER_CUM, rng.random(b))
    sizes = np.empty(b, dtype=np.intp)
    for j, name in enumerate(SAMPLER_NAMES):
        mine = kind == j
        count = int(np.count_nonzero(mine))
        if name == "uniform":
            sizes[mine] = rng.integers(0, size_max + 1, count)
        elif name == "poisson":
            sizes[mine] = np.minimum(rng.poisson(size_max / 2.0, count), size_max)
        else:
            sizes[mine] = rng.integers(2, size_max + 1, count)
    boxed = kind < 2  # uniform and poisson
    box_sizes, cluster_sizes = sizes[boxed], sizes[~boxed]
    n_box = int(box_sizes.sum())
    starts = np.empty(b, dtype=np.intp)
    starts[boxed] = np.cumsum(box_sizes) - box_sizes
    starts[~boxed] = n_box + np.cumsum(cluster_sizes) - cluster_sizes
    pts = np.empty((n_box + int(cluster_sizes.sum()), dim))
    pts[:n_box] = rng.uniform(-box / 2.0, box / 2.0, (n_box, dim))
    clustered = pts[n_box:]
    clustered[...] = rng.normal(0.0, 1.0, clustered.shape)
    clustered *= np.repeat(spread[kind[~boxed]], cluster_sizes)[:, None]
    return kind, sizes, starts, pts


def verify_certificate(
    cert: Certificate,
    a_plus: RadialKernel,
    a_minus: RadialKernel,
    trials: int = DEFAULT_TRIALS,
    size_max: int = DEFAULT_SIZE_MAX,
    *,
    rng: np.random.Generator,
) -> ViolationReport:
    """Randomized search for configurations with U < 0.

    Mixes uniform boxes, Poisson boxes, and adversarial clusters at the
    certificate's crowding scale r and at the dispersal length scale: the
    four ``SAMPLER_NAMES``, with equal weight.  A sound certificate yields
    zero violations; the report keeps the minimizing configuration either
    way.  ``min_u`` and the argmin range over sampled configurations of at
    least two points only: with fewer, U = omega * |eta| >= 0 whatever theta
    is, so the empty set would win for every sound certificate.  ``min_u``
    is inf if no trial drew two points.

    ``theta_up`` is the least (omega |eta| + S-(eta)) / S+(eta) over sampled
    configurations of at least two points with S+ > 0, where S- and S+ are
    the ordered-pair sums of a_minus and a_plus: no theta above it is valid,
    so [cert.theta, theta_up] brackets the best level.  It is inf if no trial
    qualifies.

    Trials run in blocks of at most ``TRIAL_BATCH``, each drawn from the
    required, caller-seeded ``rng`` in the order ``_draw_block`` gives:
    uniform trials have 0..size_max points, Poisson trials a Poisson count
    of mean size_max / 2 truncated at size_max, clusters 2..size_max.  The
    trials of each size are evaluated as one array, so
    ``u_theta(argmin_points)`` matches ``min_u`` to rounding: a vectorised
    ``exp`` may round an element differently at another position in an array.

    Raises CertificationError for fewer than one trial, and for a
    ``size_max`` below 2, which a cluster trial cannot draw.
    """
    if trials < 1:
        raise CertificationError(f"trials must be >= 1, got {trials}")
    if size_max < 2:  # a cluster trial draws 2..size_max points
        raise CertificationError(f"size_max must be >= 2, got {size_max}")

    dim = a_plus.dim
    scale_disp = a_plus.characteristic_radius()
    box = 6.0 * max(cert.r, scale_disp, a_minus.characteristic_radius())
    omega, theta = cert.omega, cert.theta
    spread = np.array([0.0, 0.0, cert.r, scale_disp])  # per SAMPLER_NAMES

    min_u = math.inf
    theta_up = math.inf
    argmin_pts = np.zeros((0, dim))
    argmin_sampler = SAMPLER_NAMES[0]
    n_violations = 0

    for done in range(0, trials, TRIAL_BATCH):
        b = min(TRIAL_BATCH, trials - done)
        kind, sizes, starts, pts = _draw_block(rng, b, dim, size_max, box, spread)
        sum_minus, sum_plus = _pair_sums(pts, sizes, a_plus, a_minus, starts)
        u = omega * sizes + sum_minus - theta * sum_plus
        n_violations += int(np.count_nonzero(u < -VIOLATION_TOL * (1 + omega * sizes)))
        real = np.flatnonzero(sizes >= 2)
        if real.shape[0] == 0:
            continue
        i = real[np.argmin(u[real])]
        if u[i] < min_u:
            min_u = float(u[i])
            start = int(starts[i])
            argmin_pts = pts[start : start + sizes[i]].copy()
            argmin_sampler = SAMPLER_NAMES[kind[i]]
        pos = real[sum_plus[real] > 0.0]
        if pos.shape[0]:
            refuted = (omega * sizes[pos] + sum_minus[pos]) / sum_plus[pos]
            theta_up = min(theta_up, float(refuted.min()))

    return ViolationReport(
        trials=trials,
        size_max=size_max,
        min_u=float(min_u),
        theta_up=theta_up,
        theta_ceiling=a_minus.mass() / a_plus.mass(),
        n_violations=n_violations,
        tolerance=VIOLATION_TOL,
        argmin_sampler=argmin_sampler,
        argmin_points=argmin_pts,
        sampler_mix={name: 1.0 for name in SAMPLER_NAMES},
    )
