import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

import sbdsim
from sbdsim import kernels
from sbdsim.config import FIELDS, KERNEL_FAMILIES
from sbdsim.kernels import (
    TAIL_MASS_FRACTION,
    ExponentialKernel,
    GaussianKernel,
    ImmigrationField,
    KernelError,
    TabulatedKernel,
    TriangularKernel,
    _gamma_q,
    _gamma_q_inv,
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


def shell_integral(r, v, d, lo, hi):
    """Integral of the piecewise-linear table times d c_d u^(d-1) with each
    segment cut to [lo, hi], written out separately for mass and
    mass_beyond, in the endpoint form: the values u at lo and w at hi,
    (hi - lo) sum_k (u (d - k) + w (k + 1)) lo^(d-1-k) hi^k / (d (d + 1))."""
    slopes = np.diff(v) / np.diff(r)
    u = v[:-1] + slopes * (lo - r[:-1])
    terms = sum((u * (d - k) + v[1:] * (k + 1)) * lo ** (d - 1 - k) * hi**k for k in range(d))
    return float(d * unit_ball_volume(d) * ((hi - lo) * terms / (d * (d + 1))).sum())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_short_segment_far_out_integrates_without_cancellation(dim):
    # radii [0, 1000, 1000 + 1e-6] and values [1, 1, 0]: the last segment's
    # integral of profile(s) s^(d-1) is within 1e-12 of its exact value,
    # the difference of the antiderivative (b s^d / d - s^(d+1) / (d + 1)) / h
    # at its ends in rationals; in floats that difference of terms some
    # 1e9 times larger than it cancels its digits
    a, b = Fraction(1000.0), Fraction(1000.0 + 1e-6)

    def anti(s):
        return (b * s**dim / dim - s ** (dim + 1) / (dim + 1)) / (b - a)

    exact = float(anti(b) - anti(a))
    got = tabulated([0.0, 1000.0, 1000.0 + 1e-6], [1.0, 1.0, 0.0], dim=dim)._pieces(0.0)[2][-1]
    assert exact > 0.0 and abs(got - exact) <= 1e-12 * exact


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_tabulated_mass_and_tail_share_one_shell_integral(dim):
    # mass() and mass_beyond() are one integral from a radius; their values
    # equal the integrals written out per segment, bit for bit
    rng = np.random.default_rng(dim)
    for _ in range(75):
        steps = rng.uniform(0.01, 1.0, rng.integers(1, 12))
        r = np.concatenate([[0.0], np.cumsum(steps)])
        v = rng.uniform(0.0, 2.0, r.size)
        v[-1] = 0.0 if rng.random() < 0.5 else v[-1]
        tail = 0.0 if v[-1] == 0.0 else float(rng.uniform(0.1, 1.0))
        k = tabulated(r, v, dim=dim, tail_sup_bound=v[-1], tail_mass_bound=tail)
        mass = shell_integral(r, v, dim, r[:-1], r[1:])
        assert k.mass() == mass
        assert k.mass_beyond(0.0) == k.mass_beyond(-1.0) == mass + tail
        assert k.mass_beyond(r[-1]) == k.mass_beyond(r[-1] + 1.0) == tail
        for radius in rng.uniform(0.0, r[-1], 4):
            lo, hi = np.clip(r[:-1], radius, None), np.clip(r[1:], radius, None)
            assert k.mass_beyond(radius) == shell_integral(r, v, dim, lo, hi) + tail


def test_sup_norms():
    assert gaussian(1.0, 1.0, 1).sup_norm() == pytest.approx(GAUSS_PEAK_1D, rel=1e-15)
    assert triangular(2.0, 5.0, 3).sup_norm() == 2.0
    # normalized exponential in d=1: c/(2 lambda) e^{-|x|/lambda}
    assert exponential(1.0, 2.0, 1).sup_norm() == 0.25


@pytest.mark.parametrize(
    "kernel, peak",
    [
        (gaussian(2.0, 0.5, 2), 2.0 / (2.0 * math.pi * 0.5**2) ** (2 / 2.0)),
        (exponential(2.0, 0.5, 2), 2.0 / (unit_ball_volume(2) * 0.5**2 * math.factorial(2))),
    ],
)
def test_peak_is_cached_per_kernel(kernel, peak):
    r = np.linspace(0.0, 2.0, 9)
    first = kernel.profile(r)
    assert vars(kernel)["_peak"] == kernel.sup_norm() == peak  # the same expression
    np.testing.assert_array_equal(kernel.profile(r), first)
    scaled = kernel.scaled(3.0)  # a new kernel, with its own peak
    np.testing.assert_allclose(scaled.profile(r), 3.0 * first, rtol=1e-15)


# -- pointwise evaluation ----------------------------------------------------


def test_evaluate_examples():
    assert triangular(1.0, 1.0, 1).profile(0.5) == 0.5
    assert gaussian(1.0, 1.0, 1).profile(1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-12
    )
    assert gaussian(1.0, 1.0, 1).profile(1.0) == pytest.approx(0.241971, abs=1e-6)


SEED_CLOSED_FORMS = {  # each family's profile as one expression of fresh arrays
    "gaussian": lambda k, r: k._peak * np.exp(-(r**2) / (2.0 * k.sigma**2)),
    "triangular": lambda k, r: k.height * np.clip(1.0 - r / k.radius, 0.0, None),
    "exponential": lambda k, r: k._peak * np.exp(-r / k.scale),
    "tabulated": lambda k, r: np.interp(r, k.radii, k.values, right=0.0),
}


def test_tabulated_profile_is_np_interp_at_knots_between_and_beyond():
    # _profile_sq calls numpy's compiled interp, not the np.interp wrapper
    # around it: the same floats at the knots, between them, at 0 and
    # beyond the table
    radii = np.array([0.0, 0.1, 0.35, 0.7, 1.3, 2.0])
    values = np.array([2.0, 1.7, 1.7, 0.6, 0.25, 0.0])
    kernel = tabulated(radii, values, dim=2)
    mid = (radii[:-1] + radii[1:]) / 2.0
    rng = np.random.default_rng(6)
    r = np.concatenate([radii, mid, [0.0, 2.0, 2.5, 1e300], rng.random(500) * 2.2])
    want = np.interp(r, radii, values, right=0.0)
    with np.errstate(over="ignore"):  # 1e300 squared
        assert kernel.profile(r).tobytes() == want.tobytes()
    assert kernel.profile(2.5) == 0.0 and kernel.profile(0.0) == 2.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "triangular", "exponential", "tabulated"])
def test_profile_reads_an_array_of_lengths_in_place(family, dim):
    kernel = {
        "gaussian": gaussian(1.5, 0.7, dim),
        "triangular": triangular(2.0, 1.3, dim),
        "exponential": exponential(0.8, 0.4, dim),
        "tabulated": tabulated(*triangle_table(11), dim=dim),
    }[family]
    closed_form = SEED_CLOSED_FORMS[family]
    cut = kernel.cutoff_radius()
    rng = np.random.default_rng(4)
    # r = 0, the support's end, beyond it, and lengths inside and out
    r = np.concatenate(
        [[0.0, cut, 2.0 * cut], np.linspace(0.0, 1.5 * cut, 37), rng.random(3000) * 1.5 * cut]
    )
    grid = r.reshape(4, 760)[:, ::2]  # two axes and a strided view
    for arr in (r, grid):
        before = arr.copy()
        arr.flags.writeable = False  # writing into the input would raise
        got = kernel.profile(arr)
        np.testing.assert_array_equal(arr, before)
        assert got.dtype == float and got.shape == arr.shape and got is not arr
        np.testing.assert_array_equal(got, kernel.profile(before))
        # the seed's expression, bit for bit
        assert np.array_equal(got.view(np.uint64), closed_form(kernel, before).view(np.uint64))
    got = kernel.profile(r)
    scalars = [kernel.profile(x) for x in r[:40]]  # a scalar comes back as a float
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(got[:40], scalars, rtol=1e-15)
    for x in (0.5 * cut, np.float64(0.5 * cut), np.array(0.5 * cut)):
        value = kernel.profile(x)
        assert type(value) is float and value == float(closed_form(kernel, np.asarray(x)))
    for empty in (np.zeros(0), np.zeros((3, 0))):
        got = kernel.profile(empty)
        assert type(got) is np.ndarray and got.shape == empty.shape


SQ_CLOSED_FORMS = {  # each family's profile of the squared length
    "gaussian": lambda k, s: k._peak * np.exp(-s / (2.0 * k.sigma**2)),
    "triangular": lambda k, s: SEED_CLOSED_FORMS["triangular"](k, np.sqrt(s)),
    "exponential": lambda k, s: SEED_CLOSED_FORMS["exponential"](k, np.sqrt(s)),
    "tabulated": lambda k, s: SEED_CLOSED_FORMS["tabulated"](k, np.sqrt(s)),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "triangular", "exponential", "tabulated"])
def test_profile_sq_is_the_profile_of_the_root(family, dim):
    # the point store, the pair walk and the verifier hand a kernel squared
    # lengths: s = fl(x * x) of one coordinate, and sums of two or three
    # such squares in the walk's order, from 0 to beyond the cutoff.
    # _profile_sq reads s in place and gives its family's closed form of s
    # bit for bit, which for every family but the gaussian is the closed
    # form at the root.  Where s is one square the root is |x| exactly, and
    # the gaussian's floats are those of its closed form at |x|.  Where s
    # sums squares, u = 2^-53, the root rounded and squared again is
    # s (1 + e), |e| <= 3 u, and each side rounds its quotient by 2 sigma^2
    # once more, so the exponents differ by at most 5 u s / (2 sigma^2);
    # each side's exp and product with the peak add a few ulp
    kernel = {
        "gaussian": gaussian(1.5, 0.7, dim),
        "triangular": triangular(2.0, 1.3, dim),
        "exponential": exponential(0.8, 0.4, dim),
        "tabulated": tabulated(*triangle_table(11), dim=dim),
    }[family]
    cut = kernel.cutoff_radius()
    x = np.random.default_rng(7 + dim).uniform(-1.2 * cut, 1.2 * cut, (3000, 3))
    x[:2] = 0.0
    x[2, 0], x[3, 0] = cut, -cut
    squares = [x[:, 0] * x[:, 0]]
    for axis in (1, 2):
        squares.append(squares[-1] + x[:, axis] * x[:, axis])
    u = 2.0**-53
    for k, s in enumerate(squares):
        before = s.copy()
        s.flags.writeable = False  # writing into the input would raise
        got = kernel._profile_sq(s)
        assert got is not s and s.tobytes() == before.tobytes()
        assert got.tobytes() == SQ_CLOSED_FORMS[family](kernel, before).tobytes()
        want = SEED_CLOSED_FORMS[family](kernel, np.sqrt(s))
        if family != "gaussian" or not k:
            assert got.tobytes() == want.tobytes()
            continue
        bound = 5.0 * u * s / (2.0 * kernel.sigma**2) + 8.0 * u
        assert (np.abs(got - want) <= bound * want).all()
        assert (got != want).any()  # the bound, not equality, holds them
    # profile(r) is _profile_sq(r * r): the closed form of r bit for bit, at
    # 0, at subnormal lengths whose square is 0, and where the square
    # overflows
    r = np.concatenate([[0.0, 5e-324, 1e-310, 1e300], np.abs(x[:, 0])])
    with np.errstate(over="ignore"):
        want = SEED_CLOSED_FORMS[family](kernel, r)
        assert kernel.profile(r).tobytes() == want.tobytes()
        assert [kernel.profile(v) for v in r[:4]] == want[:4].tolist()
    assert want[0] == want[1] == want[2] == kernel.sup_norm() and want[3] == 0.0


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


@pytest.mark.parametrize("s2", range(1, 9))
def test_gamma_q_matches_scipy(s2):
    # the closed forms agree with scipy's Q(s, x) for s = 1/2, 1, ..., 4
    xs = np.concatenate([np.geomspace(1e-8, 60.0, 400), np.linspace(0.0, 60.0, 241)[1:]])
    got = np.array([_gamma_q(s2, float(x)) for x in xs])
    np.testing.assert_allclose(got, special.gammaincc(s2 / 2.0, xs), rtol=1e-12, atol=0.0)
    assert _gamma_q(s2, 0.0) == 1.0


@pytest.mark.parametrize(
    "kernel, s2",
    [(gaussian(2.0, 0.7, d), d) for d in range(1, 7)]
    + [(exponential(2.0, 0.7, d), 2 * d) for d in range(1, 5)],
)
def test_cutoff_is_least_float_within_tail_budget(kernel, s2):
    z = _gamma_q_inv(s2, TAIL_MASS_FRACTION)
    assert _gamma_q(s2, z) <= TAIL_MASS_FRACTION < _gamma_q(s2, math.nextafter(z, 0.0))
    if isinstance(kernel, ExponentialKernel):
        radius = kernel.scale * z
    else:
        radius = kernel.sigma * math.sqrt(2.0 * z)
    # the radius is raised by the few ulps rounding may cost, and no further
    cutoff, budget = kernel.cutoff_radius(), TAIL_MASS_FRACTION * kernel.weight
    assert radius <= cutoff <= radius + 4.0 * math.ulp(radius)
    assert kernel.mass_beyond(cutoff) <= budget
    if cutoff > radius:
        assert kernel.mass_beyond(math.nextafter(cutoff, 0.0)) > budget


@pytest.mark.parametrize("family", [gaussian, exponential])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cutoff_is_cached_per_kernel(family, dim, monkeypatch):
    # the cutoff is the formula's float, worked out once per instance; a
    # scaled kernel is a new instance and works out its own
    kernel = family(2.0, 0.7, dim)
    formula = type(kernel)._cutoff.func  # the uncached computation
    want = formula(kernel)
    calls = []
    budget = kernels._within_tail_budget
    monkeypatch.setattr(
        kernels, "_within_tail_budget", lambda *a: calls.append(a) or budget(*a)
    )
    assert kernel.cutoff_radius().hex() == want.hex()
    assert kernel.cutoff_radius().hex() == want.hex() and len(calls) == 1
    scaled = kernel.scaled(3.0)
    assert "_cutoff" not in vars(scaled)
    assert scaled.cutoff_radius().hex() == formula(scaled).hex()
    assert len(calls) == 3 and calls[1][0] is calls[2][0] is scaled
    assert kernel.cutoff_radius().hex() == want.hex() and len(calls) == 3


def test_package_does_not_import_scipy():
    # scipy is a test dependency only: importing every module and computing
    # the unbounded kernels' tails must leave it unloaded
    code = """
import importlib, pkgutil, sys
import sbdsim
for info in pkgutil.iter_modules(sbdsim.__path__):
    if info.name != "__main__":
        importlib.import_module("sbdsim." + info.name)
from sbdsim.kernels import exponential, gaussian
for d in (1, 2, 3):
    for k in (gaussian(1.0, 1.0, d), exponential(1.0, 1.0, d)):
        k.mass_beyond(k.cutoff_radius())
        k.mass_beyond(0.5)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sbdsim.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tabulated_rejects_non_finite_radii_and_tail_bounds(bad):
    # an infinite last radius is strictly increasing, and a nan tail bound
    # compares false with 0, so each needs its own finiteness check
    with pytest.raises(KernelError, match="radial grid must be finite"):
        tabulated([0.0, 0.5, bad], [1.0, 0.5, 0.0], dim=1)
    for name in ("tail_sup_bound", "tail_mass_bound"):
        bounds = {"tail_sup_bound": 0.5, "tail_mass_bound": 1.0, name: bad}
        with pytest.raises(KernelError, match="tail bounds must be finite"):
            tabulated([0.0, 1.0], [1.0, 0.5], dim=1, **bounds)


# -- one declaration of each family's parameters -----------------------------

# each family's constructor: its parameters, then dim, then any optional ones
SIGNATURES = {
    "gaussian": ["weight", "sigma", "dim"],
    "triangular": ["height", "radius", "dim"],
    "exponential": ["weight", "scale", "dim"],
    "tabulated": ["radii", "values", "dim", "tail_sup_bound", "tail_mass_bound"],
}
POSITIONAL = {  # distinct values for the parameters, in SIGNATURES order
    "gaussian": (0.7, 1.3, 2),
    "triangular": (2.0, 0.5, 3),
    "exponential": (1.5, 0.25, 2),
    "tabulated": ([0.0, 0.5, 1.0], [2.0, 1.0, 0.5], 3, 0.5, 0.1),
}


def test_lower_case_names_are_the_classes():
    assert gaussian is GaussianKernel
    assert triangular is TriangularKernel
    assert exponential is ExponentialKernel
    assert tabulated is TabulatedKernel
    for family, cls in KERNEL_FAMILIES.items():
        assert getattr(sbdsim.kernels, family) is cls


@pytest.mark.parametrize("family", sorted(SIGNATURES))
def test_families_take_parameters_then_dim_in_config_order(family):
    cls, names, args = KERNEL_FAMILIES[family], SIGNATURES[family], POSITIONAL[family]
    k = names.index("dim")
    params = inspect.signature(cls).parameters
    assert list(params) == names
    defaults = [p.default for p in params.values()]
    assert defaults[: k + 1] == [inspect.Parameter.empty] * k + [1]
    kernel = cls(*args)
    for name, value in zip(names, args):
        np.testing.assert_array_equal(getattr(kernel, name), value)
    data = FIELDS["model.a_plus"].write(kernel)
    assert data["family"] == family and data["dim"] == kernel.dim
    assert list(data["params"]) == names[:k] + names[k + 1 :]
    assert cls(*args[:k], **dict(zip(names[k + 1 :], args[k + 1 :]))).dim == 1


def scaled_per_family(kernel, alpha):
    """``scaled`` as each family wrote it before the base class did."""
    if isinstance(kernel, TabulatedKernel):
        return TabulatedKernel(
            dim=kernel.dim,
            radii=kernel.radii,
            values=kernel.values * alpha,
            tail_sup_bound=kernel.tail_sup_bound * alpha,
            tail_mass_bound=kernel.tail_mass_bound * alpha,
        )
    if isinstance(kernel, TriangularKernel):
        return dataclasses.replace(kernel, height=kernel.height * alpha)
    return dataclasses.replace(kernel, weight=kernel.weight * alpha)


@pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.7, 3.7, 100.0 / 3.0, 1234.5])
@pytest.mark.parametrize("family", sorted(SIGNATURES))
def test_scaled_matches_each_family_s_own_bit_for_bit(family, alpha):
    kernel = KERNEL_FAMILIES[family](*POSITIONAL[family])
    got, want = kernel.scaled(alpha), scaled_per_family(kernel, alpha)
    assert type(got) is type(kernel) and got is not kernel
    for f in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
    r = np.linspace(0.0, 2.0 * kernel.cutoff_radius(), 97)
    np.testing.assert_array_equal(got.profile(r), want.profile(r))
    assert got.profile(r).tolist() != kernel.profile(r).tolist()
    assert (got.mass(), got.sup_norm(), got.tail_sup(), got.mass_beyond(0.3)) == (
        want.mass(), want.sup_norm(), want.tail_sup(), want.mass_beyond(0.3)
    )


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("family", ["gaussian", "triangular", "exponential"])
def test_every_parameter_must_be_positive_and_finite(family, bad):
    names = SIGNATURES[family]
    good = POSITIONAL[family]
    for i, name in enumerate(names[: names.index("dim")]):
        args = list(good)
        args[i] = bad
        with pytest.raises(KernelError, match=f"^{name} must be positive, got {bad}$"):
            KERNEL_FAMILIES[family](*args)


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


def displacements(kernel, rng, n):
    """``n`` single displacements of ``kernel``, one row each."""
    return np.array([kernel.sample_displacement(rng) for _ in range(n)])


def test_gaussian_sampler_variance():
    rng = np.random.default_rng(5)
    draws = displacements(gaussian(1.0, 2.0, 2), rng, 100_000)
    assert draws.shape == (100_000, 2)
    for axis in range(2):
        v = draws[:, axis].var(ddof=1)
        se = v * math.sqrt(2.0 / (draws.shape[0] - 1))
        assert abs(v - 4.0) < 3.0 * se


def test_triangular_sampler_support():
    rng = np.random.default_rng(6)
    draws = displacements(triangular(1.0, 1.0, 2), rng, 20_000)
    assert np.all(np.linalg.norm(draws, axis=1) <= 1.0 + 1e-12)


def test_exponential_sampler_radius_law():
    # radial density r^{d-1} e^{-r/lambda} is Gamma(d, lambda)
    rng = np.random.default_rng(7)
    k = exponential(1.0, 1.5, 2)
    radii = np.linalg.norm(displacements(k, rng, 100_000), axis=1)
    mean, var = radii.mean(), radii.var(ddof=1)
    assert mean == pytest.approx(2 * 1.5, abs=4 * radii.std() / math.sqrt(radii.size))
    assert var == pytest.approx(2 * 1.5**2, rel=0.05)


# a table with an interior flat segment and a trailing zero value
LAW_TABLE = ([0.0, 0.4, 1.0, 1.5, 2.0], [1.0, 0.9, 0.3, 0.3, 0.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["gaussian", "triangular", "exponential", "tabulated"])
def test_displacement_lengths_follow_the_exact_radial_law(family, dim):
    # Kolmogorov-Smirnov of |sample_displacement| against the exact CDF
    # 1 - mass_beyond(s) / mass(); at 20,000 seeded draws a sampler whose
    # CDF is 0.014 off anywhere reads p < 1e-3
    kernel = {
        "gaussian": gaussian(1.0, 0.7, dim),
        "triangular": triangular(1.3, 1.1, dim),
        "exponential": exponential(0.8, 0.6, dim),
        "tabulated": tabulated(*LAW_TABLE, dim=dim),
    }[family]
    rng = np.random.default_rng(80 + dim)
    lengths = np.linalg.norm(displacements(kernel, rng, 20_000), axis=1)
    mass = kernel.mass()

    def cdf(s):
        return np.array([1.0 - kernel.mass_beyond(x) / mass for x in s])

    assert stats.kstest(lengths, cdf).pvalue > 1e-3


class FirstUniform:
    """A generator whose first ``random()`` is ``first`` and whose later
    ones come from a seeded generator; it stops a draw that has not
    returned after 1,000 uniforms."""

    def __init__(self, first):
        self.first, self.rng, self.calls = first, np.random.default_rng(0), 0

    def random(self):
        self.calls += 1
        assert self.calls <= 1000, "the draw did not return"
        return self.first if self.calls == 1 else self.rng.random()


@pytest.mark.parametrize(
    "radii, values, first, segment, dims",
    [
        # the largest uniform below 1 picks the last segment of positive mass
        ([0, 1, 2, 3], [1.0, 0.5, 0.0, 0.0], math.nextafter(1.0, 0.0), (1, 2), (1, 2, 3)),
        # u = 0 passes a leading segment of zero mass
        ([0, 1, 2, 3], [0.0, 0.0, 1.0, 0.0], 0.0, (1, 2), (1, 2, 3)),
        # in d=1 the masses 0.5, 0, 0.5 and 1 are exact, so u = 1/4 lands on
        # the running sum 0.5 at both ends of the interior zero segment
        ([0, 1, 2, 3, 5], [1.0, 0.0, 0.0, 1.0, 0.0], 0.25, (2, 3), (1,)),
    ],
    ids=["trailing", "leading", "interior"],
)
def test_a_segment_of_zero_mass_is_never_drawn(radii, values, first, segment, dims):
    # no candidate on a segment whose profile is 0 is ever accepted; the
    # draw returns, on the next segment of positive mass
    for dim in dims:
        s = tabulated(radii, values, dim=dim).sample_radius(FirstUniform(first))
        assert segment[0] <= s <= segment[1]


def test_sample_displacement_single():
    rng = np.random.default_rng(10)
    x = gaussian(1.0, 1.0, 3).sample_displacement(rng)
    assert x.shape == (3,)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_displacement_draws_the_standard_normal_stream(dim):
    # one rng.normal call gives the floats of standard_normal(d) * sigma and
    # leaves the generator where that left it
    kernel = gaussian(2.0, 0.37, dim)
    new, old = np.random.default_rng(30 + dim), np.random.default_rng(30 + dim)
    for _ in range(20):
        got = kernel.sample_displacement(new)
        want = old.standard_normal(dim) * 0.37
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert new.bit_generator.state == old.bit_generator.state


# sha256 of 3,000 seeded single displacements of each family in d = 1, 2
# and 3, one generator per family, each followed by its generator's state
DISPLACEMENT_DIGESTS = {
    1: "6e9ad7a007471a119516b19f683bbad8db22998d5888d2dc983990ad6c3fb20b",
    2: "0db06176fa1231efba8b642d6fc1289a87f3511b69fbbd61adee0373155319fe",
    3: "8e9cd7ced6ee39f1eaad508496409b9552ca441f6bf4b2bf1251a7bc133b722f",
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seeded_displacements_keep_their_bits(dim):
    families = (
        gaussian(1.0, 0.7, dim),
        triangular(1.3, 1.1, dim),
        exponential(0.8, 0.6, dim),
        tabulated([0.0, 0.4, 1.0, 1.5, 2.0], [1.0, 0.9, 0.3, 0.3, 0.0], dim),
    )
    h = hashlib.sha256()
    for i, kernel in enumerate(families):
        rng = np.random.default_rng(50 + 10 * dim + i)
        for _ in range(3000):
            h.update(kernel.sample_displacement(rng).tobytes())
        h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert h.hexdigest() == DISPLACEMENT_DIGESTS[dim]


def test_uniform_direction_unit_norm():
    rng = np.random.default_rng(11)
    dirs = np.array([uniform_direction(3, rng) for _ in range(1000)])
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)
    assert abs(dirs.mean(axis=0)).max() < 0.05


class ZeroNormals:
    """Stands in for a Generator whose standard normals are zeros of the
    given sign."""

    def __init__(self, zero):
        self.zero = zero

    def standard_normal(self, size):
        return np.full(size, self.zero)


def test_a_d1_direction_is_the_sign_of_its_one_normal_draw():
    # 10^5 seeded draws equal the normal over its norm, bit for bit, from
    # the same stream, and a zero draw of either sign is returned as drawn,
    # as the norm of 0, taken as 1, divides it
    rng = np.random.default_rng(12)
    got = np.array([uniform_direction(1, rng).item(0) for _ in range(10**5)])
    ref = np.random.default_rng(12)
    v = ref.standard_normal(10**5)
    norm = np.sqrt(v * v)
    norm[norm == 0.0] = 1.0
    assert got.tobytes() == (v / norm).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    for zero in (0.0, -0.0):
        d = uniform_direction(1, ZeroNormals(zero))
        assert d.shape == (1,) and d.tobytes() == np.array([zero]).tobytes()


def tabulated_radius_per_call(kernel, rng):
    """``TabulatedKernel.sample_radius`` as written without kept tables:
    every call rebuilds them."""
    d = kernel.dim
    r, v = kernel.radii, kernel.values
    slopes = np.diff(v) / np.diff(r)
    intercepts = v[:-1] - slopes * r[:-1]
    anti = lambda u: intercepts * u**d / d + slopes * u ** (d + 1) / (d + 1)
    cum = np.cumsum(anti(r[1:]) - anti(r[:-1]))
    last = np.searchsorted(cum, cum[-1])
    i = min(np.searchsorted(cum, rng.random() * cum[-1], side="right"), last)
    lo, hi = float(r[i]), float(r[i + 1])
    while True:
        s = (lo**d + rng.random() * (hi**d - lo**d)) ** (1.0 / d)
        if rng.random() * max(v[i], v[i + 1]) < intercepts[i] + slopes[i] * s:
            return s


def immigrant_per_call(grid, side, rng):
    """``ImmigrationField.sample_position`` as written before its tables
    were kept: every draw sums the flattened grid again."""
    flat = grid.ravel()
    total = flat.sum()
    cell = np.searchsorted(np.cumsum(flat), rng.random() * total)
    cell = min(cell, flat.size - 1)
    idx = np.array(np.unravel_index(cell, grid.shape), dtype=float)
    return (idx + rng.random(grid.ndim)) * (side / grid.shape[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_samplers_draw_as_their_per_call_formulas(dim):
    # the tables computed once, and the direction's norm without
    # np.linalg.norm, give the seeded draws of the per-call code bit for bit
    radii, values = [0.0, 0.4, 1.0, 1.5, 2.0], [1.0, 0.9, 0.3, 0.3, 0.0]
    kernel = tabulated(radii, values, dim=dim)
    grid = np.random.default_rng(dim).random((3,) * dim)
    grid.flat[0] = 0.0
    field = ImmigrationField(grid=grid)
    new, old = np.random.default_rng(20 + dim), np.random.default_rng(20 + dim)
    for _ in range(110):
        assert kernel.sample_radius(new) == tabulated_radius_per_call(kernel, old)
        v = old.standard_normal((1, dim))
        want = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert uniform_direction(dim, new).tolist() == want[0].tolist()
    for _ in range(200):
        want = immigrant_per_call(grid, 6.0, old)
        assert field.sample_position(6.0, dim, new).tolist() == want.tolist()


def test_samplers_keep_read_only_copies_of_their_grids():
    # a caller's later write to its own arrays cannot make the kept tables
    # stale, and the kept arrays refuse writes
    radii, values = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0])
    grid = np.array([[0.0, 1.0], [2.0, 3.0]])
    kernel = tabulated(radii, values, dim=2)
    field = ImmigrationField(grid=grid)
    rng = np.random.default_rng(3)
    want_r = [kernel.sample_radius(rng) for _ in range(50)]
    want_x = field.sample_position(4.0, 2, np.random.default_rng(3)).tolist()
    radii[1], values[1], grid[0, 0] = 0.1, 0.0, 9.0
    rng = np.random.default_rng(3)
    assert [kernel.sample_radius(rng) for _ in range(50)] == want_r
    assert field.sample_position(4.0, 2, np.random.default_rng(3)).tolist() == want_x
    for kept in (kernel.radii, kernel.values, field.grid):
        with pytest.raises(ValueError):
            kept[0] = 1.0


# -- immigration field -------------------------------------------------------


def test_immigration_constant():
    f = ImmigrationField(constant=0.5)
    assert f.integral(10.0, 1) == 5.0
    assert f.integral(10.0, 2) == 50.0


def test_immigration_zero_allowed():
    f = ImmigrationField(constant=0.0)
    assert f.integral(10.0, 1) == 0.0


def test_immigration_grid():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = ImmigrationField(grid=g)
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


@pytest.mark.parametrize("grid", [[], [[]], np.zeros((0, 0))])
def test_immigration_grid_needs_a_cell(grid):
    # an empty grid used to divide by its zero extent in ``integral``
    with pytest.raises(KernelError, match="nonzero extent"):
        ImmigrationField(grid=grid)
