import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sbdsim import certificate
from sbdsim.certificate import (
    SAMPLER_NAMES,
    TIGHT_PACKING,
    TRIAL_BATCH,
    Certificate,
    CertificationError,
    SearchGrid,
    certify,
    packing_bound,
    riemann_upper_sum,
    u_theta,
    _draw_block,
    _pair_sums,
    u_theta_increment,
    verify_certificate,
)
from sbdsim.config import load_config, replica_rng
from sbdsim.kernels import exponential, gaussian, tabulated, triangular

TRI = triangular(1.0, 1.0, 1)
GAUSS = gaussian(1.0, 1.0, 1)

# hand evaluation of the chain at (omega=1, h=0.5, r=0.25) for the
# triangular pair: riemann 1.5, so epsilon = 1.5 - 1 = 0.5,
# g = (1/2)((0.5+0.5)/(0.5*0.25)) = 4, delta = max(1, 1.5*4) = 6,
# theta = min(1/12, 0.5/6) = 1/12
HAND_GRID = SearchGrid(radii=(0.25,), h_factors=(2.0,))
HAND_THETA = 1.0 / 12.0


# -- a_minus on the ball of radius 2r ---------------------------------------------


def test_profile_at_twice_r_is_the_triangular_inf_on_the_ball():
    # certify reads a_r = a_minus(2r) off one array profile over its radii;
    # each is the closed form height * max(1 - 2r / radius, 0) bit for bit
    radii = np.array([0.25, 0.75, 0.1, 0.5])
    want = TRI.height * np.clip(1.0 - 2.0 * radii / TRI.radius, 0.0, None)
    assert TRI.profile(2.0 * radii).tobytes() == want.tobytes()
    assert [TRI.profile(2.0 * r) for r in radii] == want.tolist()
    assert TRI.profile(2.0 * 0.25) == 0.5
    assert TRI.profile(2.0 * 0.75) == 0.0


def test_profile_at_twice_r_is_the_gaussian_inf_on_the_ball():
    # the closed form peak * exp(-(2r)^2 / (2 sigma^2)) bit for bit, array
    # and scalar
    radii = np.array([0.5, 0.05, 1.3, 4.0])
    want = GAUSS._peak * np.exp(-((2.0 * radii) ** 2) / (2.0 * GAUSS.sigma**2))
    assert GAUSS.profile(2.0 * radii).tobytes() == want.tobytes()
    assert [GAUSS.profile(2.0 * r) for r in radii] == want.tolist()
    assert GAUSS.profile(2.0 * 0.5) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12
    )
    assert GAUSS.profile(2.0 * 0.5) == pytest.approx(0.241971, abs=1e-6)


# -- riemann_upper_sum ----------------------------------------------------------


def test_riemann_triangular_hand_value():
    # cell sups at h=0.5: 1, 0.5 on each side of the origin
    assert riemann_upper_sum(TRI, 0.5) == pytest.approx(1.5, rel=1e-14)


def test_riemann_gaussian_fine_grid():
    val = riemann_upper_sum(GAUSS, 0.1)
    assert 1.0 <= val <= 1.05


def test_riemann_converges_to_mass():
    for k in (TRI, GAUSS, exponential(1.0, 1.0, 1), gaussian(1.0, 0.5, 2)):
        sums = [riemann_upper_sum(k, h) for h in (0.8, 0.4, 0.2, 0.1, 0.05)]
        assert all(s >= k.mass() - 1e-12 for s in sums)
        assert sums[-1] <= k.mass() * 1.1
        # refinement never increases the upper sum by much; it trends down
        assert sums[-1] <= sums[0] + 1e-12


@given(st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.3, max_value=3.0))
def test_riemann_dominates_mass(h, radius):
    k = triangular(1.0, radius, 1)
    assert riemann_upper_sum(k, h) >= k.mass() - 1e-12


def test_riemann_2d_dominates_mass():
    k = gaussian(1.0, 1.0, 2)
    for h in (1.0, 0.5, 0.25):
        assert riemann_upper_sum(k, h) >= k.mass() - 1e-12
    assert riemann_upper_sum(k, 0.25) < 1.3 * k.mass()


def test_riemann_tabulated_includes_tail_budget():
    # truncated gaussian table: the declared tail mass keeps the sum an upper bound
    g = gaussian(1.0, 1.0, 1)
    r = np.linspace(0.0, 3.0, 301)
    k = tabulated(
        r,
        g.profile(r),
        dim=1,
        tail_sup_bound=float(g.profile(3.0)),
        tail_mass_bound=float(g.mass_beyond(3.0)),
    )
    assert riemann_upper_sum(k, 0.1) >= g.mass() - 1e-9


# -- packing_bound ---------------------------------------------------------------


def test_packing_bound_hand_values():
    assert packing_bound(1, 1.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert packing_bound(2, 1.0, 0.5) == pytest.approx(16.0 / math.pi, rel=1e-14)
    assert packing_bound(2, 1.0, 0.5, TIGHT_PACKING[2]) == pytest.approx(
        16.0 / math.sqrt(12.0), rel=1e-14
    )


def test_packing_bound_rejects_bad_inputs():
    with pytest.raises(CertificationError):
        packing_bound(1, 0.0, 0.5)
    with pytest.raises(CertificationError):
        packing_bound(1, 1.0, -0.1)
    with pytest.raises(CertificationError):
        packing_bound(1, 1.0, 0.5, packing_constant=1.5)


def max_separated_subset(points: np.ndarray, min_dist: float) -> int:
    """Exhaustive maximum subset with pairwise distance >= min_dist."""
    n = len(points)
    ok = np.ones((n, n), dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        ok[i, j] = ok[j, i] = abs(points[i] - points[j]) >= min_dist
    best = 0
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) <= best:
            continue
        if all(ok[i][j] for i, j in itertools.combinations(idx, 2)):
            best = len(idx)
    return best


def test_packing_bound_dominates_brute_force():
    # 100 random point sets in a cell of side h: any r-separated subset obeys
    # the h^d * g_d(h, r) cap from the ball-packing argument
    rng = np.random.default_rng(42)
    for _ in range(100):
        h = float(rng.uniform(0.3, 2.0))
        r = float(rng.uniform(0.05, 0.8))
        pts = rng.uniform(0.0, h, size=rng.integers(1, 13))
        cap = h * packing_bound(1, h, r)
        assert max_separated_subset(pts, 2.0 * r) <= cap + 1e-9


def test_packing_bound_exact_at_extremes():
    # three points {0, 1/2, 1} at exactly 2r = 1/2 apart meet the d=1 cap of 3
    pts = np.array([0.0, 0.5, 1.0])
    assert max_separated_subset(pts, 0.5) == 3
    assert 1.0 * packing_bound(1, 1.0, 0.25) == pytest.approx(3.0)


def square_grid(dim: int, h: float, r: float) -> np.ndarray:
    """Every point of the lattice (2r Z)^dim in the closed cube [0, h]^dim."""
    axis = 2.0 * r * np.arange(int(h / (2.0 * r)) + 2)
    axis = axis[axis <= h]
    return np.stack(np.meshgrid(*[axis] * dim), axis=-1).reshape(-1, dim)


def hexagonal_patch(h: float, r: float) -> np.ndarray:
    """Every point of the hexagonal lattice of spacing 2r in [0, h]^2."""
    rows = math.sqrt(3.0) * r * np.arange(int(h / (math.sqrt(3.0) * r)) + 2)
    cols = 2.0 * r * np.arange(int(h / (2.0 * r)) + 2)
    pts = np.array(
        [(c + r * (k % 2), y) for k, y in enumerate(rows) for c in cols]
    )
    return pts[np.all(pts <= h, axis=1)]


def test_packing_bound_holds_for_lattice_packings():
    # 2r-separated lattice patches in a cube of side h, including the
    # densest ones in d=1 and d=2, never exceed h^d * g(h, r) with the tight
    # packing constant; evenly spaced points in d=1 meet it when 2r divides h
    rng = np.random.default_rng(7)
    radii = rng.uniform(0.05, 1.0, 200)
    pairs = [(float(r * rng.uniform(0.1, 12.0)), float(r)) for r in radii]
    pairs += [(2.0 * r * k, r) for r in (0.1, 0.25, 0.5) for k in range(1, 7)]
    for h, r in pairs:
        patches = [square_grid(d, h, r) for d in (1, 2, 3)] + [hexagonal_patch(h, r)]
        for pts in patches:
            d = pts.shape[1]
            if len(pts) > 1:
                gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
                assert gaps[np.triu_indices(len(pts), 1)].min() >= 2.0 * r * (1 - 1e-12)
            cap = h**d * packing_bound(d, h, r, TIGHT_PACKING[d])
            assert len(pts) <= cap + 1e-9
    assert len(square_grid(1, 3.0, 0.25)) == pytest.approx(
        3.0 * packing_bound(1, 3.0, 0.25, TIGHT_PACKING[1])
    )


# -- certify ---------------------------------------------------------------------


def test_certify_hand_grid_point():
    cert = certify(TRI, TRI, omega=1.0, grid=HAND_GRID)
    assert cert.theta == pytest.approx(HAND_THETA, rel=1e-12)
    assert cert.riemann_sum == pytest.approx(1.5, rel=1e-12)
    assert cert.epsilon == pytest.approx(0.5, rel=1e-12)
    assert cert.g == pytest.approx(4.0, rel=1e-12)
    assert cert.delta == pytest.approx(6.0, rel=1e-12)
    assert cert.a_r_minus == pytest.approx(0.5, rel=1e-12)
    cert.self_check()


def test_certify_default_grid_triangular_pair():
    cert = certify(TRI, TRI, omega=1.0)
    assert cert.theta > 0.0
    # the search maximizes over its own grid, which lands near the hand point
    assert cert.theta >= 0.5 * HAND_THETA
    assert cert.riemann_sum <= TRI.mass() + cert.epsilon + 1e-12
    cert.self_check()


def test_certify_gaussian_pair():
    cert = certify(gaussian(1.0, 2.0, 1), gaussian(0.2, 0.5, 1), omega=1.0)
    assert cert.theta > 0.0
    cert.self_check()


def test_certify_long_dispersal_gaussian_vs_finite_range():
    # dispersal has unbounded support while competition is finite-range, so no
    # pointwise domination a+ <= C a- exists; the certificate must still come out
    cert = certify(GAUSS, TRI, omega=1.0)
    assert cert.theta > 0.0
    assert cert.riemann_sum <= GAUSS.mass() + cert.epsilon + 1e-12
    cert.self_check()


def test_certify_tabulated_triangle_like_the_triangle():
    # the table of the triangle of height 1 and radius 1 ends at zero; its
    # length scale is where its support ends, halved, as the triangle's is,
    # so the default search grid is the triangle's and so is theta
    table = tabulated([0.0, 1.0], [1.0, 0.0], 1)
    assert table.characteristic_radius() == TRI.characteristic_radius() == 0.5
    assert tabulated([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], 1).characteristic_radius() == 0.5
    cert = certify(GAUSS, table, omega=1.0)
    want = certify(GAUSS, TRI, omega=1.0).theta
    assert cert.theta > 0.0 and cert.theta == pytest.approx(want, rel=1e-9)
    assert cert.theta == pytest.approx(0.1005, abs=1e-4)
    cert.self_check()


def test_certify_2d():
    cert = certify(gaussian(1.0, 1.0, 2), triangular(1.0, 1.0, 2), omega=1.0)
    assert cert.theta > 0.0
    cert.self_check()


def test_certify_omega_monotone():
    lo = certify(TRI, TRI, omega=0.5)
    hi = certify(TRI, TRI, omega=2.0)
    assert hi.theta >= lo.theta - 1e-15


def test_certify_rejects_zero_omega():
    with pytest.raises(CertificationError):
        certify(TRI, TRI, omega=0.0)


def test_certify_no_competition_within_reach():
    grid = SearchGrid(radii=(5.0,), h_factors=(1.0,))
    with pytest.raises(CertificationError, match="no competition within reach"):
        certify(TRI, TRI, omega=1.0, grid=grid)


def test_certify_tight_packing_improves_theta_soundly():
    ap = gaussian(1.0, 1.0, 2)
    am = triangular(1.0, 1.0, 2)
    loose = certify(ap, am, omega=1.0, tight_packing=False)
    tight = certify(ap, am, omega=1.0)
    assert (loose.packing_constant, tight.packing_constant) == (1.0, TIGHT_PACKING[2])
    assert loose.theta <= tight.theta + 1e-15
    assert loose.theta >= 0.01811649472994928  # loose theta before epsilon was derived
    rng = np.random.default_rng(3)
    assert verify_certificate(loose, ap, am, trials=2000, rng=rng).passed
    rng = np.random.default_rng(3)
    assert verify_certificate(tight, ap, am, trials=2000, rng=rng).passed


# (label, a_plus, a_minus, theta and cell sums per certify before epsilon
# was derived): the certificate_table and acceptance pairs, and the shipped
# long_dispersal_certificate pair (the gauss/tri row)
CERTIFY_PAIRS = (
    ("tri/tri", triangular(1.0, 1.0), triangular(1.0, 1.0), 0.06152838979337778, 3),
    ("narrow tri/wide tri", triangular(1.0, 0.5), triangular(1.0, 2.0),
     0.10540925533894599, 8),
    ("gauss/tri", gaussian(1.0, 1.0), triangular(1.0, 1.0), 0.08203785305783703, 1),
    ("exp/tri", exponential(1.0, 1.0), triangular(1.0, 1.0), 0.08203785305783703, 1),
    ("gauss/gauss", gaussian(1.0, 2.0), gaussian(0.2, 0.5), 0.018779692635173754, 2),
    ("gauss/tri d=2", gaussian(1.0, 1.0, 2), triangular(1.0, 1.0, 2),
     0.01811649472994928, 1),
    ("competition_1d", gaussian(3.0, 0.5), gaussian(0.5, 0.5), 0.013243281446063716, 2),
)  # fmt: skip


def count_cell_sums(monkeypatch) -> list:
    """Record the h of every riemann_upper_sum call made from here on."""
    calls = []

    def counted(a_plus, h):
        calls.append(h)
        return riemann_upper_sum(a_plus, h)

    monkeypatch.setattr(certificate, "riemann_upper_sum", counted)
    return calls


@pytest.mark.parametrize("pair", CERTIFY_PAIRS, ids=[p[0] for p in CERTIFY_PAIRS])
def test_certify_beats_the_searched_epsilon_with_fewer_cell_sums(monkeypatch, pair):
    _, ap, am, theta_before, sums_before = pair
    calls = count_cell_sums(monkeypatch)
    cert = certify(ap, am, omega=1.0)
    assert cert.theta >= theta_before
    assert len(calls) <= sums_before
    assert len(set(calls)) == len(calls)  # no cell sum computed twice
    cert.self_check()
    # epsilon is the cell sum's excess over the mass, with no tolerance
    assert cert.epsilon == cert.riemann_sum - cert.mass_a_plus
    assert cert.riemann_sum <= cert.mass_a_plus + cert.epsilon
    rep = verify_certificate(cert, ap, am, trials=3000, rng=np.random.default_rng(30))
    assert rep.passed and cert.theta <= rep.theta_up
    assert cert.theta <= rep.theta_ceiling == am.mass() / ap.mass()


def test_shipped_configs_certify_at_least_the_searched_epsilon_theta():
    # theta of each shipped certificate config before epsilon was derived
    before = {
        "long_dispersal_certificate": 0.08203785305783703,
        "competition_1d": 0.013243281446063716,
    }
    root = Path(__file__).resolve().parent.parent / "configs"
    for name, theta_before in before.items():
        cfg = load_config(root / f"{name}.json")
        cert = certify(
            cfg.model.a_plus, cfg.model.a_minus, omega=cfg.omega,
            grid=cfg.cert_grid, tight_packing=cfg.tight_packing,
        )  # fmt: skip
        assert cert.theta >= theta_before
        cert.self_check()
        if name == "long_dispersal_certificate":  # its (r, h) did not move
            assert (cert.r, cert.h) == (0.2811706625951745, 0.562341325190349)


def test_epsilon_is_raised_until_mass_plus_epsilon_reaches_the_cell_sum():
    # here mass + (riemann - mass) rounds below riemann, so epsilon takes
    # the fewest whole ulps more that bring mass + epsilon up to it
    ap = gaussian(0.97, 0.1, 1)
    cert = certify(ap, TRI, omega=1.0, grid=SearchGrid(radii=(0.25,), h_factors=(2.0,)))
    mass, riemann, eps = cert.mass_a_plus, cert.riemann_sum, cert.epsilon
    assert mass + (riemann - mass) < riemann
    assert eps > riemann - mass
    assert mass + math.nextafter(eps, -math.inf) < riemann <= mass + eps
    cert.self_check()


def exhaustive_certify(ap, am, grid, tight_packing=True):
    """The best certificate over every (r, h) of ``grid``, each certified on
    its own, and the set of (r, h) that reach its theta."""
    certs = []
    for r in grid.radii:
        if am.profile(2.0 * r) <= 0.0:
            continue
        for hf in grid.h_factors:
            one = SearchGrid(radii=(r,), h_factors=(hf,))
            certs.append(certify(ap, am, omega=1.0, grid=one, tight_packing=tight_packing))
    theta = max(c.theta for c in certs)
    return theta, {(c.r, c.h) for c in certs if c.theta == theta}


D2_GRID = SearchGrid(radii=np.geomspace(0.05, 2.0, 7), h_factors=(1.0, 2.0))


@pytest.mark.parametrize(
    "ap, am, grid",
    [(ap, am, None) for _, ap, am, *_ in CERTIFY_PAIRS if ap.dim == 1]
    + [(gaussian(1.0, 1.0, 2), triangular(1.0, 1.0, 2), D2_GRID),
       (gaussian(1.0, 0.5, 2), exponential(1.0, 0.5, 2), D2_GRID)],
)  # fmt: skip
def test_lazy_scan_matches_every_grid_point(ap, am, grid):
    if grid is None:  # the default grid, as certify builds it
        char = am.characteristic_radius()
        grid = SearchGrid(np.geomspace(0.01 * char, 10.0 * char, 13))
    cert = certify(ap, am, omega=1.0, grid=grid)
    theta, argmax = exhaustive_certify(ap, am, grid)
    assert cert.theta == theta
    assert (cert.r, cert.h) in argmax
    if ap.dim == 2:
        loose = certify(ap, am, omega=1.0, grid=grid, tight_packing=False)
        assert loose.theta == exhaustive_certify(ap, am, grid, tight_packing=False)[0]
        assert loose.theta <= cert.theta


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([p[1:3] for p in CERTIFY_PAIRS if p[1].dim == 1]),
    st.lists(st.floats(min_value=0.02, max_value=2.0), min_size=1, max_size=6),
    st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=3),
)
def test_lazy_scan_matches_every_point_of_random_grids(pair, radii, h_factors):
    ap, am = pair
    grid = SearchGrid(radii=radii, h_factors=h_factors)
    assume(any(am.profile(2.0 * r) > 0.0 for r in grid.radii))
    cert = certify(ap, am, omega=1.0, grid=grid)
    theta, argmax = exhaustive_certify(ap, am, grid)
    assert cert.theta == theta
    assert (cert.r, cert.h) in argmax


@pytest.mark.parametrize("pair", CERTIFY_PAIRS, ids=[p[0] for p in CERTIFY_PAIRS])
def test_certify_reads_a_minus_once_for_its_whole_grid(monkeypatch, pair):
    # a_r = a_minus(2r) at all 13 radii of the default grid comes from one
    # _profile_sq call on a_minus.  Calls are counted on the instance: the
    # two kernels of tri/tri share a class, and a_plus's sup and cell sums
    # call it too
    _, ap, am, *_ = pair
    shapes = []
    profile_sq = type(am)._profile_sq

    def counted(self, s):
        if self is am:
            shapes.append(s.shape)
        return profile_sq(self, s)

    monkeypatch.setattr(type(am), "_profile_sq", counted)
    certify(ap, am, omega=1.0)
    assert len(shapes) == 1
    assert shapes == [(13,)]


# The certificates of every CERTIFY_PAIRS row with both packing constants,
# of two d=3 pairs, of two pairs on a grid that repeats a radius and of
# three on grids where a_minus vanishes at some radii, last or first: the
# sha256 of their to_dict() as JSON, in this order.  Pinned with numpy's
# exp on x86-64: a host whose exp rounds otherwise may need its own pin
REPEATED_GRID = SearchGrid(radii=(0.3, 0.1, 0.3, 0.05, 0.1), h_factors=(1.0, 0.5, 1.0))
VANISHING_GRIDS = (
    SearchGrid(radii=(0.05, 0.2, 0.5, 0.75, 3.0)),
    SearchGrid(radii=(3.0, 1.2, 0.9, 0.3, 0.04), h_factors=(2.0, 0.25)),
)
PINNED_CERTIFICATES = (
    [(ap, am, None, tight) for _, ap, am, *_ in CERTIFY_PAIRS for tight in (True, False)]
    + [(gaussian(1.0, 1.0, 3), triangular(1.0, 1.0, 3), None, True),
       (exponential(1.0, 1.0, 3), gaussian(1.0, 0.5, 3), None, False),
       (TRI, TRI, REPEATED_GRID, True),
       (gaussian(1.0, 2.0), gaussian(0.2, 0.5), REPEATED_GRID, False),
       (GAUSS, TRI, VANISHING_GRIDS[0], True),
       (triangular(1.0, 0.5), triangular(1.0, 2.0), VANISHING_GRIDS[1], True),
       (exponential(1.0, 1.0, 2), triangular(1.0, 1.0, 2), VANISHING_GRIDS[1], False)]
)  # fmt: skip


def test_certificates_keep_their_floats():
    h = hashlib.sha256()
    for ap, am, grid, tight in PINNED_CERTIFICATES:
        cert = certify(ap, am, omega=1.0, grid=grid, tight_packing=tight)
        h.update(json.dumps(cert.to_dict()).encode())
    assert h.hexdigest() == (
        "07da62ab2109cc7b06f3a2018c51549aa21089d5c21d2ba0ca4882a3a5038bcc"
    )


def test_certificate_roundtrip():
    cert = certify(TRI, TRI, omega=1.0, grid=HAND_GRID)
    again = Certificate.from_dict(cert.to_dict())
    assert again == cert
    again.self_check()


def test_self_check_catches_tampering():
    cert = certify(TRI, TRI, omega=1.0, grid=HAND_GRID)
    for field, value in [
        ("theta", cert.theta * 1.5),
        ("delta", cert.delta * 0.5),
        ("riemann_sum", TRI.mass() + cert.epsilon + 0.1),
        ("a_r_minus", 0.0),
    ]:
        broken = dataclasses.replace(cert, **{field: value})
        with pytest.raises(CertificationError):
            broken.self_check()


# -- the functional U ------------------------------------------------------------


def test_u_theta_trivial_configurations():
    assert u_theta(np.zeros((0, 1)), TRI, TRI, omega=1.0, theta=0.1) == 0.0
    assert u_theta([[0.3]], TRI, TRI, omega=1.0, theta=0.1) == 1.0


def test_u_theta_two_points_closed_form():
    d = 0.4
    got = u_theta([[0.0], [d]], TRI, TRI, omega=1.0, theta=0.1)
    a = TRI.profile(d)
    assert got == pytest.approx(2.0 + 2.0 * a - 0.2 * a, rel=1e-14)


def test_u_theta_increment_empty_is_omega():
    assert u_theta_increment([0.0], np.zeros((0, 1)), TRI, TRI, 1.0, 0.1) == 1.0


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10**6))
def test_telescoping_identity(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, (n, 1))
    omega, theta = 1.0, 0.08
    total = u_theta(pts, TRI, GAUSS, omega, theta)
    acc = 0.0
    remaining = pts.copy()
    while remaining.shape[0] > 0:
        x, remaining = remaining[-1], remaining[:-1]
        acc += u_theta_increment(x, remaining, TRI, GAUSS, omega, theta)
    assert abs(total - acc) <= 1e-10 * (1.0 + abs(total))


def test_max_crowding_increment_nonnegative():
    # claim (b) of the covering argument: at the point with the largest
    # dispersal load, deleting it cannot decrease U under a valid certificate
    cert = certify(TRI, TRI, omega=1.0)
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = rng.integers(2, 25)
        scale = rng.choice([0.05, 0.3, 1.0, 4.0])
        pts = rng.uniform(-scale, scale, (n, 1))
        loads = [
            TRI.profile(np.abs(np.delete(pts, i, axis=0) - pts[i]).ravel()).sum()
            for i in range(n)
        ]
        i_star = int(np.argmax(loads))
        inc = u_theta_increment(
            pts[i_star],
            np.delete(pts, i_star, axis=0),
            TRI,
            TRI,
            cert.omega,
            cert.theta,
        )
        assert inc >= -1e-12 * (1.0 + cert.omega * n)


def test_pair_bound_from_sup_norm():
    # for |eta| = 2, theta <= omega / (2 sup a+) makes U nonnegative at any distance
    omega = 1.0
    theta = omega / (2.0 * GAUSS.sup_norm())
    for d in np.linspace(0.0, 3.0, 50):
        assert u_theta([[0.0], [d]], GAUSS, TRI, omega, theta) >= 0.0


# -- verification harness ---------------------------------------------------------


def test_verify_valid_certificate_clean():
    cert = certify(TRI, TRI, omega=1.0)
    rng = np.random.default_rng(21)
    rep = verify_certificate(cert, TRI, TRI, trials=5000, size_max=25, rng=rng)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.min_u >= 0.0
    assert rep.trials == 5000


def test_verify_detects_inflated_theta():
    cert = certify(TRI, TRI, omega=1.0)
    inflated = dataclasses.replace(
        cert,
        theta=10.0 * cert.a_r_minus / cert.delta + 10.0 * TRI.sup_norm() / TRI.sup_norm(),
    )
    rng = np.random.default_rng(22)
    rep = verify_certificate(inflated, TRI, TRI, trials=5000, size_max=25, rng=rng)
    assert not rep.passed
    assert rep.min_u < 0.0
    # the worst configuration is reported for reproduction
    bad = rep.argmin_points
    assert (
        u_theta(bad, TRI, TRI, cert.omega, inflated.theta)
        == pytest.approx(rep.min_u, rel=1e-12)
    )


def test_verify_zero_theta_zero_omega_never_violates():
    cert = certify(TRI, TRI, omega=1.0)
    degenerate = dataclasses.replace(cert, theta=0.0, omega=0.0)
    rng = np.random.default_rng(23)
    rep = verify_certificate(degenerate, TRI, TRI, trials=2000, size_max=20, rng=rng)
    assert rep.passed


def test_verify_deterministic_given_seed():
    cert = certify(TRI, TRI, omega=1.0)
    reps = [
        verify_certificate(
            cert, TRI, TRI, trials=500, size_max=15, rng=np.random.default_rng(5)
        )
        for _ in range(2)
    ]
    assert reps[0].min_u == reps[1].min_u
    assert reps[0].argmin_sampler == reps[1].argmin_sampler


def test_verify_needs_a_generator():
    # an unseeded default would make the report unreproducible
    cert = certify(TRI, TRI, omega=1.0)
    with pytest.raises(TypeError, match="rng"):
        verify_certificate(cert, TRI, TRI, trials=10)


def test_violation_report_keys_follow_its_fields():
    # violations.json lists the report's fields in order, then passed
    cert = certify(TRI, TRI, omega=1.0)
    rep = verify_certificate(cert, TRI, TRI, trials=50, rng=np.random.default_rng(7))
    keys = [f.name for f in dataclasses.fields(rep)] + ["passed"]
    assert list(rep.to_dict()) == keys == [
        "trials", "size_max", "min_u", "theta_up", "theta_ceiling", "n_violations",
        "tolerance", "argmin_sampler", "argmin_points", "sampler_mix", "passed",
    ]  # fmt: skip
    assert rep.to_dict()["argmin_points"] == rep.argmin_points.tolist()
    assert rep.to_dict()["tolerance"] == 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["radii", "h_factors"])
def test_search_grid_values_must_be_finite_and_positive(name, bad):
    # a NaN radius used to reach riemann_upper_sum and an infinite one to
    # read as "no competition within reach"
    values = {"radii": (0.5,), "h_factors": (1.0,)}
    with pytest.raises(CertificationError, match=f"{name} must be .*finite positive"):
        SearchGrid(**{**values, name: (1.0, bad)})
    with pytest.raises(CertificationError, match=name):
        SearchGrid(**{**values, name: ()})


def test_verify_same_seed_same_report():
    cert = certify(TRI, TRI, omega=1.0)
    reps = [
        verify_certificate(
            cert, TRI, TRI, trials=TRIAL_BATCH + 1, size_max=12,
            rng=np.random.default_rng(6),
        ).to_dict()
        for _ in range(2)
    ]  # fmt: skip
    assert reps[0] == reps[1]


# The reports of the shipped certificate config's verify (its trials, size_max
# and replica_rng(seed, 0), as the CLI draws them) and of two pairs in d = 2
# and 3 over TRIAL_BATCH + 1 trials: the sha256 of their to_dict() as JSON,
# in this order.  Pinned with numpy's exp on x86-64, like the certificates
PINNED_REPORT_PAIRS = (
    (gaussian(1.0, 1.0, 2), triangular(1.0, 1.0, 2), 41),
    (gaussian(1.0, 1.0, 3), triangular(1.0, 1.0, 3), 42),
)


def test_verifier_reports_keep_their_bits():
    cfg = load_config(
        Path(__file__).resolve().parent.parent / "configs/long_dispersal_certificate.json"
    )
    ap, am = cfg.model.a_plus, cfg.model.a_minus
    cert = certify(ap, am, omega=cfg.omega, grid=cfg.cert_grid)
    runs = [(cert, ap, am, cfg.cert_trials, cfg.cert_size_max, replica_rng(cfg.seed, 0))]
    for ap, am, seed in PINNED_REPORT_PAIRS:
        cert = certify(ap, am, omega=1.0)
        runs.append((cert, ap, am, TRIAL_BATCH + 1, 30, np.random.default_rng(seed)))
    h = hashlib.sha256()
    for cert, ap, am, trials, size_max, rng in runs:
        rep = verify_certificate(cert, ap, am, trials, size_max, rng=rng)
        h.update(json.dumps(rep.to_dict()).encode())
    assert h.hexdigest() == (
        "b5ebc7006932896ca762fe0d0b0ad99f6b4c78728a020c575610e344e6d9ddf3"
    )


def verify_blocks(cert, a_plus, a_minus, trials, size_max, rng):
    """Each trial of ``verify_certificate``'s blocks, drawn by ``_draw_block``
    from ``rng`` as the verifier draws them: its points and its own U by
    ``u_theta``."""
    scale_disp = a_plus.characteristic_radius()
    box = 6.0 * max(cert.r, scale_disp, a_minus.characteristic_radius())
    spread = np.array([0.0, 0.0, cert.r, scale_disp])
    for done in range(0, trials, TRIAL_BATCH):
        b = min(TRIAL_BATCH, trials - done)
        _, sizes, starts, pts = _draw_block(rng, b, a_plus.dim, size_max, box, spread)
        for start, size in zip(starts, sizes):
            eta = pts[start : start + size]
            yield eta, u_theta(eta, a_plus, a_minus, cert.omega, cert.theta)


@pytest.mark.parametrize("trials", [1, TRIAL_BATCH, TRIAL_BATCH + 1])
def test_verify_counts_every_trial_across_blocks(trials):
    # at a huge theta most trials violate: the count over every block must
    # be the count of the same draws trial by trial, whatever the block split
    cert = certify(GAUSS, TRI, omega=1.0)
    inflated = dataclasses.replace(cert, theta=1e6)
    rep = verify_certificate(
        inflated, GAUSS, TRI, trials=trials, size_max=6, rng=np.random.default_rng(24)
    )
    tol = rep.tolerance
    want = sum(
        u < -tol * (1 + len(eta))
        for eta, u in verify_blocks(inflated, GAUSS, TRI, trials, 6, np.random.default_rng(24))
    )
    assert rep.trials == trials
    assert rep.n_violations == want
    assert trials == 1 or 0 < want < trials


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_draw_block_keeps_each_sampler_in_its_range(name):
    size_max, box = 7, 3.0
    kind, sizes, starts, pts = _draw_block(
        np.random.default_rng(26), 3000, 2, size_max, box, np.array([0.0, 0.0, 0.5, 0.5])
    )
    assert pts.shape == (sizes.sum(), 2)
    mine = np.flatnonzero(kind == SAMPLER_NAMES.index(name))
    rows = np.concatenate([np.arange(starts[i], starts[i] + sizes[i]) for i in mine])
    sizes, pts = sizes[mine], pts[rows]
    assert sizes.max() == size_max  # Poisson(3.5) passes 7 in about 10% of draws
    if name == "uniform":
        assert sizes.min() == 0
    elif name != "poisson":
        assert sizes.min() == 2
    if name in ("uniform", "poisson"):
        assert (np.abs(pts) <= box / 2.0).all()
    else:
        assert pts.std() == pytest.approx(0.5, rel=0.05)


def test_draw_block_stacks_each_trials_points_by_its_sampler():
    spread = np.array([0.0, 0.0, 1e-3, 1e3])
    kind, sizes, starts, pts = _draw_block(np.random.default_rng(27), 2000, 1, 30, 2.0, spread)
    assert set(kind.tolist()) == {0, 1, 2, 3}
    assert pts.shape == (sizes.sum(), 1)
    # every point belongs to exactly one trial: the box trials' points come
    # first, then the cluster trials', each class in trial order
    boxed = kind < 2
    by_class = np.concatenate([np.flatnonzero(boxed), np.flatnonzero(~boxed)])
    assert np.array_equal(
        starts[by_class], np.cumsum(sizes[by_class]) - sizes[by_class]
    )
    for j, start, size in zip(kind, starts, sizes):
        block = np.abs(pts[start : start + size])
        if j < 2:
            assert (block <= 1.0).all()
        elif j == 2:
            assert (block < 0.01).all()
        else:
            assert size < 2 or block.max() > 1.0


def draw_block_in_trial_order(rng, b, dim, size_max, box, spread):
    """The trial-ordered stacking of ``_draw_block`` by per-point masks: the
    same draws, each trial's points in one run, trials in order."""
    names = SAMPLER_NAMES
    cum = np.cumsum(np.full(len(names), 1.0 / len(names)))
    kind = np.minimum(np.searchsorted(cum, rng.random(b)), len(names) - 1)
    sizes = np.empty(b, dtype=np.intp)
    for j, name in enumerate(names):
        mine = kind == j
        count = int(np.count_nonzero(mine))
        if name == "uniform":
            sizes[mine] = rng.integers(0, size_max + 1, count)
        elif name == "poisson":
            sizes[mine] = np.minimum(rng.poisson(size_max / 2.0, count), size_max)
        else:
            sizes[mine] = rng.integers(2, size_max + 1, count)
    owner = np.repeat(kind, sizes)
    boxed = np.array([n in ("uniform", "poisson") for n in names])[owner]
    pts = np.empty((owner.shape[0], dim))
    pts[boxed] = rng.uniform(-box / 2.0, box / 2.0, (int(np.count_nonzero(boxed)), dim))
    clustered = owner[~boxed]
    pts[~boxed] = rng.normal(0.0, 1.0, (clustered.shape[0], dim)) * spread[clustered, None]
    return kind, sizes, pts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_draw_block_matches_the_trial_ordered_stacking_bit_for_bit(dim):
    spread = np.array([0.0, 0.0, 0.3, 2.5])
    args = (1500, dim, 12, 4.0, spread)
    rng, want_rng = np.random.default_rng(32), np.random.default_rng(32)
    kind, sizes, starts, pts = _draw_block(rng, *args)
    want_kind, want_sizes, want_pts = draw_block_in_trial_order(want_rng, *args)
    # the same draws, in the same order
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array_equal(kind, want_kind) and np.array_equal(sizes, want_sizes)
    assert pts.shape == want_pts.shape
    # each trial's points are its own rows, in its own order, with the same bits
    want_starts = np.cumsum(sizes) - sizes
    rows = np.concatenate([np.arange(s, s + n) for s, n in zip(starts, sizes)])
    want_rows = np.concatenate([np.arange(s, s + n) for s, n in zip(want_starts, sizes)])
    assert np.array_equal(np.sort(rows), np.arange(pts.shape[0]))
    assert np.array_equal(pts[rows].view(np.uint64), want_pts[want_rows].view(np.uint64))
    # so the pair sums read through the starts are those of the trial order
    a_plus, a_minus = KERNELS_BY_DIM[dim]
    got = _pair_sums(pts, sizes, a_plus, a_minus, starts)
    want = _pair_sums(want_pts, sizes, a_plus, a_minus)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_theta_up_brackets_and_is_refuted_at_the_same_draws():
    cert = certify(GAUSS, TRI, omega=1.0)
    rep = verify_certificate(cert, GAUSS, TRI, trials=3000, rng=np.random.default_rng(28))
    assert rep.passed
    assert cert.theta <= rep.theta_up < math.inf
    assert rep.to_dict()["theta_up"] == rep.theta_up
    # the empty set and single points cannot win: U >= 0 on them whatever theta
    assert rep.argmin_points.shape[0] >= 2
    assert cert.theta <= rep.theta_ceiling == rep.to_dict()["theta_ceiling"]
    # the draws do not depend on theta: below theta_up nothing violates, and
    # just above it the configuration that attains it does
    for factor, passed in ((0.999, True), (1.01, False)):
        probe = dataclasses.replace(cert, theta=factor * rep.theta_up)
        again = verify_certificate(
            probe, GAUSS, TRI, trials=3000, rng=np.random.default_rng(28)
        )
        assert again.passed is passed
        assert again.theta_up == rep.theta_up


def test_theta_up_is_inf_without_two_point_trials():
    # one trial of at most two points: over these seeds some draw two points
    # and some fewer; a+ is positive at every length, so every pair counts
    cert = certify(GAUSS, TRI, omega=1.0)
    seen = set()
    for seed in range(20):
        rep = verify_certificate(
            cert, GAUSS, TRI, trials=1, size_max=2, rng=np.random.default_rng(seed)
        )
        [(eta, _)] = verify_blocks(cert, GAUSS, TRI, 1, 2, np.random.default_rng(seed))
        pair = len(eta) == 2
        seen.add(pair)
        assert (rep.theta_up < math.inf) is pair
        assert (rep.min_u < math.inf) is pair
        assert rep.argmin_points.shape == ((2, 1) if pair else (0, 1))
    assert seen == {True, False}


@pytest.mark.parametrize("size_max", [1, 0, -1])
def test_verify_refuses_a_size_max_its_samplers_cannot_draw(size_max):
    # a cluster trial draws 2..size_max points
    cert = certify(TRI, TRI, omega=1.0)
    with pytest.raises(CertificationError, match=f"size_max must be >= 2, got {size_max}"):
        verify_certificate(
            cert, TRI, TRI, trials=10, size_max=size_max, rng=np.random.default_rng(30)
        )


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_refuses_fewer_than_one_trial(trials):
    # no trial drawn is no evidence: it must not read as a passed search
    cert = certify(GAUSS, TRI, omega=1.0)
    with pytest.raises(CertificationError, match=f"trials must be >= 1, got {trials}"):
        verify_certificate(
            cert, GAUSS, TRI, trials=trials, size_max=6, rng=np.random.default_rng(24)
        )


# -- one evaluator for U -------------------------------------------------------

KERNELS_BY_DIM = {d: (gaussian(1.0, 1.0, d), triangular(1.0, 1.0, d)) for d in (1, 2, 3)}


def plain_u(points, a_plus, a_minus, omega, theta):
    """U by a loop over ordered pairs: the reference for the array paths."""
    n = len(points)
    total = omega * n
    for i in range(n):
        for j in range(n):
            if i != j:
                r = math.dist(points[i], points[j])
                total += a_minus.profile(r) - theta * a_plus.profile(r)
    return total


def reference_pair_sums(points, sizes, a_plus, a_minus):
    """(S-, S+) with a fresh array per axis: the reference the in-place
    ``_pair_sums`` must match bit for bit.  Both kernels read the squared
    lengths, as the verifier hands them."""
    starts = np.cumsum(sizes) - sizes
    sum_minus, sum_plus = np.zeros(sizes.shape[0]), np.zeros(sizes.shape[0])
    for size in np.unique(sizes[sizes >= 2]):
        group = np.flatnonzero(sizes == size)
        iu, ju = np.triu_indices(size, 1)
        rows = starts[group][:, None] + np.arange(size)
        sq = 0.0
        for axis in points.T:
            at = axis[rows]
            diff = at[:, iu] - at[:, ju]
            sq = sq + diff * diff
        sum_minus[group] = 2.0 * a_minus._profile_sq(sq).sum(axis=1)
        sum_plus[group] = 2.0 * a_plus._profile_sq(sq).sum(axis=1)
    return sum_minus, sum_plus


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_sums_match_the_per_axis_reference_bit_for_bit(dim):
    # every size 0..30 once (groups of one trial) plus repeated sizes, shuffled
    rng = np.random.default_rng(31)
    sizes = rng.permutation(np.concatenate([np.arange(31), [2] * 5, [7] * 4, [30] * 3]))
    pts = rng.normal(0.0, 1.0, (int(sizes.sum()), dim)) * rng.choice(
        [0.05, 0.5, 2.0], (int(sizes.sum()), 1)
    )
    first = int((np.cumsum(sizes) - sizes)[np.flatnonzero(sizes >= 2)[0]])
    pts[first + 1] = pts[first]  # a distance of exactly 0
    kernels = (
        gaussian(1.0, 0.8, dim),
        triangular(1.5, 1.2, dim),
        exponential(0.7, 0.5, dim),
        tabulated([0.0, 0.4, 1.0, 1.6], [2.0, 1.5, 0.4, 0.0], dim),
    )  # each family once as a+ and once as a-
    for a_plus, a_minus in zip(kernels, kernels[1:] + kernels[:1]):
        got = _pair_sums(pts, sizes, a_plus, a_minus)
        want = reference_pair_sums(pts, sizes, a_plus, a_minus)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.count_nonzero(got[0]) > sizes.shape[0] // 2


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 2, 3)),
    st.one_of(
        st.lists(st.integers(min_value=0, max_value=1), max_size=20),
        st.lists(st.integers(min_value=0, max_value=12), max_size=40),
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_u_matches_u_theta_per_trial(dim, sizes, seed):
    a_plus, a_minus = KERNELS_BY_DIM[dim]
    omega, theta = 1.0, 0.3
    rng = np.random.default_rng(seed)
    sizes = np.array(sizes, dtype=np.intp)
    pts = rng.normal(0.0, 1.0, (int(sizes.sum()), dim)) * rng.choice([0.1, 1.0, 3.0])
    sum_minus, sum_plus = _pair_sums(pts, sizes, a_plus, a_minus)
    batched = omega * sizes + sum_minus - theta * sum_plus
    start = 0
    for size, u in zip(sizes, batched):
        eta = pts[start : start + size]
        start += size
        single = u_theta(eta, a_plus, a_minus, omega, theta)
        assert u == pytest.approx(single, rel=1e-12, abs=1e-12)
        assert single == pytest.approx(
            plain_u(eta, a_plus, a_minus, omega, theta), rel=1e-12, abs=1e-12
        )
