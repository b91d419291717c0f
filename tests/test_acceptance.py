"""Desk-scale acceptance suite.

Each test exercises one advertised guarantee end to end and prints a single
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines inline; without -s they still reach the terminal through the unbuffered
mirror below.  Every check here is backed by an independent oracle or an exact
closed form, never by a value the code under test produced earlier.
"""

import math
import sys
import time

import numpy as np

from sbdsim.certificate import (
    SAMPLER_NAMES,
    SearchGrid,
    certify,
    riemann_upper_sum,
    u_theta,
    u_theta_increment,
    verify_certificate,
)
from sbdsim.dynamics import ModelSpec, run
from sbdsim.geometry import Torus, TorusConfiguration, Window, sample_poisson
from sbdsim.kernels import ImmigrationField, exponential, gaussian, triangular
from sbdsim.oracles import (
    NormBoundInput,
    norm_bound_bp,
    norm_bound_migration,
    surgailis_density,
)
from sbdsim.statistics import factorial_moments, pair_correlation


def _report(line: str) -> None:
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__, flush=True)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -- 1: certificate existence across dispersal regimes ------------------------

KERNEL_PAIRS = (
    ("short tri/tri", triangular(1.0, 1.0), triangular(1.0, 1.0)),
    ("short narrow/wide", triangular(1.0, 0.5), triangular(1.0, 2.0)),
    ("long gauss/tri", gaussian(1.0, 1.0), triangular(1.0, 1.0)),
    ("long exp/tri", exponential(1.0, 1.0), triangular(1.0, 1.0)),
    ("long gauss/gauss", gaussian(1.0, 2.0), gaussian(0.2, 0.5)),
    ("long gauss/tri d=2", gaussian(1.0, 1.0, dim=2), triangular(1.0, 1.0, dim=2)),
)


def test_01_certificates_across_dispersal_regimes():
    worst = 0.0
    ok = True
    for i, (label, a_plus, a_minus) in enumerate(KERNEL_PAIRS):
        t0 = time.perf_counter()
        cert = certify(a_plus, a_minus, omega=1.0)
        report = verify_certificate(
            cert,
            a_plus,
            a_minus,
            trials=100_000,
            size_max=30,
            rng=np.random.default_rng(1000 + i),
        )
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        pair_ok = (
            cert.omega == 1.0
            and cert.theta > 0.0
            and report.n_violations == 0
            and set(SAMPLER_NAMES) <= set(report.sampler_mix)
            and elapsed <= 120.0
        )
        ok = ok and pair_ok
        if not pair_ok:
            _report(f"  pair {label}: theta={cert.theta:.4g} "
                    f"violations={report.n_violations} time={elapsed:.1f}s")
    _report(
        f"[criterion 01] certificates for 6 kernel pairs, 1e5 adversarial "
        f"trials each: {_verdict(ok)} (max {worst:.1f} s/pair)"
    )
    assert ok


# -- 2: telescoping identity ---------------------------------------------------

def test_02_telescoping_identity():
    a_plus = triangular(1.0, 1.0)
    a_minus = triangular(1.0, 1.0)
    omega, theta = 1.0, 1.0 / 12.0
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            pts = rng.uniform(-3.0, 3.0, (n, 1))
        else:
            pts = rng.normal(0.0, 0.3, (n, 1))  # crowded: large cancellations
        total = 0.0
        for k in range(n):
            total += u_theta_increment(pts[k], pts[:k], a_plus, a_minus, omega, theta)
        u = u_theta(pts, a_plus, a_minus, omega, theta)
        worst = max(worst, abs(u - total) / (1.0 + abs(u)))
    ok = worst <= 1e-10
    _report(
        f"[criterion 02] telescoping identity on 1000 configurations of size "
        f"2-50: {_verdict(ok)} (worst relative gap {worst:.2e})"
    )
    assert ok


# -- 3: upper Riemann sum dominates the mass -----------------------------------

def test_03_riemann_upper_bound():
    tri = triangular(1.0, 1.0)
    hand = riemann_upper_sum(tri, 0.5)
    hand_ok = math.isclose(hand, 1.5, rel_tol=1e-14)

    dominates = True
    for kernel in (tri, gaussian(1.0, 1.0), gaussian(1.0, 2.0),
                   exponential(1.0, 1.0), gaussian(1.0, 1.0, dim=2)):
        for h in (0.05, 0.1, 0.3, 0.5, 1.0):
            if riemann_upper_sum(kernel, h) < kernel.mass() * (1.0 - 1e-12):
                dominates = False

    cert = certify(gaussian(1.0, 1.0), triangular(1.0, 1.0), omega=1.0)
    chosen_ok = cert.riemann_sum <= cert.mass_a_plus + cert.epsilon

    ok = hand_ok and dominates and chosen_ok
    _report(
        f"[criterion 03] cell sums dominate the dispersal mass, hand value "
        f"1.5 at h=0.5: {_verdict(ok)} (got {hand:.15g})"
    )
    assert ok


# -- 4: free migration stays Poisson with the predicted density -----------------

def test_04_free_migration_density_and_dispersion():
    t0 = time.perf_counter()
    torus = Torus(20.0, 1)
    spec = ModelSpec("migration", a_minus=None, m=0.0, b=ImmigrationField(constant=0.5))
    rng = np.random.default_rng(4)
    densities = []
    counts = []
    for _ in range(200):
        cfg = sample_poisson(torus, 1.0, rng)
        trace = run(spec, cfg, t_end=2.0, rng=rng, snapshot_times=(2.0,))
        pts = trace.snapshots[0].positions
        densities.append(pts.shape[0] / torus.volume)
        counts.extend(
            Window((float(i),), (float(i + 1),)).count(pts) for i in range(20)
        )
    densities = np.array(densities)
    mean = densities.mean()
    se = densities.std(ddof=1) / math.sqrt(densities.size)
    expected = surgailis_density(rho0=1.0, b=0.5, m=0.0, t=2.0)
    counts = np.array(counts, dtype=float)
    dispersion = counts.var(ddof=1) / counts.mean()
    elapsed = time.perf_counter() - t0

    density_ok = abs(mean - expected) <= 3.0 * se and expected == 2.0
    dispersion_ok = 0.9 <= dispersion <= 1.1
    ok = density_ok and dispersion_ok and elapsed <= 120.0
    _report(
        f"[criterion 04] free migration at t=2: density {mean:.3f} vs 2.0 "
        f"(3 SE {3 * se:.3f}), window dispersion {dispersion:.3f}: "
        f"{_verdict(ok)} ({elapsed:.0f} s)"
    )
    assert ok


# -- 5: migration equilibrium density b/m ---------------------------------------

def test_05_migration_equilibrium_density():
    torus = Torus(20.0, 1)
    spec = ModelSpec("migration", a_minus=None, m=2.0, b=ImmigrationField(constant=1.0))
    rng = np.random.default_rng(5)
    densities = []
    for _ in range(200):
        cfg = TorusConfiguration(torus)  # start empty, relax to b/m
        trace = run(spec, cfg, t_end=10.0, rng=rng, snapshot_times=(10.0,))
        densities.append(trace.snapshots[0].size / torus.volume)
    densities = np.array(densities)
    mean = densities.mean()
    se = densities.std(ddof=1) / math.sqrt(densities.size)
    ok = abs(mean - 0.5) <= 3.0 * se
    _report(
        f"[criterion 05] migration equilibrium density {mean:.3f} vs b/m=0.5 "
        f"(3 SE {3 * se:.3f}): {_verdict(ok)}"
    )
    assert ok


# -- 6: subcritical contact model dies out ---------------------------------------

def test_06_contact_model_extinction():
    a_plus = triangular(2.0, 1.0)  # mass 2, so m = 3 and t_end = 10
    mass = a_plus.mass()
    spec = ModelSpec("bolker_pacala", a_plus=a_plus, a_minus=None, m=1.5 * mass)
    torus = Torus(10.0, 1)
    rng = np.random.default_rng(6)
    extinct = 0
    for _ in range(200):
        cfg = TorusConfiguration(torus, rng.uniform(0.0, torus.side, (10, 1)))
        trace = run(spec, cfg, t_end=20.0 / mass, rng=rng)
        extinct += trace.final_population == 0
    frac = extinct / 200.0
    ok = frac >= 0.95
    _report(
        f"[criterion 06] contact model with m = 1.5 mass: extinction fraction "
        f"{frac:.3f} by t = 20/mass: {_verdict(ok)}"
    )
    assert ok


# -- 7: competition keeps pairs Poisson-like, its absence clusters ----------------

def _pair_ratio_series(spec, torus, rho0, times, replicas, rng):
    """F2/F1^2 of the full-box count at each time, with the raw F2 series."""
    window = Window((0.0,), (torus.side,))
    per_time = {t: [] for t in times}
    for _ in range(replicas):
        cfg = sample_poisson(torus, rho0, rng)
        trace = run(spec, cfg, t_end=max(times), rng=rng, snapshot_times=times)
        for snap in trace.snapshots:
            per_time[snap.time].append(snap.positions)
    ratios, raw_f2 = {}, {}
    for t in times:
        (f1, _), (f2, _) = factorial_moments(per_time[t], window, 2)
        ratios[t] = f2 / f1**2
        raw_f2[t] = f2
    return ratios, raw_f2


def test_07_clustering_dichotomy():
    t0 = time.perf_counter()
    torus = Torus(10.0, 1)
    disp = gaussian(1.0, 0.5)
    comp = gaussian(1.0, 0.5)
    times = (2.0, 4.0)

    reg = ModelSpec("bolker_pacala", a_plus=disp, a_minus=comp, m=0.0)
    ratios, _ = _pair_ratio_series(reg, torus, 1.0, times, 100,
                                   np.random.default_rng(7))
    factor = ratios[4.0] / ratios[2.0]
    plateau_ok = 0.5 <= factor <= 2.0

    free = ModelSpec("bolker_pacala", a_plus=disp, a_minus=None, m=0.0)
    _, raw_f2 = _pair_ratio_series(free, torus, 1.0, times, 100,
                                   np.random.default_rng(70))
    growth = raw_f2[4.0] / raw_f2[2.0]
    cluster_ok = growth >= 3.0

    elapsed = time.perf_counter() - t0
    ok = plateau_ok and cluster_ok and elapsed <= 600.0
    _report(
        f"[criterion 07] pair-moment plateau with competition (factor "
        f"{factor:.2f} over [2,4]) vs growth without ({growth:.0f}x): "
        f"{_verdict(ok)} ({elapsed:.0f} s)"
    )
    assert ok


# -- 8: migration with competition keeps factorial moments bounded -----------------

def test_08_migration_moment_bound():
    torus = Torus(10.0, 1)
    spec = ModelSpec(
        "migration", a_minus=triangular(1.0, 1.0), m=0.5,
        b=ImmigrationField(constant=1.0),
    )
    early = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    times = early + (12.0,)
    window = Window((0.0,), (5.0,))
    rng = np.random.default_rng(8)
    per_time = {t: [] for t in times}
    for _ in range(100):
        cfg = TorusConfiguration(torus)
        trace = run(spec, cfg, t_end=12.0, rng=rng, snapshot_times=times)
        for snap in trace.snapshots:
            per_time[snap.time].append(snap.positions)
    moments = {t: factorial_moments(per_time[t], window, 3) for t in times}
    ok = True
    lines = []
    for n in range(1, 4):
        peak = max(moments[t][n - 1][0] for t in early)
        late, late_se = moments[12.0][n - 1]
        bound = 1.25 * peak + 3.0 * late_se
        lines.append(f"F{n}: {late:.3g} <= {bound:.3g}")
        ok = ok and late <= bound
    _report(
        f"[criterion 08] migration with competition, orders 1-3 at 2t vs "
        f"peak up to t ({'; '.join(lines)}): {_verdict(ok)}"
    )
    assert ok


# -- 9: generator norm bounds at unit inputs ---------------------------------------

def test_09_norm_bound_hand_values():
    inp = NormBoundInput(
        theta=0.0, theta_prime=1.0,
        mass_a_plus=1.0, mass_a_minus=1.0,
        sup_a_plus=1.0, sup_a_minus=1.0, sup_b=1.0,
    )
    bp = norm_bound_bp(inp)
    mig = norm_bound_migration(inp)
    e = math.e
    bp_hand = 8.0 / e**2 + (1.0 + e) / e
    mig_hand = 4.0 / e**2 + (1.0 + e) / e
    exact_ok = abs(bp - bp_hand) <= 1e-5 and abs(mig - mig_hand) <= 1e-5
    # five-decimal hand roundings of the same expressions agree to 1e-4
    rounded_ok = abs(bp - 2.45049) <= 1e-4 and abs(mig - 1.90919) <= 1e-4
    ok = exact_ok and rounded_ok
    _report(
        f"[criterion 09] generator norm bounds at unit inputs: {bp:.6f} and "
        f"{mig:.6f} vs hand values: {_verdict(ok)}"
    )
    assert ok


# -- 10: Poisson sampler baselines ---------------------------------------------------

def test_10_poisson_baselines():
    rng = np.random.default_rng(10)
    torus = Torus(20.0, 1)
    reps = [sample_poisson(torus, 1.0, rng).by_id()[1] for _ in range(200)]
    pc = pair_correlation(reps, torus, n_bins=20)
    dev = np.abs(pc.g - 1.0)
    flat_ok = bool(np.all(dev < 4.0 * pc.se))

    small = Torus(10.0, 1)
    window = Window((0.0,), (2.0,))  # kappa V = 4
    counts_reps = [
        sample_poisson(small, 2.0, rng).by_id()[1] for _ in range(1000)
    ]
    fm = factorial_moments(counts_reps, window, 3)
    moment_ok = all(
        abs(mean - 4.0**n) <= 3.0 * se for n, (mean, se) in enumerate(fm, start=1)
    )
    ok = flat_ok and moment_ok
    _report(
        f"[criterion 10] Poisson baselines: pair correlation flat over 20 "
        f"bins (max |g-1| {dev.max():.3f}), factorial moments at (kappa V)^n "
        f"for n<=3: {_verdict(ok)}"
    )
    assert ok
