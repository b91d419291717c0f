import math

import numpy as np
import pytest

from sbdsim.oracles import (
    NormBoundInput,
    OracleError,
    bp_meanfield_density,
    norm_bound_bp,
    norm_bound_migration,
    surgailis_density,
)

E = math.e

# hand evaluations of the two bound formulas at unit inputs, gap 1:
#   branching: 4*(1+1)/e^2 + (1 + 1*e)/e
#   migration: 4*1/e^2 + (1*1 + 1*e)/e
BP_UNIT_BOUND = 8.0 / E**2 + (1.0 + E) / E
MIGRATION_UNIT_BOUND = 4.0 / E**2 + (1.0 + E) / E


def test_surgailis_linear_growth():
    assert surgailis_density(1.0, 0.5, 0.0, 2.0) == 2.0
    assert surgailis_density(0.0, 0.5, 0.0, 0.0) == 0.0


def test_surgailis_equilibrium():
    assert surgailis_density(3.0, 1.0, 2.0, 200.0) == pytest.approx(0.5, abs=1e-12)
    # starting at the fixed point stays there
    assert surgailis_density(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_surgailis_ode_residual():
    # central-difference residual of rho' = b - m rho on a time grid
    b, m, rho0 = 0.7, 1.3, 2.0
    ts = np.linspace(0.1, 5.0, 200)
    dt = 1e-6
    for t in ts:
        lo = surgailis_density(rho0, b, m, t - dt)
        hi = surgailis_density(rho0, b, m, t + dt)
        rho = surgailis_density(rho0, b, m, t)
        assert abs((hi - lo) / (2 * dt) - (b - m * rho)) < 1e-6
    # exact derivative check at machine precision via the closed form
    t = 1.7
    rho = surgailis_density(rho0, b, m, t)
    exact_rate = -m * (rho0 - b / m) * math.exp(-m * t)
    assert abs(exact_rate - (b - m * rho)) < 1e-10


def test_surgailis_rejects_negative():
    with pytest.raises(OracleError):
        surgailis_density(-1.0, 0.5, 0.0, 1.0)
    with pytest.raises(OracleError):
        surgailis_density(1.0, 0.5, 0.0, -1.0)


def test_meanfield_equilibrium():
    assert bp_meanfield_density(0.3, 2.0, 1.0, 1.0, 500.0) == pytest.approx(1.0)
    assert bp_meanfield_density(5.0, 2.0, 1.0, 1.0, 500.0) == pytest.approx(1.0)


def test_meanfield_pure_growth():
    # no competition, no mortality: exponential with rate mass_a_plus
    for t in (0.0, 0.5, 2.0):
        assert bp_meanfield_density(1.5, 2.0, 0.0, 0.0, t) == pytest.approx(
            1.5 * math.exp(2.0 * t)
        )


def test_meanfield_subcritical_dies():
    assert bp_meanfield_density(1.0, 1.0, 0.5, 2.0, 100.0) < 1e-12
    assert bp_meanfield_density(1.0, 1.0, 0.0, 2.0, 100.0) < 1e-12


def test_meanfield_zero_start_stays_zero():
    assert bp_meanfield_density(0.0, 3.0, 1.0, 0.0, 10.0) == 0.0


def test_meanfield_monotone_in_competition():
    masses = [0.0, 0.2, 0.5, 1.0, 3.0]
    for t in (0.5, 2.0, 10.0):
        vals = [bp_meanfield_density(1.0, 2.0, am, 0.5, t) for am in masses]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_norm_bound_bp_unit_inputs():
    inp = NormBoundInput(
        theta=0.0,
        theta_prime=1.0,
        mass_a_plus=1.0,
        mass_a_minus=1.0,
        sup_a_plus=1.0,
        sup_a_minus=1.0,
    )
    val = norm_bound_bp(inp)
    assert val == pytest.approx(BP_UNIT_BOUND, abs=1e-15)
    assert val == pytest.approx(2.450561707064344, abs=1e-12)


def test_norm_bound_migration_unit_inputs():
    inp = NormBoundInput(
        theta=0.0,
        theta_prime=1.0,
        mass_a_minus=1.0,
        sup_a_minus=1.0,
        sup_b=1.0,
    )
    val = norm_bound_migration(inp)
    assert val == pytest.approx(MIGRATION_UNIT_BOUND, abs=1e-15)
    assert val == pytest.approx(1.9092205741178931, abs=1e-12)


def test_norm_bounds_zero_kernels():
    inp = NormBoundInput(theta=0.0, theta_prime=1.0)
    assert norm_bound_bp(inp) == 0.0
    assert norm_bound_migration(inp) == 0.0


def test_norm_bounds_diverge_as_gap_closes():
    gaps = [1.0, 0.1, 0.01, 0.001]
    bp_vals = []
    mig_vals = []
    for gap in gaps:
        inp = NormBoundInput(
            theta=0.0,
            theta_prime=gap,
            mass_a_plus=1.0,
            mass_a_minus=1.0,
            sup_a_plus=1.0,
            sup_a_minus=1.0,
            sup_b=1.0,
        )
        bp_vals.append(norm_bound_bp(inp))
        mig_vals.append(norm_bound_migration(inp))
    assert all(a < b for a, b in zip(bp_vals, bp_vals[1:]))
    assert all(a < b for a, b in zip(mig_vals, mig_vals[1:]))
    assert bp_vals[-1] > 1e5 and mig_vals[-1] > 1e5


def test_norm_bound_decreasing_in_gap_at_fixed_theta():
    # widen the gap by raising theta_prime far beyond the e^{theta'} pole region:
    # the 1/gap terms shrink but e^{theta'} grows, so restrict the scan to the
    # regime where the pole dominates
    inp_narrow = NormBoundInput(theta=0.0, theta_prime=0.05, mass_a_minus=1.0, sup_a_minus=1.0, sup_b=1.0)
    inp_wide = NormBoundInput(theta=0.0, theta_prime=0.5, mass_a_minus=1.0, sup_a_minus=1.0, sup_b=1.0)
    assert norm_bound_migration(inp_wide) < norm_bound_migration(inp_narrow)


def test_norm_bound_theta_enters_exponentially():
    # the migration bound depends on theta only through e^{-theta} and the gap
    inp = NormBoundInput(theta=1.0, theta_prime=2.0, mass_a_minus=1.0, sup_a_minus=1.0, sup_b=1.0)
    gap = 1.0
    expected = 4.0 / (E**2 * gap**2) + (math.exp(-1.0) + math.exp(2.0)) / (E * gap)
    assert norm_bound_migration(inp) == pytest.approx(expected, abs=1e-14)


def test_norm_bound_rejects_bad_gap():
    with pytest.raises(OracleError):
        NormBoundInput(theta=1.0, theta_prime=1.0)
    with pytest.raises(OracleError):
        NormBoundInput(theta=1.0, theta_prime=0.5)
    with pytest.raises(OracleError):
        NormBoundInput(theta=0.0, theta_prime=1.0, mass_a_plus=-0.1)

