"""Closed-form reference solutions and explicit operator-norm bounds.

These are the independent checks the simulator is held against: exactly
solvable density evolutions for special parameter choices, and the explicit
bounds on the evolution generator in the scale of weighted spaces indexed by
an exponent theta (correlation functions bounded by C * exp(theta * n) in
the order n).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields


class OracleError(ValueError):
    pass


def surgailis_density(rho0: float, b: float, m: float, t: float) -> float:
    """Density at time t for immigration at rate b and pure death at rate m.

    With no pairwise interaction the density solves rho' = b - m rho:
    linear growth rho0 + b t when m = 0, relaxation to b/m otherwise.
    The time-t law of the field stays Poisson when started from Poisson.
    """
    if rho0 < 0.0 or b < 0.0 or m < 0.0 or t < 0.0:
        raise OracleError("rho0, b, m, t must all be nonnegative")
    if m == 0.0:
        return rho0 + b * t
    return b / m + (rho0 - b / m) * math.exp(-m * t)


def bp_meanfield_density(
    rho0: float, mass_a_plus: float, mass_a_minus: float, m: float, t: float
) -> float:
    """Mean-field (logistic) density for the branching-with-competition model.

    Solves rho' = (mass_a_plus - m) rho - mass_a_minus rho^2 exactly.  This
    ignores spatial correlations, so simulations only track it approximately;
    it pins down the scale of the stationary density.
    """
    if rho0 < 0.0 or mass_a_plus < 0.0 or mass_a_minus < 0.0 or m < 0.0 or t < 0.0:
        raise OracleError("all oracle inputs must be nonnegative")
    if rho0 == 0.0:
        return 0.0
    growth = mass_a_plus - m
    if mass_a_minus == 0.0:
        return rho0 * math.exp(growth * t)
    if growth == 0.0:
        return rho0 / (1.0 + mass_a_minus * rho0 * t)
    if growth > 0.0:
        # divide through by e^{growth t} so large times underflow to the
        # carrying capacity instead of overflowing
        e = math.exp(-growth * t)
        return growth * rho0 / (growth * e + mass_a_minus * rho0 * (1.0 - e))
    e = math.exp(growth * t)
    return growth * rho0 * e / (growth + mass_a_minus * rho0 * (e - 1.0))


@dataclass(frozen=True)
class NormBoundInput:
    """Functionals entering the generator norm bounds.

    theta indexes the domain space and theta_prime > theta the target space;
    the bound degrades as the gap closes.  Unused fields may stay at 0.
    """

    theta: float
    theta_prime: float
    mass_a_plus: float = 0.0
    mass_a_minus: float = 0.0
    sup_a_plus: float = 0.0
    sup_a_minus: float = 0.0
    sup_b: float = 0.0

    def __post_init__(self):
        if not (self.theta_prime > self.theta):
            raise OracleError(
                f"need theta_prime > theta, got {self.theta_prime} <= {self.theta}"
            )
        for f in fields(self):  # the functionals: the fields that default to 0
            if f.default is not MISSING and getattr(self, f.name) < 0.0:
                raise OracleError(f"{f.name} must be nonnegative")


def norm_bound_bp(inp: NormBoundInput) -> float:
    """Explicit bound on the branching-with-competition generator norm between
    the theta and theta_prime spaces."""
    gap = inp.theta_prime - inp.theta
    e = math.e
    return 4.0 * (inp.sup_a_plus + inp.sup_a_minus) / (e**2 * gap**2) + (
        inp.mass_a_plus + inp.mass_a_minus * math.exp(inp.theta_prime)
    ) / (e * gap)


def norm_bound_migration(inp: NormBoundInput) -> float:
    """Explicit bound on the immigration-model generator norm between the
    theta and theta_prime spaces."""
    gap = inp.theta_prime - inp.theta
    e = math.e
    return 4.0 * inp.sup_a_minus / (e**2 * gap**2) + (
        inp.sup_b * math.exp(-inp.theta)
        + inp.mass_a_minus * math.exp(inp.theta_prime)
    ) / (e * gap)

