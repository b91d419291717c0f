"""Tabulate self-regulation certificates across dispersal regimes.

For each kernel pair the script searches the default grid for the largest
certified theta at omega = 1, then stress-tests the level with randomized
configurations including adversarial clusters.  Each row brackets the best
level as [theta, theta_up]: theta is certified, and theta_up is the least
level that a sampled configuration refutes.  A sound row shows a strictly
positive theta, theta <= theta_up and zero violations.
"""

import argparse
import time

import numpy as np

from sbdsim.certificate import certify, verify_certificate
from sbdsim.kernels import exponential, gaussian, triangular

PAIRS = (
    ("tri/tri", triangular(1.0, 1.0), triangular(1.0, 1.0)),
    ("narrow tri/wide tri", triangular(1.0, 0.5), triangular(1.0, 2.0)),
    ("gauss/tri", gaussian(1.0, 1.0), triangular(1.0, 1.0)),
    ("exp/tri", exponential(1.0, 1.0), triangular(1.0, 1.0)),
    ("gauss/gauss", gaussian(1.0, 2.0), gaussian(0.2, 0.5)),
    ("gauss/tri d=2", gaussian(1.0, 1.0, dim=2), triangular(1.0, 1.0, dim=2)),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20000,
                    help="verification trials per pair")
    ap.add_argument("--size-max", type=int, default=30,
                    help="largest configuration size sampled")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = (f"{'pair':<22}{'[theta, theta_up]':>22}{'epsilon':>10}{'h':>8}{'r':>8}"
              f"{'cell sum':>10}{'viol':>6}{'sec':>7}")
    print(header)
    print("-" * len(header))
    for i, (label, a_plus, a_minus) in enumerate(PAIRS):
        t0 = time.perf_counter()
        cert = certify(a_plus, a_minus, omega=1.0)
        report = verify_certificate(
            cert, a_plus, a_minus,
            trials=args.trials, size_max=args.size_max,
            rng=np.random.default_rng(args.seed + i),
        )
        dt = time.perf_counter() - t0
        bracket = f"[{cert.theta:.6f}, {report.theta_up:.4f}]"
        print(f"{label:<22}{bracket:>22}{cert.epsilon:>10.3f}"
              f"{cert.h:>8.3f}{cert.r:>8.3f}{cert.riemann_sum:>10.4f}"
              f"{report.n_violations:>6d}{dt:>7.1f}")
        if report.n_violations:
            print(f"  min U = {report.min_u:.3e} from {report.argmin_sampler}")


if __name__ == "__main__":
    main()
