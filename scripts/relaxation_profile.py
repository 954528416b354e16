#!/usr/bin/env python3
"""Decay profile of the distance to the corrected weight surface.

Kicks the weight matrix a unit Frobenius norm off the corrected surface
and integrates the full system over a few fast time units.  The distance
should fall like exp(-t/epsilon); the fitted rate per fast time unit is
printed together with the profile.
"""

import argparse

import numpy as np

from fastslow import (
    FullState,
    IntegrationConfig,
    ModelParams,
    attraction_study,
    make_kuramoto,
    slow_manifold,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=5)
    ap.add_argument("--alpha", type=float, default=0.7)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--fast-horizon", type=float, default=6.0,
                    help="integration horizon in units of epsilon")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    omega = rng.uniform(-1.0, 1.0, args.nodes)
    theta0 = rng.uniform(0.0, 2.0 * np.pi, args.nodes)
    params = ModelParams(n_nodes=args.nodes, omega=omega, epsilon=args.epsilon)
    coupling = make_kuramoto(args.alpha)

    surface = slow_manifold(params, coupling, theta0)
    noise = rng.standard_normal((args.nodes, args.nodes))
    noise /= np.linalg.norm(noise)
    state = FullState(theta=theta0, weights=surface + noise)

    config = IntegrationConfig(dt=args.epsilon / 20,
                               t_end=args.fast_horizon * args.epsilon)
    report = attraction_study(params, coupling, state, config)

    print(f"{'fast time':>10}  {'distance':>12}")
    for s, d in zip(report.fast_times, report.distances):
        print(f"{s:10.3f}  {d:12.6e}")
    print(f"fitted rate per fast time unit: "
          f"{report.fitted_rate_per_fast_time:.6f}  "
          f"(window {report.fit_window[0]:.2f}..{report.fit_window[1]:.2f}, "
          f"{report.n_points} points, rms residual {report.residual:.2e})")


if __name__ == "__main__":
    main()
