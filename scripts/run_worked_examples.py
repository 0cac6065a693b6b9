#!/usr/bin/env python3
"""Run the three worked examples end to end and print a summary table.

Configurations:
  torus     unit hyperbola z1^2 - z2^2 = 1, trace |v1| = |v2| = 1/2
  interval  same curve, trace z2 in [-1, 1]
  axes      coordinate hyperbola z1 z2 = eps inside the unit bidisk

For each one: directional constants, Robin constants, transfinite
diameters for both orderings, and the sup gap of the extremal-function
surrogates against the known closed form.
"""

import argparse
import math
import time

import numpy as np

from curvecheb import AbsV1V2Torus, BidiskTrace, Z2Interval, sample
from curvecheb.gallery import coordinate_hyperbola, hyperbola
from curvecheb.polyring import BASIS_C, BASIS_S
from curvecheb.chebyshev import SolverOptions, directional_constants
from curvecheb.transfinite import transfinite_diameter
from curvecheb.extremal import probe_points, robin_constants, vk_max


def run_torus(res, n_max, opts):
    curve = hyperbola()
    K = sample(curve, AbsV1V2Torus(0.5, 0.5, resolution=res))
    return curve, K, "max(log+|z1-z2|, log+|z1+z2|)"


def run_interval(res, n_max, opts):
    curve = hyperbola()
    K = sample(curve, Z2Interval(-1.0, 1.0, resolution=res))
    return curve, K, "log|h(z2)|, h the inverse Joukowski map"


def run_axes(res, n_max, opts):
    curve = coordinate_hyperbola(0.25)
    K = sample(curve, BidiskTrace(1.0, 1.0, resolution=res))
    return curve, K, "max(log+|z1|, log+|z2|)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--resolution", type=int, default=1024)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--leja-depth", type=int, default=40)
    args = ap.parse_args()
    opts = SolverOptions(max_iter=400)

    for name, build in [("torus", run_torus), ("interval", run_interval),
                        ("axes", run_axes)]:
        t0 = time.time()
        curve, K, closed_form = build(args.resolution, args.n_max, opts)
        print(f"\n== {name} ({len(K)} sample points) ==")

        if curve.dirbasis is not None:
            ests = directional_constants(curve, K, args.n_max, opts)
            for k, est in enumerate(ests, start=1):
                print(f"  T(K, lam_{k}) = {est.estimate:.6f}"
                      f"   [{est.lower:.6f}, {est.upper:.6f}]")
            dS, _ = transfinite_diameter(curve, K, BASIS_S, args.leja_depth)
            dC, _ = transfinite_diameter(curve, K, BASIS_C, args.leja_depth)
            prod = math.exp(np.mean([math.log(est.estimate) for est in ests]))
            print(f"  diameters: S {dS:.4f}  C {dC:.4f}  product {prod:.4f}")

        directions = [0j, None] if curve.relaxed else None
        rob = robin_constants(curve, K, args.n_max, opts, directions=directions)
        rhos = ", ".join(f"{e.rho:+.5f}" for e in rob.per_direction)
        print(f"  Robin constants: {rhos}  (strictly increasing: {rob.strict})")

        if curve.relaxed:
            ts = 1.8 * np.exp(2j * np.pi * (np.arange(25) + 0.5) / 25)
            pts = np.stack([ts, 0.25 / ts], axis=1)
        else:
            pts = probe_points(curve, [1.5, 2.2, 3.5], 50)
        rep = vk_max(curve, K, args.n_max, pts, opts)
        gap = rep.gap_families if rep.gap_families is not None else float("nan")
        print(f"  extremal families max vs {closed_form}: sup gap {gap:.4f}")
        print(f"  ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
