#!/usr/bin/env python3
"""Ordered-class constants vs directional constants on a random curve.

Draws a seeded valid curve, samples the z1-disk trace, and prints the
descending directional constants next to the ordered-class estimates;
the two columns should agree (they share the same limits).
"""

import argparse
import time

import numpy as np

from curvecheb import Z1Disk, sample
from curvecheb.gallery import random_valid_curve
from curvecheb.chebyshev import (
    SolverOptions,
    descending_direction_order,
    directional_constants,
    ordered_constants,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--radius", type=float, default=1.2)
    ap.add_argument("--resolution", type=int, default=1024)
    ap.add_argument("--n-max", type=int, default=12)
    args = ap.parse_args()

    t0 = time.time()
    curve = random_valid_curve(args.degree, seed=args.seed)
    print("directions:", np.round(curve.directions, 4))
    K = sample(curve, Z1Disk(args.radius, resolution=args.resolution))
    print(f"sampled {len(K)} points on |z1| = {args.radius}")
    opts = SolverOptions(max_iter=300)

    ests = directional_constants(curve, K, args.n_max, opts)
    order = descending_direction_order(curve, ests)
    t_sorted = [ests[i].estimate for i in order]

    print(f"{'rank':>4} {'T(K,lam)':>10} {'T(K,Z(k-1))':>12} {'rel diff':>9}")
    for k, z in enumerate(ordered_constants(curve, K, args.n_max, opts)):
        rel = abs(z.estimate - t_sorted[k]) / t_sorted[k]
        print(f"{k + 1:>4} {t_sorted[k]:>10.5f} {z.estimate:>12.5f} {rel:>9.4f}")
    print(f"analytic value for this trace: {args.radius} for every direction")
    print(f"({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
