#!/usr/bin/env python3
"""Interior-point health on near-degenerate minimax problems.

Runs 420 solves with max_iter 300:
- MQ(v_k), k = 1..3, n = 1..10, on random_valid_curve(3, 7) and (3, 11),
  over the z1-disk traces r = 0.8, 1.2, 1.6 at resolution 1024, where many
  sample points are active at the optimum;
- MQ(v1), MQ(v2), Zk(0), Zk(1), n = 1..20, on the hyperbola over the
  |v1| = |v2| = 1/2 torus, the interval z2 in [-1, 1] and the r = 1.3
  z1-disk at resolution 512.

Prints one line per set and a total, and exits 1 on any unconverged
solve, a worst relative gap above TOL, or more than MAX_TOTAL_ITERS
interior-point iterations in all; an exception also exits 1.
"""

import sys
import time

from curvecheb import AbsV1V2Torus, Z1Disk, Z2Interval, sample
from curvecheb.chebyshev import MQ, SolverOptions, Zk, chebyshev_sequence
from curvecheb.gallery import hyperbola, random_valid_curve

TOL = 1e-8
MAX_TOTAL_ITERS = 4900


def cases():
    """(label, curve, set descriptor, class specs, n_max) of every sequence group."""
    for seed in (7, 11):
        curve = random_valid_curve(3, seed=seed)
        for r in (0.8, 1.2, 1.6):
            yield (f"cubic seed {seed}, z1-disk r {r}", curve, Z1Disk(r, resolution=1024),
                   [MQ(v) for v in curve.dirbasis], 10)
    hyp = hyperbola()
    specs = [MQ(hyp.dirbasis[0]), MQ(hyp.dirbasis[1]), Zk(0), Zk(1)]
    for label, desc in (("torus", AbsV1V2Torus(0.5, 0.5, resolution=512)),
                        ("interval", Z2Interval(-1.0, 1.0, resolution=512)),
                        ("z1-disk r 1.3", Z1Disk(1.3, resolution=512))):
        yield f"hyperbola, {label}", hyp, desc, specs, 20


def main():
    opts = SolverOptions(max_iter=300, tol=TOL)
    t0 = time.perf_counter()
    solves = iters = unconverged = 0
    worst = 0.0
    for label, curve, desc, specs, n_max in cases():
        K = sample(curve, desc)
        group = [s for spec in specs
                 for s in chebyshev_sequence(curve, spec, K, range(1, n_max + 1), opts)]
        g_iters = sum(s.iterations for s in group)
        g_unconverged = sum(not s.converged for s in group)
        g_worst = max(s.gap / s.norm for s in group if s.norm > 0)
        print(f"{label}: {len(group)} solves, {g_iters} iterations, {g_unconverged} unconverged, "
              f"worst relative gap {g_worst:.3e}")
        solves, iters = solves + len(group), iters + g_iters
        unconverged, worst = unconverged + g_unconverged, max(worst, g_worst)
    print(f"total: {solves} solves, {iters} iterations, {unconverged} unconverged, "
          f"worst relative gap {worst:.3e} ({time.perf_counter() - t0:.1f} s)")
    problems = []
    if unconverged:
        problems.append(f"{unconverged} unconverged solves")
    if worst > TOL:
        problems.append(f"worst relative gap {worst:.3e} above {TOL:g}")
    if iters > MAX_TOTAL_ITERS:
        problems.append(f"{iters} iterations, more than {MAX_TOTAL_ITERS}")
    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
