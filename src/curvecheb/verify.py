"""The checks `curvecheb verify` runs: its rows, its bands and its table.

A row is an Assertion, one identity of the paper checked numerically:
"eq" within a relative band, "le" with a slack, "lt" strictly below.
comparison_report checks the relations between the Chebyshev constants;
verify_report runs it with the diameter, tau-ratio, Robin and families
rows, in the order the report prints them.  Both return (assertions,
table), the table holding (class label, n, norm, tn) for the sequences
the comparison report reads.

The solves run in a fixed order.  A problem on a sample is solved once,
on the design its first poser grew, and a solve's bits depend on the
order in which that design's columns were asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyring import BASIS_C, BASIS_S, BivarPoly
from .chebyshev import (
    MRQ,
    chebyshev_sequence,
    constant_estimate,
    descending_direction_order,
    directional_constants,
    ordered_constants,
    tau_sequence,
)
from .transfinite import block_counts, leja_extend, leja_start, transfinite_diameter, vn_tau_check
from .extremal import (PROBE_COUNT, PROBE_RADII, OracleError, oracle_eval, probe_points,
                       robin_constants, vk_max)


@dataclass
class Assertion:
    name: str
    kind: str      # "eq" within rel tol, "le" with slack, "lt" strictly below
    lhs: float
    rhs: float
    tol: float
    passed: bool


def _assert_eq(name, lhs, rhs, tol):
    denom = max(abs(rhs), 1e-300)
    return Assertion(name, "eq", float(lhs), float(rhs), tol, abs(lhs - rhs) <= tol * denom)


def _assert_le(name, lhs, rhs, slack):
    return Assertion(name, "le", float(lhs), float(rhs), slack,
                     lhs <= rhs * (1.0 + slack) + 1e-300)


# verify bands, each scaled by --tolerance-scale
EQ_TOL = 0.10        # equality of constants and of the two diameters, relative
INEQ_SLACK = 0.02    # inequalities, discretization slack
EXACT_TOL = 1e-9     # finite-n scale invariances
DIAMETER_TOL = 0.15  # diameter against the directional product, relative
LIMIT_SLACK = 0.05   # finite-n against the limit: tau ratios (relative), the
                     # Robin cross-check and the families gap (absolute)


def _scaled(tol_scale):
    """The five bands above, in their order, times tol_scale."""
    return [band * tol_scale for band in (EQ_TOL, INEQ_SLACK, EXACT_TOL, DIAMETER_TOL, LIMIT_SLACK)]


def comparison_report(curve, K, max_n, opts=None, tol_scale=1.0):
    """Numerical check of the relations between the Chebyshev constants.

    Covers the prefactor scale laws, the product and sum comparisons, the
    identification of the directional constants with the z1-power classes,
    and the matching of the S-ordering constants with the directional ones
    under the descending labeling (including their monotonicity).
    """
    curve.require_directional("comparison report")
    d = curve.d
    eq_tol, ineq, exact, _, _ = _scaled(tol_scale)
    table = []

    def run_seq(spec, top):
        """The solves of spec at n = 1..top, added to the table."""
        seq = chebyshev_sequence(curve, spec, K, range(1, top + 1), opts)
        table.extend((spec.describe(), s.n, s.norm, s.tn) for s in seq)
        return seq

    # directional constants and their ordering
    dir_ests = directional_constants(curve, K, max_n, opts)
    for k, est in enumerate(dir_ests, start=1):
        table.extend((f"M(v{k})", s.n, float("nan"), s.tn) for s in est.solves)
    order = descending_direction_order(curve, dir_ests)
    t_sorted = [dir_ests[i].estimate for i in order]

    # S-ordering constants
    z_ests = ordered_constants(curve, K, max_n, opts)
    table.extend((e.spec.describe(), s.n, s.norm, s.tn) for e in z_ests for s in e.solves)

    asserts = [_assert_eq(f"S-ordering constant {k - 1} matches direction constant rank {k}",
                          z_ests[k - 1].estimate, t_sorted[k - 1], eq_tol) for k in range(1, d + 1)]
    asserts.append(_assert_eq("first S-ordering constant equals the largest directional constant",
                              z_ests[0].estimate, max(e.estimate for e in dir_ests), eq_tol))
    asserts += [_assert_le(f"S-ordering constants non-increasing at {k}",
                           z_ests[k].estimate, z_ests[k - 1].estimate, ineq) for k in range(1, d)]

    # directional constant as a z1-power class with prefactor v_k
    z1m = BivarPoly.monomial(1, 0)
    for k in range(1, d + 1):
        est = constant_estimate(run_seq(MRQ(curve.dirbasis[k - 1], z1m), max(4, max_n - d + 1)))
        asserts.append(_assert_eq(f"v{k}-prefactor z1-power class matches direction constant {k}",
                                  est.estimate, dir_ests[k - 1].estimate, eq_tol))

    # monomial prefactors of total degree <= d-2 leave the constant alone
    n_top = max(3, max_n // (d - 1))
    for k in range(1, d + 1):
        for j1 in range(d - 1):
            for j2 in range(d - 1 - j1):
                est = constant_estimate(
                    run_seq(MRQ(BivarPoly.monomial(j1, j2), curve.dirbasis[k - 1]), n_top))
                asserts.append(_assert_eq(
                    f"monomial prefactor z1^{j1} z2^{j2} keeps direction constant {k}",
                    est.estimate, dir_ests[k - 1].estimate, eq_tol))

    # scale laws at every n on identical samples
    r1 = BivarPoly.monomial(0, 1)
    base = run_seq(MRQ(r1, z1m), 6)
    scaled_r = run_seq(MRQ(r1 * 3.0, z1m), 6)
    asserts += [_assert_eq(f"prefactor scale drops out at n={s0.n}", s1.tn, s0.tn, exact)
                for s0, s1 in zip(base, scaled_r)]
    lam = 2j
    base_q = run_seq(MRQ(BivarPoly.constant(1.0), z1m), 6)
    scaled_q = run_seq(MRQ(BivarPoly.constant(1.0), z1m * lam), 6)
    asserts += [_assert_eq(f"base scale multiplies tn by |lambda| at n={s0.n}",
                           s1.tn, abs(lam) * s0.tn, exact) for s0, s1 in zip(base_q, scaled_q)]

    # product prefactor never increases the constant
    r2 = BivarPoly.monomial(1, 0)
    e_r1 = constant_estimate(run_seq(MRQ(r1, z1m), max(4, max_n - 1)))
    e_r1r2 = constant_estimate(run_seq(MRQ(r1 * r2, z1m), max(4, max_n - 2)))
    asserts.append(_assert_le("product prefactor does not increase the constant",
                              e_r1r2.estimate, e_r1.estimate, ineq))

    # absorbing a power of the base into the prefactor changes nothing
    e_rq = constant_estimate(run_seq(MRQ(r1 * z1m, z1m), max(4, max_n - 2)))
    asserts.append(_assert_eq("prefactor absorbed into the base keeps the constant",
                              e_rq.estimate, e_r1.estimate, eq_tol))

    # sum of equal-degree prefactors: finite-n bound with the 2^(1/deg) factor,
    # the MRQ(z2, z1) solves being the scale laws' base
    e_r2 = run_seq(MRQ(r2, z1m), 6)
    e_sum = run_seq(MRQ(r1 + r2, z1m), 6)
    asserts += [_assert_le(f"sum prefactor bound at n={s_sum.n}", s_sum.tn,
                           2.0 ** (1.0 / s_sum.total_degree) * max(s_a.tn, s_b.tn), ineq)
                for s_sum, s_a, s_b in zip(e_sum, base, e_r2)]
    return asserts, table


def verify_report(curve, K, n_max, opts=None, tol_scale=1.0, directions=None):
    """Every row of `curvecheb verify` on K, and the comparison report's table.

    The comparison report and the diameter rows need a directional curve;
    the diameters are skipped when K is too small for degree max(n_max, 24).
    The tau-ratio rows run to degree min(n_max, 8) in the S basis, the
    families row only where K has a closed-form oracle.  directions label
    the Robin constants of a relaxed curve.
    """
    eq_tol, _, _, diameter_tol, limit_slack = _scaled(tol_scale)
    # one greedy S-basis run serves the tau ratio check and the S diameter:
    # it ends on a complete degree block, and its picks are incremental
    m_tau, _ = block_counts(curve, BASIS_S, min(n_max, 8))
    run = leja_extend(leja_start(curve, K, BASIS_S), m_tau)
    # the directional constants, read by the diameter rows too
    robin = robin_constants(curve, K, n_max, opts, directions=directions)
    asserts, table = [], []

    if curve.dirbasis is not None:
        asserts, table = comparison_report(curve, K, n_max, opts, tol_scale)
        product = float(np.prod([e.t_estimate for e in robin.per_direction])) ** (1.0 / curve.d)
        depth = max(n_max, 24)
        if block_counts(curve, BASIS_S, depth)[0] <= len(K.points):
            dS, _ = transfinite_diameter(curve, K, BASIS_S, depth, run=run)
            dC, _ = transfinite_diameter(curve, K, BASIS_C, depth)
            asserts += [
                _assert_eq("diameter agrees between orderings", dS, dC, eq_tol),
                _assert_eq("diameter matches directional product (S)", dS, product, diameter_tol),
                _assert_eq("diameter matches directional product (C)", dC, product, diameter_tol),
            ]

    # tau ratio inequality along the S ordering
    taus = tau_sequence(curve, K, BASIS_S, m_tau, opts)
    asserts += [_assert_le(f"determinant ratio bound at index {rec.index}",
                           rec.ratio, rec.bound, limit_slack)
                for rec in vn_tau_check(run, taus, limit_slack)]

    for i, e in enumerate(robin.per_direction, start=1):
        # |rho| < inf: the row checks finiteness and nothing else
        asserts.append(Assertion(f"robin constant finite for direction {i}",
                                 "lt", abs(e.rho), math.inf, 0.0, math.isfinite(e.rho)))
        if math.isfinite(e.discrepancy):
            asserts.append(_assert_le(f"robin cross-check for direction {i}",
                                      e.discrepancy, limit_slack, 0.0))

    try:
        pts = probe_points(curve, PROBE_RADII, PROBE_COUNT)
        oracle_eval(K.descriptor, pts, curve=curve)
        rep = vk_max(curve, K, n_max, pts, opts)
        asserts.append(_assert_le("families max matches the closed form",
                                  rep.gap_families, limit_slack, 0.0))
    except OracleError:
        pass
    return asserts, table
