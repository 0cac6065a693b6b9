"""Acceptance suite: one test per criterion, one printed verdict line each.

Desk scale: resolution 1024, class degrees <= 16, single core.  Greedy
point-selection depths run past 16 where the determinant estimator needs
them (its bias decays only like exp(O(log m)/deg)); the runtime stays in
the seconds.
"""

import math
import time

import numpy as np

import conftest

from curvecheb import (
    BivarPoly,
    Z1Disk,
    cjk_table,
    expand_in_basis,
    normal_form,
    sample,
)
from curvecheb.polyring import (
    BASIS_C,
    BASIS_S,
    basis_combination,
    effective_degree,
    multiply,
)
from curvecheb.gallery import random_valid_curve
from curvecheb.chebyshev import (
    MQ,
    MRQ,
    SolverOptions,
    Zk,
    chebyshev_sequence,
    chebyshev_solve,
    constant_estimate,
    descending_direction_order,
    tau_sequence,
)
from curvecheb.transfinite import (
    block_counts,
    leja_extend,
    leja_start,
    transfinite_diameter,
    vn_tau_check,
)
from curvecheb.extremal import (
    probe_points,
    robin_constants,
    robin_of_poly,
    vk_max,
)
from curvecheb.cli import main as cli_main

Z1M = BivarPoly.monomial(1, 0)
Z2M = BivarPoly.monomial(0, 1)


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_symbolic_identities():
    """25 seeded random curves: ring identities, c_jk nonvanishing,
    basis round trip, all inside 10 seconds."""
    t0 = time.time()
    worst_round = 0.0
    for i in range(25):
        d = [2, 3, 4, 5][i % 4]
        curve = random_valid_curve(d, seed=100 + i)
        vs = curve.dirbasis
        vfloor = 1e-10 * max(v.max_coeff() for v in vs) ** 2
        for j in range(d):
            for k in range(d):
                if j == k:
                    resid = normal_form(
                        curve,
                        multiply(vs[j], vs[j]) - multiply(BivarPoly.monomial(d - 1, 0), vs[j]),
                    )
                else:
                    resid = normal_form(curve, multiply(vs[j], vs[k]))
                assert effective_degree(resid, vfloor) <= 2 * d - 3
        for j, lam in enumerate(curve.directions):
            factor = BivarPoly({(0, 1): 1.0, (1, 0): -lam})
            resid = normal_form(curve, multiply(vs[j], factor))
            assert effective_degree(resid, vfloor) <= d - 1
        s = BivarPoly.monomial(d - 1, 0)
        for v in vs:
            s = s - v
        assert effective_degree(normal_form(curve, s), vfloor) <= d - 2
        rng = np.random.default_rng(i)
        q = BivarPoly({(a, b): rng.normal() + 1j * rng.normal()
                       for a in range(4) for b in range(2) if 0 < a + b <= 3})
        from curvecheb import polyprop_residual

        for k in range(1, d + 1):
            resid = polyprop_residual(curve, q, k)
            floor = 1e-9 * q.max_coeff() * max(v.max_coeff() for v in vs)
            assert effective_degree(resid, floor) < int(q.degree) + d - 1
        assert np.min(np.abs(cjk_table(curve).entries)) > 1e-10
        p = normal_form(curve, BivarPoly({
            (a, b): rng.normal() + 1j * rng.normal()
            for a in range(13) for b in range(d) if a + b <= 12
        }))
        for basis in (BASIS_S, BASIS_C):
            back = basis_combination(curve, basis, expand_in_basis(curve, p, basis))
            diff = back - p
            err = max((abs(c) for c in diff.terms.values()), default=0.0)
            worst_round = max(worst_round, err / max(p.max_coeff(), 1.0))
        assert worst_round < 1e-10
    elapsed = time.time() - t0
    verdict(1, elapsed < 10.0 and worst_round < 1e-10,
            f"25 curves, worst round trip {worst_round:.2e}, {elapsed:.1f}s")


def test_criterion_02_symmetric_torus_exactness(hyp, torus_set):
    """Directional solves exact to 1e-6, Robin constants log 2 to 1e-5,
    max formula within 1e-2 on a 50-point probe grid."""
    worst_tn = 0.0
    for k in (1, 2):
        seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[k - 1]), torus_set, range(1, 9))
        worst_tn = max(worst_tn, max(abs(s.tn - 0.5) for s in seq))
    rep = robin_constants(hyp, torus_set, 8)
    worst_rho = max(abs(e.rho - math.log(2.0)) for e in rep.per_direction)
    pts = probe_points(hyp, [1.3, 1.9, 3.1], 50)
    assert len(pts) >= 50 - 2
    vrep = vk_max(hyp, torus_set, 8, pts)
    want = np.maximum(
        np.maximum(0.0, np.log(np.abs(pts[:, 0] - pts[:, 1]))),
        np.maximum(0.0, np.log(np.abs(pts[:, 0] + pts[:, 1]))),
    )
    gap = float(np.max(np.abs(vrep.max_vk - want)))
    ok = worst_tn < 1e-6 and worst_rho < 1e-5 and gap < 1e-2
    verdict(2, ok, f"tn err {worst_tn:.1e}, rho err {worst_rho:.1e}, max-formula gap {gap:.1e}")


def test_criterion_03_unit_disk_floor(hyp, disk1_set):
    """Minimax on the unit z1-disk trace never undershoots the analytic
    value 1 for the first ordered class."""
    worst = 0.0
    for n in range(1, 9):
        s = chebyshev_solve(hyp, Zk(0), disk1_set, n)
        worst = max(worst, abs(s.tn - 1.0))
    verdict(3, worst < 1e-6, f"worst |tn - 1| = {worst:.2e} over n=1..8")


def _ordered_vs_directional(curve, K, max_deg, opts):
    d = curve.d
    ests = []
    for k in range(1, d + 1):
        seq = chebyshev_sequence(curve, MQ(curve.dirbasis[k - 1]), K,
                                 range(1, max(3, max_deg // (d - 1)) + 1), opts)
        ests.append(constant_estimate(seq))
    order = descending_direction_order(curve, ests)
    t_sorted = [ests[i].estimate for i in order]
    z_ests = []
    for k in range(d):
        seq = chebyshev_sequence(curve, Zk(k), K, range(1, max_deg - k + 1), opts)
        z_ests.append(constant_estimate(seq).estimate)
    rels = [abs(z_ests[k] - t_sorted[k]) / t_sorted[k] for k in range(d)]
    monotone = all(z_ests[k - 1] >= z_ests[k] * (1 - 0.02) for k in range(1, d))
    return rels, monotone


def test_criterion_04_ordered_classes_match_directions(hyp, cubic7):
    """The k-th ordered-class constant equals the k-th largest directional
    constant within 10%, with 2%-slack monotonicity; cubic under 5 min."""
    opts = SolverOptions(max_iter=300)
    details = []
    ok = True
    for r in (0.7, 1.3):
        K = sample(hyp, Z1Disk(r, resolution=1024))
        rels, monotone = _ordered_vs_directional(hyp, K, 12, opts)
        ok = ok and max(rels) < 0.10 and monotone
        details.append(f"hyperbola r={r}: max rel {max(rels):.3f}, monotone {monotone}")
    t0 = time.time()
    K = sample(cubic7, Z1Disk(1.2, resolution=1024))
    rels, monotone = _ordered_vs_directional(cubic7, K, 12, opts)
    elapsed = time.time() - t0
    ok = ok and max(rels) < 0.10 and monotone and elapsed < 300.0
    details.append(f"cubic: max rel {max(rels):.3f}, monotone {monotone}, {elapsed:.0f}s")
    verdict(4, ok, "; ".join(details))


def test_criterion_05_product_formula(hyp, torus_set, interval_set):
    """Greedy diameters of both orderings agree within 10% and match the
    directional-constant product within 15% (expected value 0.5)."""
    details = []
    ok = True
    for name, K in (("torus", torus_set), ("interval", interval_set)):
        dS, _ = transfinite_diameter(hyp, K, BASIS_S, 40)
        dC, _ = transfinite_diameter(hyp, K, BASIS_C, 40)
        agree = abs(dS - dC) / dC
        offS = abs(dS - 0.5) / 0.5
        offC = abs(dC - 0.5) / 0.5
        ok = ok and agree < 0.10 and offS < 0.15 and offC < 0.15
        details.append(f"{name}: dS={dS:.3f} dC={dC:.3f} agree {agree:.3f}")
    verdict(5, ok, "; ".join(details))


def test_criterion_06_determinant_ratio_bound(hyp, torus_set):
    """V_n / V_{n-1} <= n tau_n^deg(b_n) with 5% slack through degree 8."""
    m8, _ = block_counts(hyp, BASIS_S, 8)
    run = leja_start(hyp, torus_set, BASIS_S)
    leja_extend(run, m8)
    taus = tau_sequence(hyp, torus_set, BASIS_S, m8)
    recs = vn_tau_check(run, taus, slack=0.05)
    bad = [r.index for r in recs if not r.passed]
    verdict(6, len(recs) == m8 and not bad, f"{len(recs)} indices, violations {bad}")


def test_criterion_07_scale_laws(hyp, interval_set):
    """Prefactor scale c=3 leaves tn unchanged and base scale lambda=2i
    multiplies it by 2, to 1e-9 on identical samples."""
    lam = 2j
    worst_c = worst_l = 0.0
    for n in range(1, 7):
        a = chebyshev_solve(hyp, MRQ(Z2M, Z1M), interval_set, n)
        b = chebyshev_solve(hyp, MRQ(Z2M * 3.0, Z1M), interval_set, n)
        worst_c = max(worst_c, abs(b.tn - a.tn) / a.tn)
        c = chebyshev_solve(hyp, MRQ(BivarPoly.constant(1.0), Z1M), interval_set, n)
        d = chebyshev_solve(hyp, MRQ(BivarPoly.constant(1.0), Z1M * lam), interval_set, n)
        worst_l = max(worst_l, abs(d.tn - abs(lam) * c.tn) / (abs(lam) * c.tn))
    ok = worst_c < 1e-9 and worst_l < 1e-9
    verdict(7, ok, f"prefactor rel err {worst_c:.1e}, base rel err {worst_l:.1e}")


def test_criterion_08_extremal_oracles(hyp, interval_set, aeps, bidisk_set):
    """Families max vs the closed forms: inverse-Joukowski trace at degree
    16 within 5e-2; coordinate-axes trace within 1e-2."""
    opts = SolverOptions(max_iter=600)
    pts = probe_points(hyp, [1.6, 2.2, 3.5], 50)
    rep = vk_max(hyp, interval_set, 16, pts, opts)
    gap_interval = rep.gap_families
    ts = np.concatenate([
        1.8 * np.exp(2j * np.pi * (np.arange(13) + 0.5) / 13),
        (0.25 / 1.8) * np.exp(2j * np.pi * (np.arange(12) + 0.5) / 12),
    ])
    pts2 = np.stack([ts, 0.25 / ts], axis=1)
    rep2 = vk_max(aeps, bidisk_set, 16, pts2, opts)
    gap_axes = float(np.max(np.abs(rep2.max_tilde - np.maximum(
        np.log(np.abs(pts2[:, 0])), np.log(np.abs(pts2[:, 1]))))))
    ok = gap_interval < 5e-2 and gap_axes < 1e-2
    verdict(8, ok, f"interval gap {gap_interval:.3f}, axes gap {gap_axes:.1e}")


def test_criterion_09_robin_cross_check(hyp, cubic7):
    """Finite-degree Robin constant of the normalized minimizer agrees
    with -log tn at degree 16 on the criterion-4 configurations."""
    opts = SolverOptions(max_iter=300)
    worst = 0.0
    cases = [(hyp, Z1Disk(0.7, resolution=1024), 16),
             (hyp, Z1Disk(1.3, resolution=1024), 16),
             (cubic7, Z1Disk(1.2, resolution=1024), 8)]
    for curve, desc, power in cases:
        K = sample(curve, desc)
        for k in range(1, curve.d + 1):
            s = chebyshev_solve(curve, MQ(curve.dirbasis[k - 1]), K, power, opts)
            assert s.total_degree == 16
            fin = robin_of_poly(curve, s.minimizer * (1.0 / s.norm), k)
            worst = max(worst, abs(fin - (-math.log(s.tn))))
    verdict(9, worst < 5e-2, f"worst |finite Robin + log tn| = {worst:.2e}")


def test_criterion_10_negative_controls(tmp_path):
    """Zero tolerance flips the verify gate to exit 1; invalid curves exit 2."""
    import json

    cfg = {
        "schema": "curvecheb.config/1",
        "curve": {"terms": [{"a": 2, "b": 0, "re": 1.0, "im": 0.0},
                            {"a": 0, "b": 2, "re": -1.0, "im": 0.0},
                            {"a": 0, "b": 0, "re": -1.0, "im": 0.0}]},
        "set": {"kind": "absv1v2torus", "r1": 0.5, "r2": 0.5},
        "resolution": 512,
        "n_max": 6,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc_zero = cli_main(["verify", "--config", str(path), "--tolerance-scale", "0"])
    dup = dict(cfg)
    dup["curve"] = {"terms": [{"a": 2, "b": 0, "re": 1.0, "im": 0.0},
                              {"a": 1, "b": 1, "re": -2.0, "im": 0.0},
                              {"a": 0, "b": 2, "re": 1.0, "im": 0.0},
                              {"a": 0, "b": 0, "re": 1.0, "im": 0.0}]}
    pdup = tmp_path / "dup.json"
    pdup.write_text(json.dumps(dup))
    rc_dup = cli_main(["curve-info", "--config", str(pdup)])
    par = dict(cfg)
    par["curve"] = {"terms": [{"a": 0, "b": 2, "re": 1.0, "im": 0.0},
                              {"a": 1, "b": 0, "re": -1.0, "im": 0.0}]}
    ppar = tmp_path / "par.json"
    ppar.write_text(json.dumps(par))
    rc_par = cli_main(["curve-info", "--config", str(ppar)])
    ok = rc_zero == 1 and rc_dup == 2 and rc_par == 2
    verdict(10, ok, f"zero-tol verify rc={rc_zero}, duplicate rc={rc_dup}, "
                    f"axis-parallel rc={rc_par}")
