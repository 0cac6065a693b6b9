import math
from types import SimpleNamespace

import numpy as np
import pytest

from curvecheb import BivarPoly, Z1Disk, sample
from curvecheb import chebyshev, extremal
from curvecheb.chebyshev import MQ, SolverOptions, chebyshev_sequence
from curvecheb.extremal import (
    FAMILY_VK,
    FAMILY_VK_TILDE,
    OracleError,
    extremal_build,
    extremal_eval,
    inverse_joukowski,
    oracle_eval,
    probe_points,
    robin_constants,
    robin_of_poly,
    vk_max,
)
from conftest import inverse_joukowski_oracle


class TestRobinOfPoly:
    def test_own_direction_normalized(self, hyp):
        assert robin_of_poly(hyp, hyp.dirbasis[0], 1) == pytest.approx(0.0, abs=1e-12)

    def test_other_direction_vanishes(self, hyp):
        assert robin_of_poly(hyp, hyp.dirbasis[0], 2) == float("-inf")

    def test_z1_both_directions(self, hyp):
        z1 = BivarPoly.monomial(1, 0)
        for k in (1, 2):
            assert robin_of_poly(hyp, z1, k) == pytest.approx(0.0, abs=1e-15)

    def test_zero_rejected(self, hyp):
        with pytest.raises(ValueError):
            robin_of_poly(hyp, BivarPoly.zero(), 1)


class TestRobinConstants:
    def test_disk_gives_log_radius(self, hyp):
        for r in (0.7, 1.3):
            K = sample(hyp, Z1Disk(r, resolution=1024))
            rep = robin_constants(hyp, K, 12, SolverOptions(max_iter=250))
            for e in rep.per_direction:
                assert abs(e.rho - (-math.log(r))) < 0.05

    def test_symmetric_torus(self, hyp, torus_set):
        rep = robin_constants(hyp, torus_set, 8)
        for e in rep.per_direction:
            assert e.rho == pytest.approx(math.log(2.0), abs=1e-5)
            assert e.discrepancy < 1e-9
        assert rep.strict is False
        # the ordering permutation matches the argsort of the estimates
        rhos = [e.rho for e in rep.per_direction]
        assert [rhos[i] for i in rep.ordering] == sorted(rhos)

    def test_coordinate_axes_trace(self, aeps, bidisk_set):
        rep = robin_constants(aeps, bidisk_set, 8, directions=[0.0 + 0j, None])
        for e in rep.per_direction:
            assert e.rho == pytest.approx(0.0, abs=1e-9)
            assert e.via == "orderedClass"

    @pytest.mark.parametrize("t1, t2", [(0.5, 0.5 * (1 + 1e-12)), (0.5 * (1 + 1e-12), 0.5)])
    def test_near_equal_constants_order_by_phase(self, aeps, bidisk_set, monkeypatch, t1, t2):
        # Robin constants 1e-12 apart are a tie: swapping them leaves the
        # ordering as the ascending phase of the directions
        monkeypatch.setattr(extremal, "ordered_constants", lambda *args: [
            SimpleNamespace(estimate=t, reliable=True) for t in (t1, t2)])
        rep = robin_constants(aeps, bidisk_set, 8, directions=[1.0 + 0j, -1.0 + 0j])
        assert rep.ordering == [0, 1]
        assert rep.strict is False

    @pytest.mark.parametrize("t1, t2", [(0.5, 0.5 * (1 + 1e-12)), (0.5 * (1 + 1e-12), 0.5)])
    def test_near_equal_directional_constants_order_by_phase(self, hyp, torus_set, monkeypatch,
                                                             t1, t2):
        # the same tie through the directional classes: direction 2 (+1,
        # phase 0) goes before direction 1 (-1, phase pi), whichever
        # constant is larger
        top = lambda v: [SimpleNamespace(minimizer=v, norm=1.0)]
        monkeypatch.setattr(extremal, "directional_constants", lambda *args: [
            SimpleNamespace(estimate=t, reliable=True, solves=top(v))
            for t, v in zip((t1, t2), hyp.dirbasis)])
        rep = robin_constants(hyp, torus_set, 8)
        assert rep.ordering == [1, 0]
        assert rep.strict is False
        # the cross-check reads the top solve: v_k itself has Robin constant 0
        for e in rep.per_direction:
            assert e.via == "directClass"
            assert e.discrepancy == pytest.approx(e.rho, abs=1e-12)

    def test_cross_check_reads_the_directional_solves(self, hyp, torus_set, monkeypatch):
        # the finite-n Robin constant comes from the top solve of each
        # directional sequence, with no solve of its own
        calls = []
        real = chebyshev.minimax_solve

        def counting(*args, **kwargs):
            calls.append((kwargs["spec"], kwargs["n"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(chebyshev, "minimax_solve", counting)
        # a fresh sample: torus_set keeps the solves other tests made on it
        rep = robin_constants(hyp, sample(hyp, torus_set.descriptor), 8)
        assert calls == [(MQ(v), n) for v in hyp.dirbasis for n in range(1, 9)]
        assert all(e.discrepancy < 1e-9 for e in rep.per_direction)

    def test_relaxed_needs_matching_labels(self, aeps, bidisk_set):
        with pytest.raises(ValueError, match="direction labels"):
            robin_constants(aeps, bidisk_set, 8, directions=[0.0 + 0j])


class TestExtremalBuild:
    def test_torus_directional_minimizer(self, hyp, torus_set):
        a = extremal_build(hyp, torus_set, FAMILY_VK, 1, 8)
        assert a.normalizer == pytest.approx(2.0 ** -8, rel=1e-6)
        # the minimizer is the pure 8th power of the direction polynomial
        want = BivarPoly.constant(1.0)
        for _ in range(8):
            want = want * hyp.dirbasis[0]
        got = a.cheb.minimizer
        probe = np.array([[np.cosh(0.3), np.sinh(0.3)]], dtype=complex)
        assert abs(got(probe[0, 0], probe[0, 1]) - want(probe[0, 0], probe[0, 1])) < 1e-6

    def test_axes_trace_tilde_minimizer(self, aeps, bidisk_set):
        a = extremal_build(aeps, bidisk_set, FAMILY_VK_TILDE, 0, 8)
        assert a.normalizer == pytest.approx(1.0, abs=1e-9)
        assert a.cheb.minimizer.close_to(BivarPoly.monomial(8, 0), tol=1e-9)

    def test_tilde_index_range(self, hyp, torus_set):
        with pytest.raises(ValueError, match="0 <= k <= d-1"):
            extremal_build(hyp, torus_set, FAMILY_VK_TILDE, 2, 6)

    def test_vanishes_on_defining_samples(self, hyp, torus_set, interval_set):
        for K in (torus_set, interval_set):
            a = extremal_build(hyp, K, FAMILY_VK, 1, 8)
            vals = extremal_eval(a, K.points, curve=hyp)
            assert np.nanmax(vals) <= 1e-6

    def test_eval_along_branch(self, hyp, torus_set):
        a = extremal_build(hyp, torus_set, FAMILY_VK, 1, 8)
        for s in (0.5, 1.5):
            z1, z2 = math.cosh(s), -math.sinh(s)
            got = extremal_eval(a, np.array([[z1, z2]]), curve=hyp)[0]
            assert got == pytest.approx(math.log(abs(z1 - z2)), abs=1e-3)

    def test_off_curve_marked(self, hyp, torus_set):
        a = extremal_build(hyp, torus_set, FAMILY_VK, 1, 4)
        vals = extremal_eval(a, np.array([[2.0, 2.0]]), curve=hyp)
        assert np.isnan(vals[0])


class TestVkMax:
    def test_symmetric_torus_formula(self, hyp, torus_set):
        pts = probe_points(hyp, [1.3, 2.0, 4.0], 50)
        rep = vk_max(hyp, torus_set, 8, pts)
        # closed form: max(log+ |z1 - z2|, log+ |z1 + z2|)
        want = np.maximum(
            np.maximum(0.0, np.log(np.abs(pts[:, 0] - pts[:, 1]))),
            np.maximum(0.0, np.log(np.abs(pts[:, 0] + pts[:, 1]))),
        )
        assert np.max(np.abs(rep.max_vk - want)) < 1e-2
        assert rep.gap_families < 1e-2

    def test_interval_inverse_joukowski(self, hyp, interval_set):
        pts = probe_points(hyp, [1.6, 2.2, 3.5], 50)
        rep = vk_max(hyp, interval_set, 16, pts,
                     SolverOptions(max_iter=600))
        want = np.log(np.abs(inverse_joukowski_oracle(pts[:, 1])))
        assert np.max(np.abs(rep.max_families - want)) < 5e-2

    def test_axes_trace_formula(self, aeps, bidisk_set):
        ts = np.concatenate([
            1.8 * np.exp(2j * np.pi * np.arange(12) / 12),
            (0.25 / 1.8) * np.exp(2j * np.pi * np.arange(12) / 12),
        ])
        pts = np.stack([ts, 0.25 / ts], axis=1)
        rep = vk_max(aeps, bidisk_set, 12, pts)
        want = np.maximum(np.log(np.abs(pts[:, 0])), np.log(np.abs(pts[:, 1])))
        assert np.max(np.abs(rep.max_tilde - want)) < 1e-2

    def test_domination_by_oracle(self, hyp, torus_set, interval_set):
        # finite-degree surrogates approximate members of the unit class,
        # so they can exceed the extremal function only by discretization
        for K, n in ((torus_set, 8), (interval_set, 12)):
            pts = probe_points(hyp, [1.5, 2.5], 40)
            rep = vk_max(hyp, K, n, pts, SolverOptions(max_iter=400))
            assert np.max(rep.max_families - rep.oracle) < 5e-2

    def test_branch_equality_far_out(self, hyp, torus_set):
        # far along branch k the k-th surrogate alone matches the oracle
        pts = probe_points(hyp, [1e3], 12)
        ratios = pts[:, 1] / pts[:, 0]
        rep_oracle = oracle_eval(torus_set.descriptor, pts, curve=hyp)
        for k in (1, 2):
            lam = hyp.directions[k - 1]
            sel = np.abs(ratios - lam) < 1e-2
            if not sel.any():
                continue
            a = extremal_build(hyp, torus_set, FAMILY_VK, k, 8)
            vals = extremal_eval(a, pts[sel], curve=hyp)
            assert np.max(np.abs(vals - rep_oracle[sel])) < 5e-2


class TestRobinConsistency:
    def test_normalized_minimizer_matches_tn(self, hyp):
        # finite-degree Robin constant of t / ||t|| equals -log tn up to
        # the roundoff of the leading coefficient
        for r in (0.7, 1.3):
            K = sample(hyp, Z1Disk(r, resolution=1024))
            for k in (1, 2):
                seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[k - 1]), K,
                                         [16], SolverOptions(max_iter=300))
                s = seq[0]
                fin = robin_of_poly(hyp, s.minimizer * (1.0 / s.norm), k)
                assert abs(fin - (-math.log(s.tn))) < 5e-2


class TestOracles:
    def test_disk_formula(self, hyp):
        K = sample(hyp, Z1Disk(0.5, resolution=64))
        pts = probe_points(hyp, [2.0], 8)
        got = oracle_eval(K.descriptor, pts, curve=hyp)
        assert np.allclose(got, np.log(np.abs(pts[:, 0]) / 0.5), atol=1e-12)

    def test_interval_boundary_value(self, hyp, interval_set):
        pts = np.array([[np.sqrt(2.0), 1.0]], dtype=complex)
        got = oracle_eval(interval_set.descriptor, pts, curve=hyp)
        assert got[0] == pytest.approx(0.0, abs=1e-9)

    def test_interval_reference_point(self):
        # log(2 + sqrt(3)) at z2 = 2
        got = np.log(np.abs(inverse_joukowski(np.array([2.0 + 0j]))))
        assert got[0] == pytest.approx(1.3169578969248166, rel=1e-12)

    def test_asymmetric_bidisk_formula(self):
        from curvecheb.gallery import coordinate_hyperbola
        from curvecheb.sets import BidiskTrace, sample as _sample

        curve = coordinate_hyperbola(0.1)
        K = _sample(curve, BidiskTrace(0.8, 0.5, resolution=64))
        ts = 2.0 * np.exp(2j * np.pi * np.arange(6) / 6)
        pts = np.stack([ts, 0.1 / ts], axis=1)
        got = oracle_eval(K.descriptor, pts, curve=curve)
        want = np.maximum(
            np.maximum(0.0, np.log(np.abs(pts[:, 0]) / 0.8)),
            np.maximum(0.0, np.log(np.abs(pts[:, 1]) / 0.5)),
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_unregistered_descriptor(self, hyp):
        from curvecheb.sets import PointCloud

        desc = PointCloud(points=((np.sqrt(2.0) + 0j, 1.0 + 0j),))
        with pytest.raises(OracleError, match="no oracle"):
            oracle_eval(desc, np.zeros((1, 2), dtype=complex))

    def test_wrong_curve_rejected(self, cubic7):
        from curvecheb.sets import Z2Interval

        with pytest.raises(OracleError):
            oracle_eval(Z2Interval(-1, 1), np.zeros((1, 2), dtype=complex), curve=cubic7)
