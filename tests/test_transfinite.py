import dataclasses
import tracemalloc

import numpy as np
import pytest

from curvecheb import AbsV1V2Torus, Z1Disk, sample
from curvecheb.gallery import random_valid_curve
from curvecheb.polyring import (
    BASIS_C,
    BASIS_S,
    BivarPoly,
    basis_enumerate,
    curve_new,
    generator_reach,
    leading_part,
    parent_rule,
)
from curvecheb.chebyshev import tau_sequence
from curvecheb.transfinite import (
    LEJA_TIE_REL,
    block_counts,
    leja_extend,
    leja_start,
    log_vdm,
    transfinite_diameter,
    vn_tau_check,
)
from curvecheb.verify import LIMIT_SLACK


class TestLogVdm:
    def test_single_point(self, hyp, torus_set):
        assert log_vdm(hyp, BASIS_S, torus_set.points[:1]) == pytest.approx(0.0)

    def test_two_points_reduce_to_z1_difference(self, hyp, torus_set):
        pts = torus_set.points[:2]
        want = np.log(abs(pts[1][0] - pts[0][0]))
        assert log_vdm(hyp, BASIS_S, pts) == pytest.approx(want, rel=1e-12)

    def test_repeated_point_is_singular(self, hyp, torus_set):
        pts = np.array([torus_set.points[0], torus_set.points[0]])
        assert log_vdm(hyp, BASIS_S, pts) == float("-inf")

    def test_permutation_invariance(self, hyp, torus_set):
        rng = np.random.default_rng(0)
        pts = torus_set.points[rng.choice(len(torus_set.points), 9, replace=False)]
        base = log_vdm(hyp, BASIS_S, pts)
        for _ in range(3):
            perm = rng.permutation(9)
            assert log_vdm(hyp, BASIS_S, pts[perm]) == pytest.approx(base, rel=1e-9)

    def test_unit_triangular_basis_change_invariance(self, hyp, torus_set):
        # adding multiples of earlier basis elements to later ones cannot
        # change the determinant modulus
        from curvecheb.polyring import basis_enumerate
        from curvecheb.chebyshev import basis_values

        rng = np.random.default_rng(1)
        m = 9
        idx = rng.choice(len(torus_set.points), m, replace=False)
        pts = torus_set.points[idx]
        elems = basis_enumerate(hyp, BASIS_S, m)
        M = basis_values(hyp, elems, pts)          # points x basis
        U = np.eye(m, dtype=complex)
        U[np.triu_indices(m, k=1)] = 0.5 * (rng.normal(size=m * (m - 1) // 2)
                                            + 1j * rng.normal(size=m * (m - 1) // 2))
        base = np.linalg.slogdet(M.T)[1]
        mixed = np.linalg.slogdet((M @ U).T)[1]
        assert mixed == pytest.approx(base, abs=1e-8)
        assert base == pytest.approx(log_vdm(hyp, BASIS_S, pts), abs=1e-8)


class TestLeja:
    def test_first_pick_lowest_index(self, hyp, torus_set):
        run = leja_start(hyp, torus_set, BASIS_S)
        leja_extend(run, 1)
        assert run.selected == [0]
        assert run.log_vdm[0] == pytest.approx(0.0)

    def test_greedy_is_swap_optimal(self, hyp, torus_set):
        run = leja_start(hyp, torus_set, BASIS_S)
        leja_extend(run, 9)
        base = run.log_vdm[-1]
        rng = np.random.default_rng(2)
        prefix = np.array(run.points[:-1])
        for idx in rng.choice(len(torus_set.points), 25, replace=False):
            if idx in run.selected[:-1]:
                continue
            swapped = np.vstack([prefix, torus_set.points[idx][None, :]])
            assert log_vdm(hyp, BASIS_S, swapped) <= base + 1e-9

    def test_matches_direct_determinant(self, hyp, interval_set):
        run = leja_start(hyp, interval_set, BASIS_S)
        leja_extend(run, 15)
        direct = log_vdm(hyp, BASIS_S, np.array(run.points))
        assert run.log_vdm[-1] == pytest.approx(direct, abs=1e-7)

    def test_candidate_exhaustion(self, hyp):
        K = sample(hyp, Z1Disk(1.0, resolution=16))
        run = leja_start(hyp, K, BASIS_S)
        with pytest.raises(ValueError, match="exhausted"):
            leja_extend(run, len(K.points) + 1)

    def test_torus_diameter_examples(self, hyp, torus_set):
        # ~50 greedy points pin the product-formula value within 15%
        est, run = transfinite_diameter(hyp, torus_set, BASIS_S, 24)
        assert abs(est - 0.5) / 0.5 < 0.15
        assert len(run.points) == block_counts(hyp, BASIS_S, 24)[0]

    def test_extended_run_matches_a_fresh_one(self, hyp, torus_set):
        # a run stopped at a complete degree block and extended later makes
        # the picks and the estimate of one run made at once
        m8, _ = block_counts(hyp, BASIS_S, 8)
        run = leja_extend(leja_start(hyp, torus_set, BASIS_S), m8)
        est, run = transfinite_diameter(hyp, torus_set, BASIS_S, 24, run=run)
        fresh_est, fresh = transfinite_diameter(hyp, torus_set, BASIS_S, 24)
        assert (est, run.selected, run.diam_estimates) == (fresh_est, fresh.selected,
                                                          fresh.diam_estimates)
        with pytest.raises(ValueError, match="another curve, set or basis"):
            transfinite_diameter(hyp, torus_set, BASIS_C, 24, run=run)

    @pytest.mark.parametrize("curve_name, basis, first, second", [
        ("hyp", BASIS_S, 4, 1), ("hyp", BASIS_C, 4, 1), ("cubic7", BASIS_C, 4, 2)])
    def test_extension_ending_mid_block_records_no_estimate(self, request, torus_set,
                                                           curve_name, basis, first, second):
        # the first extension stops short of the end of the degree-2 block:
        # only the degree-1 block is complete, and the second extension
        # closes degree 2 with the estimate of a run made at once
        curve = request.getfixturevalue(curve_name)
        K = torus_set if curve_name == "hyp" else sample(curve, Z1Disk(1.2, resolution=1024))
        assert block_counts(curve, basis, 2)[0] == first + second
        run = leja_extend(leja_start(curve, K, basis), first)
        assert [n for n, _ in run.diam_estimates] == [1]
        leja_extend(run, second)
        at_once = leja_extend(leja_start(curve, K, basis), first + second)
        assert run.diam_estimates == at_once.diam_estimates
        assert [n for n, _ in run.diam_estimates] == [1, 2]

    @pytest.mark.parametrize("basis, n_max, want", [
        (BASIS_S, 2, 1.0), (BASIS_S, 3, 0.9355068519681916),
        (BASIS_C, 2, 0.8408964152537145), (BASIS_C, 3, 0.8122523963562355)])
    def test_smallest_slopes_pinned(self, hyp, torus_set, basis, n_max, want):
        # n_max = 2 and 3 take the slope from degree 1, the shallowest blocks
        assert transfinite_diameter(hyp, torus_set, basis, n_max)[0] == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("basis", [BASIS_S, BASIS_C])
    def test_picks_ignore_rounding_level_ties(self, hyp, torus_set_small, basis):
        # the symmetric torus has exactly tied candidates; a relative
        # change of 2.8e-16 of the sample must not break the ties another way
        K = torus_set_small
        shifted = dataclasses.replace(K, points=K.points * (1 + 2.8e-16))
        est, run = transfinite_diameter(hyp, K, basis, 24)
        est_shifted, run_shifted = transfinite_diameter(hyp, shifted, basis, 24)
        assert run_shifted.selected == run.selected
        assert est_shifted == pytest.approx(est, rel=1e-9)

    def test_disk_diameter_example(self, hyp, disk1_set):
        est, _ = transfinite_diameter(hyp, disk1_set, BASIS_S, 24)
        assert abs(est - 1.0) < 0.15

    def test_estimates_stabilize(self, hyp, torus_set, interval_set, disk1_set):
        for K in (torus_set, interval_set, disk1_set):
            _, run = transfinite_diameter(hyp, K, BASIS_S, 12)
            ests = dict(run.diam_estimates)
            assert abs(ests[12] - ests[11]) / ests[12] < 0.10


def sequential_leja(curve, K, basis_id, count):
    """(picks, increments, block estimates) of the greedy run, each column
    eliminated one step at a time: against each step since its parent,
    subtract that step's column times the current entry at its pick over
    its pivot.  The reference for leja_extend's blocked elimination."""
    elems = basis_enumerate(curve, basis_id, count)
    used = np.zeros(len(K.points), dtype=bool)
    cols, pivots, step_of = [], [], {}
    picks, increments, estimates = [], [], []
    for step, el in enumerate(elems):
        rule = parent_rule(curve, el.shape)
        if rule is None:
            col = np.ones(len(K.points), dtype=complex)
        else:
            parent, gen = rule
            src = step_of[parent]
            col = gen(K.z1, K.z2) * cols[src]
            for k in range(src, step):
                i_k, p_k = pivots[k]
                col = col - cols[k] * (col[i_k] / p_k)
        step_of[el.shape] = step
        scores = np.where(used, 0.0, np.abs(col))
        i = int(np.argmax(scores >= scores.max() * (1.0 - LEJA_TIE_REL)))
        cols.append(col)
        pivots.append((i, col[i]))
        used[i] = True
        picks.append(i)
        increments.append(float(np.log(np.abs(col[i]))))
        m = step + 1
        if el.degree >= 1 and (m == len(elems) or elems[m].degree > el.degree):
            l_n = sum(e.degree for e in elems[:m])
            estimates.append((el.degree, float(np.exp(sum(increments) / l_n))))
    return picks, increments, estimates


def assert_matches_sequential(run, curve, K, basis_id):
    picks, increments, estimates = sequential_leja(curve, K, basis_id, len(run.selected))
    assert run.selected == picks
    assert np.max(np.abs(np.array(run.increments) - increments)) <= 1e-10
    assert [d for d, _ in run.diam_estimates] == [d for d, _ in estimates]
    assert [e for _, e in run.diam_estimates] == pytest.approx([e for _, e in estimates],
                                                              rel=1e-10)


class TestBlockedElimination:
    @pytest.mark.parametrize("basis", [BASIS_S, BASIS_C])
    @pytest.mark.parametrize("set_name", ["torus_set", "interval_set"])
    def test_hyperbola_sets_match_sequential(self, hyp, request, set_name, basis):
        K = request.getfixturevalue(set_name)
        _, run = transfinite_diameter(hyp, K, basis, 24)
        assert_matches_sequential(run, hyp, K, basis)

    @pytest.mark.parametrize("basis", [BASIS_S, BASIS_C])
    @pytest.mark.parametrize("d", [3, 4])
    def test_random_curve_disks_match_sequential(self, d, basis):
        curve = random_valid_curve(d, seed=7)
        K = sample(curve, Z1Disk(1.2, resolution=1024))
        _, run = transfinite_diameter(curve, K, basis, 24)
        assert_matches_sequential(run, curve, K, basis)

    def test_run_extended_in_two_steps_matches_sequential(self, hyp, torus_set):
        # the window holds at most twice the live rows: the d elements of
        # each of the reach + 1 top degrees, whatever the depth
        window = 2 * hyp.d * (generator_reach(hyp, BASIS_S) + 1)
        m8, _ = block_counts(hyp, BASIS_S, 8)
        m24, _ = block_counts(hyp, BASIS_S, 24)
        run = leja_extend(leja_start(hyp, torus_set, BASIS_S), m8)
        assert len(run._W) <= window < m8
        leja_extend(run, m24 - m8)
        assert len(run._W) <= window
        assert_matches_sequential(run, hyp, torus_set, BASIS_S)

    @pytest.mark.parametrize("basis", [BASIS_S, BASIS_C])
    def test_deep_run_store_does_not_grow(self, hyp, torus_set, basis):
        # to degree 100 (201 picks) the full store would take 201 rows of
        # 1,024 values, 3.3 MB; the window takes a few rows.  The basis is
        # enumerated first, so the trace holds only the run's own arrays
        m, _ = block_counts(hyp, basis, 100)
        basis_enumerate(hyp, basis, m)
        run = leja_start(hyp, torus_set, basis)
        tracemalloc.start()
        try:
            leja_extend(run, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert_matches_sequential(run, hyp, torus_set, basis)

    def test_torus_estimates_pinned(self, hyp):
        # the S estimate sits 0.0006 inside the 0.15 band of the torus verify
        # row, so a change of picks must show here first
        K = sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=512))
        assert transfinite_diameter(hyp, K, BASIS_S, 24)[0] == pytest.approx(
            0.574690316544, rel=1e-9)
        assert transfinite_diameter(hyp, K, BASIS_C, 24)[0] == pytest.approx(
            0.562986085612, rel=1e-9)


class TestDiameterAgreement:
    @pytest.mark.parametrize("descritem", ["torus", "interval"])
    def test_orderings_agree_and_match_product(self, hyp, torus_set, interval_set, descritem):
        K = torus_set if descritem == "torus" else interval_set
        dS, _ = transfinite_diameter(hyp, K, BASIS_S, 40)
        dC, _ = transfinite_diameter(hyp, K, BASIS_C, 40)
        assert abs(dS - dC) / dC < 0.10
        assert abs(dS - 0.5) / 0.5 < 0.15
        assert abs(dC - 0.5) / 0.5 < 0.15


class TestLazyPolynomials:
    def test_c_diameter_builds_no_polynomial(self, ring_calls):
        # the seeded cubic with every lower-order term on the r = 1.2
        # z1-disk, as in the diameter-cubic benchmark: the greedy run
        # reads shapes and degrees only, and its columns come from the
        # parent rule
        lead = leading_part(random_valid_curve(3, seed=7).defining)
        rng = np.random.default_rng([3, 7])
        lower = {(n - b, b): 0.3 * complex(rng.normal(), rng.normal())
                 for n in range(3) for b in range(n + 1)}
        lower[(0, 0)] += 1.0
        curve = curve_new(lead + BivarPoly(lower))
        K = sample(curve, Z1Disk(1.2, resolution=4096))
        est, _ = transfinite_diameter(curve, K, BASIS_C, 40)
        assert ring_calls == []
        assert abs(est - 1.2) / 1.2 < 0.15


class TestVnTau:
    def test_symmetric_torus_through_degree_8(self, hyp, torus_set):
        m8, _ = block_counts(hyp, BASIS_S, 8)
        run = leja_start(hyp, torus_set, BASIS_S)
        leja_extend(run, m8)
        taus = tau_sequence(hyp, torus_set, BASIS_S, m8)
        recs = vn_tau_check(run, taus, LIMIT_SLACK)
        assert len(recs) == m8
        assert all(r.passed for r in recs)

    def test_corrupted_tau_reported(self, hyp, torus_set):
        m5, _ = block_counts(hyp, BASIS_S, 5)
        run = leja_start(hyp, torus_set, BASIS_S)
        leja_extend(run, m5)
        taus = tau_sequence(hyp, torus_set, BASIS_S, m5)
        for t in taus:
            t.norm /= 2 ** max(t.total_degree, 1)
        recs = vn_tau_check(run, taus, LIMIT_SLACK)
        assert any(not r.passed for r in recs)

    def test_alignment_enforced(self, hyp, torus_set):
        run = leja_start(hyp, torus_set, BASIS_S)
        leja_extend(run, 3)
        taus = tau_sequence(hyp, torus_set, BASIS_C, 3)
        with pytest.raises(ValueError, match="align"):
            vn_tau_check(run, taus, LIMIT_SLACK)

