import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvecheb import (
    AbsV1V2Torus,
    BidiskTrace,
    BivarPoly,
    PointCloud,
    Z1Disk,
    Z2Interval,
    sample,
    sup_norm,
)
from curvecheb import sets
from curvecheb.gallery import hyperbola
from curvecheb.sets import SamplingError, read_point_cloud, write_point_cloud


class TestDescriptors:
    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            Z1Disk(1.0, resolution=8)

    def test_interval_orientation(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Z2Interval(1.0, -1.0)

    def test_positive_radii(self):
        with pytest.raises(ValueError, match="positive"):
            AbsV1V2Torus(0.5, -0.5)

    @pytest.mark.parametrize("make", [
        lambda x: Z1Disk(x), lambda x: Z1Disk(1.0, resolution=x),
        lambda x: Z2Interval(x, 1.0), lambda x: Z2Interval(-1.0, x),
        lambda x: AbsV1V2Torus(x, 0.5), lambda x: AbsV1V2Torus(0.5, x),
        lambda x: BidiskTrace(x, 1.0), lambda x: BidiskTrace(1.0, x),
    ], ids=["z1disk-r", "resolution", "interval-lo", "interval-hi", "torus-r1", "torus-r2",
            "bidisk-r1", "bidisk-r2"])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, make, x):
        # before, these reached the eigenvalue solve (LinAlgError) or an
        # empty sample; nan passes every < or >= check
        with pytest.raises(ValueError, match="finite"):
            make(x)


class TestSampling:
    def test_interval_lifts_both_branches(self, hyp):
        K = sample(hyp, Z2Interval(-1.0, 1.0, resolution=16))
        # z2 real in [-1, 1], z1 = +-sqrt(1 + z2^2)
        assert np.max(np.abs(K.z2.imag)) < 1e-12
        assert np.all((K.z2.real >= -1 - 1e-12) & (K.z2.real <= 1 + 1e-12))
        assert np.allclose(K.z1 ** 2, 1 + K.z2 ** 2, atol=1e-10)
        signs = np.sign(K.z1.real)
        assert (signs > 0).any() and (signs < 0).any()

    def test_torus_parametrization(self, hyp):
        # the symmetric torus forces points (cos t, -i sin t)
        K = sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=64))
        v1 = hyp.dirbasis[0](K.z1, K.z2)
        v2 = hyp.dirbasis[1](K.z1, K.z2)
        assert np.allclose(np.abs(v1), 0.5, atol=1e-10)
        assert np.allclose(np.abs(v2), 0.5, atol=1e-10)
        assert np.max(np.abs(K.z1.imag)) < 1e-10       # cos t real
        assert np.max(np.abs(K.z2.real)) < 1e-10       # -i sin t imaginary

    def test_mismatched_torus_radii_empty(self, hyp):
        # |v1 v2| = 1/4 on the curve, so radii with r1*r2 != 1/4 give nothing
        with pytest.raises(SamplingError, match="empty set"):
            sample(hyp, AbsV1V2Torus(0.5, 0.9, resolution=32))

    def test_bidisk_boundary_circles(self, aeps):
        K = sample(aeps, BidiskTrace(1.0, 1.0, resolution=128))
        r1 = np.abs(K.z1)
        # points sit on |z1| = 1 or |z1| = eps (where |z2| = 1)
        on_outer = np.isclose(r1, 1.0, atol=1e-9)
        on_inner = np.isclose(r1, 0.25, atol=1e-9)
        assert np.all(on_outer | on_inner)
        assert on_outer.any() and on_inner.any()
        assert np.allclose(K.z1 * K.z2, 0.25, atol=1e-10)

    def test_bidisk_needs_room(self, aeps):
        # eps = 0.25 > r1 * r2 leaves no trace
        with pytest.raises(SamplingError, match="empty set"):
            sample(aeps, BidiskTrace(0.4, 0.4, resolution=32))

    def test_bidisk_masks_both_circles(self, cubic7):
        r1, r2 = 1.0, 1.0
        K = sample(cubic7, BidiskTrace(r1, r2, resolution=256))
        on1 = np.isclose(np.abs(K.z1), r1, rtol=0, atol=1e-12)
        on2 = np.isclose(np.abs(K.z2), r2, rtol=0, atol=1e-12)
        assert np.all(on1 | on2) and on1.any() and on2.any()
        assert np.all(np.abs(K.z2[on1]) <= r2 * (1 + 1e-9))
        assert np.all(np.abs(K.z1[on2]) <= r1 * (1 + 1e-9))
        # both masks drop points: each circle lifts 3 x 128
        assert on1.sum() < 3 * 128 and on2.sum() < 3 * 128

    def test_z1disk_stays_on_circle(self, hyp):
        K = sample(hyp, Z1Disk(1.3, resolution=64))
        assert np.allclose(np.abs(K.z1), 1.3, atol=1e-10)

    def test_residual_invariant(self, hyp):
        for desc in (Z1Disk(1.0, resolution=64), Z2Interval(-1, 1, resolution=64)):
            K = sample(hyp, desc)
            zmax = np.max(np.abs(K.points))
            assert K.max_residual < 1e-10 * (1 + zmax ** hyp.d)

    def test_points_distinct(self, hyp):
        K = sample(hyp, Z1Disk(1.0, resolution=128))
        keys = {(round(p[0].real, 10), round(p[0].imag, 10),
                 round(p[1].real, 10), round(p[1].imag, 10)) for p in K.points}
        assert len(keys) == len(K.points)

    def test_point_cloud_validates_residual(self, hyp):
        with pytest.raises(SamplingError, match="residual"):
            sample(hyp, PointCloud(points=((1.0 + 0j, 1.0 + 0j),)))

    def test_non_finite_point_rejected(self, hyp):
        # a residual of nan passes the check max_res >= bound
        points = [(np.cosh(t) + 0j, np.sinh(t) + 0j) for t in np.linspace(-1, 1, 17)]
        for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
            points[5] = (bad, points[5][1])
            with pytest.raises(SamplingError, match="non-finite"):
                sample(hyp, PointCloud(points=tuple(points)))

    def test_param_curve_passthrough(self, hyp):
        points = tuple((np.cosh(t) + 0j, np.sinh(t) + 0j)
                       for t in np.linspace(-1, 1, 17))
        K = sample(hyp, PointCloud(points=points))
        assert len(K) == 17

    def test_dedupe_merges_to_12_decimals_keeping_first_in_order(self):
        pts = np.array([
            [0.3 + 0.1j, 0.7 - 0.2j],
            [-0.5 + 0.0j, 0.25 + 0.5j],
            [0.3 + 0.1j + 1e-14, 0.7 - 0.2j],      # merges with row 0
            [-0.5 + 0.0j, 0.25 + 0.5j + 1e-9j],    # stays
            [0.9 + 0.0j, 0.1 + 0.0j],
            [-0.5 - 1e-14j, 0.25 + 0.5j],          # merges with row 1
        ])
        out = sets._dedupe(pts)
        assert np.array_equal(out, pts[[0, 1, 3, 4]])

    def test_dedupe_signed_zeros_are_one_key(self):
        # -0.0 and 0.0 round to equal parts, so their rows are repeats
        pts = np.array([
            [complex(1.0, 0.0), complex(-0.0, 0.5)],
            [complex(1.0, -0.0), complex(0.0, 0.5)],
            [complex(-0.0, -0.0), complex(0.25, -0.0)],
            [complex(0.0, 0.0), complex(0.25, 0.0)],
            [complex(-1e-14, 0.0), complex(0.25, 1e-14)],
        ])
        out = sets._dedupe(pts)
        assert out.tobytes() == pts[[0, 2]].tobytes()

    def test_dedupe_matches_the_loop_reference(self, torus_set_small):
        def reference(points):
            seen, out = set(), []
            for p in points:
                key = (round(p[0].real, 12), round(p[0].imag, 12),
                       round(p[1].real, 12), round(p[1].imag, 12))
                if key not in seen:
                    seen.add(key)
                    out.append(p)
            return np.array(out)

        P = torus_set_small.points
        rng = np.random.default_rng(5)
        pts = np.concatenate([P, P * (1 + 1e-15), P[::3] + 1e-9, P[::-2]])
        pts = pts[rng.permutation(len(pts))]
        assert np.array_equal(sets._dedupe(pts), reference(pts))


def _per_value_roots(curve, z, axis):
    """Reference lift: np.roots at each value, then one Newton step."""
    pts = []
    for zv in z:
        if axis == "z1":
            terms = {(a, b): c for (a, b), c in curve.defining.terms.items()}
        else:
            terms = {(b, a): c for (a, b), c in curve.defining.terms.items()}
        deg = max(e for _, e in terms)
        coeffs = np.zeros(deg + 1, dtype=complex)
        for (f, e), c in terms.items():
            coeffs[deg - e] += c * zv ** f
        for w in np.roots(coeffs):
            val = sum(c * zv ** f * w ** e for (f, e), c in terms.items())
            dv = sum(e * c * zv ** f * w ** (e - 1) for (f, e), c in terms.items() if e)
            if abs(dv) >= 1e-8:
                w = w - val / dv
            pts.append((zv, w) if axis == "z1" else (w, zv))
    return np.array(pts)


def _per_angle_torus(curve, desc):
    """Reference torus sample: at each angle, P restricted to the line
    v1 = r1 e^(it), expanded as a polynomial in w = v2 and solved by
    np.roots; the roots with |w| = r2 are mapped back to (z1, z2)."""
    v1, v2 = curve.dirbasis
    M = np.array(
        [[v1.coeff(1, 0), v1.coeff(0, 1)], [v2.coeff(1, 0), v2.coeff(0, 1)]],
        dtype=complex,
    )
    Minv = np.linalg.inv(M)
    pts = []
    ts = 2.0 * np.pi * np.arange(desc.resolution) / desc.resolution
    for t in ts:
        c = desc.r1 * np.exp(1j * t)
        zc = Minv @ np.array([c, 0.0])
        zw = Minv @ np.array([0.0, 1.0])
        coeffs = {}
        for (a, b), cf in curve.defining.terms.items():
            pa = np.polynomial.polynomial.polypow([zc[0], zw[0]], a) if a else np.array([1.0 + 0j])
            pb = np.polynomial.polynomial.polypow([zc[1], zw[1]], b) if b else np.array([1.0 + 0j])
            for k, v in enumerate(np.convolve(pa, pb) * cf):
                coeffs[k] = coeffs.get(k, 0j) + v
        poly = np.array([coeffs.get(k, 0j) for k in range(max(coeffs), -1, -1)])
        poly = np.trim_zeros(poly, "f")
        if len(poly) <= 1:
            continue
        for w in np.roots(poly):
            if abs(abs(w) - desc.r2) <= 1e-6 * max(1.0, desc.r2):
                pts.append(Minv @ np.array([c, w]))
    return sets._dedupe(np.array(pts))


class TestTorusLift:
    @pytest.mark.parametrize("gamma, desc", [
        (1.0, AbsV1V2Torus(0.5, 0.5, resolution=64)),
        (1.0, AbsV1V2Torus(0.5, 0.5, resolution=512)),
        (1.0, AbsV1V2Torus(0.5, 0.5, resolution=1024)),
        (2.0, AbsV1V2Torus(1.0, 0.5, resolution=512)),
    ])
    def test_matches_per_angle_roots(self, gamma, desc):
        curve = hyperbola(gamma)
        K = sample(curve, desc)
        ref = _per_angle_torus(curve, desc)
        # same count, same (angle, root) order
        assert K.points.shape == ref.shape
        assert np.max(np.abs(K.points - ref)) <= 1e-15


class TestBatchedLift:
    @pytest.mark.parametrize("axis", ["z1", "z2"])
    def test_matches_per_value_roots(self, cubic7, axis):
        z = 1.2 * np.exp(2j * np.pi * np.arange(97) / 97)
        row, z1, z2 = sets._lift(cubic7.defining, z, axis)
        ref = _per_value_roots(cubic7, z, axis)
        assert len(z1) == len(ref) == 3 * len(z)
        assert np.array_equal(row, np.repeat(np.arange(len(z)), 3))
        got = np.stack([z1, z2], axis=1)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_circle_keeps_angle_then_root_order(self, cubic7):
        pts = np.array(sets._lift_circle(cubic7.defining, 1.2, 64, "z1"))
        z = 1.2 * np.exp(1j * (2.0 * np.pi / 64) * np.arange(64))
        ref = _per_value_roots(cubic7, z, "z1")
        assert pts.shape == ref.shape
        assert np.max(np.abs(pts - ref) / np.abs(ref)) <= 1e-14

    @staticmethod
    def _corrupt_first_angle(monkeypatch, calls):
        """Make angle 0 fail the residual check for the first `calls` lifts."""
        lift = sets._lift
        seen = []

        def corrupted(P, z, axis):
            row, z1, z2 = lift(P, z, axis)
            seen.append(z.copy())
            if len(seen) <= calls:
                z2 = np.where(row == 0, z2 + 1.0, z2)
            return row, z1, z2

        monkeypatch.setattr(sets, "_lift", corrupted)
        return seen

    def test_failing_angle_retried_at_half_step(self, monkeypatch, cubic7):
        clean = sets._lift_circle(cubic7.defining, 1.2, 32, "z1")
        seen = self._corrupt_first_angle(monkeypatch, calls=1)
        pts = sets._lift_circle(cubic7.defining, 1.2, 32, "z1")
        # only the failing angle is lifted again, half a step further on
        assert [len(z) for z in seen] == [32, 1]
        assert seen[1][0] == pytest.approx(1.2 * np.exp(1j * np.pi / 32), abs=1e-15)
        assert len(pts) == len(clean)
        assert all(p[0] == pytest.approx(seen[1][0], abs=1e-15) for p in pts[:3])
        assert np.array_equal(pts[3:], clean[3:])

    def test_three_failed_retries_raise(self, monkeypatch, cubic7):
        seen = self._corrupt_first_angle(monkeypatch, calls=4)
        with pytest.raises(SamplingError, match="after 3 retries"):
            sets._lift_circle(cubic7.defining, 1.2, 32, "z1")
        assert [len(z) for z in seen] == [32, 1, 1, 1]


class TestSupNorm:
    def test_v1_on_symmetric_torus(self, hyp, torus_set):
        assert sup_norm(hyp.dirbasis[0], torus_set) == pytest.approx(0.5, abs=1e-10)

    def test_constant(self, torus_set):
        assert sup_norm(BivarPoly.constant(1.0), torus_set) == pytest.approx(1.0)

    def test_z1_on_disk(self, hyp):
        for r in (0.7, 1.3):
            K = sample(hyp, Z1Disk(r, resolution=64))
            got = sup_norm(BivarPoly.monomial(1, 0), K)
            assert got == pytest.approx(r, abs=1e-10)

    coeffs = st.complex_numbers(min_magnitude=1e-2, max_magnitude=3.0,
                                allow_nan=False, allow_infinity=False)
    small_polys = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs,
        min_size=1, max_size=4).map(BivarPoly)

    @given(p=small_polys, q=small_polys)
    @settings(max_examples=30, deadline=None)
    def test_submultiplicative(self, p, q, hyp, torus_set_small):
        lhs = sup_norm(p * q, torus_set_small)
        rhs = sup_norm(p, torus_set_small) * sup_norm(q, torus_set_small)
        assert lhs <= rhs * (1 + 1e-12)

    def test_refinement_monotone_and_stable(self, hyp):
        # doubling the resolution keeps the grids nested, so the discrete
        # sup can only grow, and by less than 1% at this scale
        rng = np.random.default_rng(5)
        p = BivarPoly({(a, b): rng.normal() + 1j * rng.normal()
                       for a in range(17) for b in range(2) if a + b <= 16})
        for desc_lo, desc_hi in [
            (Z1Disk(1.0, resolution=512), Z1Disk(1.0, resolution=1024)),
            (Z2Interval(-1, 1, resolution=512), Z2Interval(-1, 1, resolution=1024)),
            (AbsV1V2Torus(0.5, 0.5, resolution=512), AbsV1V2Torus(0.5, 0.5, resolution=1024)),
        ]:
            lo = sup_norm(p, sample(hyp, desc_lo))
            hi = sup_norm(p, sample(hyp, desc_hi))
            assert hi >= lo * (1 - 1e-12)
            assert (hi - lo) / hi < 0.01


class TestPointCloudIO:
    def test_round_trip(self, tmp_path):
        pts = [(1.5 + 0.25j, -0.5 + 2j), (0.0 + 0j, 1.0 - 1e-14j)]
        path = tmp_path / "cloud.txt"
        write_point_cloud(path, pts)
        back = read_point_cloud(path)
        assert len(back) == 2
        for (a, b), (c, d) in zip(pts, back):
            assert a == pytest.approx(c) and b == pytest.approx(d)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("# header\n\n1 0 2 0  # a point\n")
        assert read_point_cloud(path) == [(1 + 0j, 2 + 0j)]

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("1 0 2\n")
        with pytest.raises(ValueError, match="4 columns"):
            read_point_cloud(path)
