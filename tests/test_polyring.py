import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvecheb import (
    BivarPoly,
    CurveError,
    basis_enumerate,
    cjk_table,
    curve_new,
    expand_in_basis,
    leading_part,
    multiply,
    normal_form,
    polyprop_residual,
)
from curvecheb.polyring import (
    BASIS_C,
    BASIS_S,
    basis_combination,
    basis_through_degree,
    curve_records,
    effective_degree,
    poly_from_records,
    pow_mod,
    read_curve,
    write_curve,
)
from curvecheb.gallery import random_valid_curve

Z1 = BivarPoly.monomial(1, 0)
Z2 = BivarPoly.monomial(0, 1)


# -- coefficient-level strategies for property tests ------------------------

coeffs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False)
monomials = st.tuples(st.integers(0, 5), st.integers(0, 5))
polys = st.dictionaries(monomials, coeffs, min_size=1, max_size=6).map(BivarPoly)


class TestArithmetic:
    def test_difference_of_squares(self):
        got = multiply(Z1 + Z2, Z1 - Z2)
        assert got.close_to(BivarPoly({(2, 0): 1.0, (0, 2): -1.0}))

    def test_multiplicative_identity(self):
        p = BivarPoly({(2, 1): 3.0 - 1j, (0, 0): 2.0})
        assert multiply(p, BivarPoly.constant(1.0)) == p

    def test_v1_v2_product_before_reduction(self, hyp):
        # expand ((z1 - z2)/2) * ((z1 + z2)/2) symbolically
        got = multiply(hyp.dirbasis[0], hyp.dirbasis[1])
        assert got.close_to(BivarPoly({(2, 0): 0.25, (0, 2): -0.25}))

    def test_zero_degree_sentinel(self):
        assert BivarPoly.zero().degree == float("-inf")
        assert (Z1 - Z1).is_zero

    @given(p=polys)
    @settings(max_examples=40, deadline=None)
    def test_term_order_is_not_part_of_the_value(self, p):
        # the same terms inserted in reverse compare and hash equal
        items = list(p.terms.items())
        q = BivarPoly(dict(reversed(items)))
        assert list(q.terms.items()) == list(reversed(items))
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1 and {p: 1}[q] == 1

    @given(p=polys, q=polys)
    @settings(max_examples=40, deadline=None)
    def test_product_degree_law(self, p, q):
        assert multiply(p, q).degree == p.degree + q.degree

    @given(p=polys, q=polys)
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_ring_morphism(self, p, q):
        z1, z2 = 0.7 - 0.2j, -0.4 + 1.1j
        lhs = multiply(p, q)(z1, z2)
        rhs = p(z1, z2) * q(z1, z2)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestLeadingPart:
    def test_hyperbola_defining(self):
        p = BivarPoly({(2, 0): 1.0, (0, 2): -1.0, (0, 0): -1.0})
        assert leading_part(p).close_to(BivarPoly({(2, 0): 1.0, (0, 2): -1.0}))

    def test_already_homogeneous(self):
        assert leading_part(Z1) == Z1

    def test_unique_top_term(self):
        p = BivarPoly({(0, 3): 1.0, (1, 1): 1.0, (0, 0): 5.0})
        assert leading_part(p) == BivarPoly.monomial(0, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="no leading part"):
            leading_part(BivarPoly.zero())


class TestCurveNew:
    def test_hyperbola(self, hyp):
        assert hyp.d == 2
        assert sorted(z.real for z in hyp.directions) == pytest.approx([-1.0, 1.0])
        assert hyp.dirbasis[0].close_to(BivarPoly({(1, 0): 0.5, (0, 1): -0.5}))
        assert hyp.dirbasis[1].close_to(BivarPoly({(1, 0): 0.5, (0, 1): 0.5}))

    def test_coordinate_axes_need_relaxed_mode(self):
        P = BivarPoly({(1, 1): 1.0, (0, 0): -0.25})
        with pytest.raises(CurveError, match="horizontal asymptote"):
            curve_new(P)
        curve = curve_new(P, relaxed=True)
        assert curve.relaxed and curve.dirbasis is None

    def test_parabola_rejected(self):
        P = BivarPoly({(0, 2): 1.0, (1, 0): -1.0})
        with pytest.raises(CurveError, match="axis-parallel asymptote"):
            curve_new(P)

    def test_duplicate_directions_rejected(self):
        # leading part (z2 - z1)^2 has a double root
        lead = multiply(Z2 - Z1, Z2 - Z1)
        with pytest.raises(CurveError, match="non-distinct directions"):
            curve_new(lead + BivarPoly.constant(1.0))

    def test_degree_one_rejected(self):
        with pytest.raises(CurveError, match="degree >= 2"):
            curve_new(Z1 + Z2)

    @settings(max_examples=60, deadline=None)
    @given(phase=st.floats(0.0, 2 * np.pi), phase2=st.floats(0.0, 2 * np.pi),
           t=st.floats(0.0, 1.0))
    def test_direction_tolerances(self, phase, phase2, t):
        # (z2 - lam z1)(z2 - mu z1) - 1 with |lam| = 1; the band between
        # the two separation cases is left out: the roots of a near-double
        # root carry errors of about sqrt(eps) there
        lam = complex(np.exp(1j * phase))

        def curve(mu):
            return curve_new((Z2 - Z1 * lam) * (Z2 - Z1 * complex(mu)) - 1.0)

        with pytest.raises(CurveError, match="non-distinct directions"):
            curve(lam * (1 + 3e-8 * t))
        # the v_j grow like 1 / (mu - lam), and their check scales with them
        assert curve(lam * (1 + 3e-7 * 10 ** (6 * t))).dirbasis is not None
        with pytest.raises(CurveError, match="axis-parallel asymptote"):
            curve(3e-9 * t * np.exp(1j * phase2))
        assert curve(3e-8 * 10 ** (6 * t) * np.exp(1j * phase2)).dirbasis is not None

    def test_delta_normalization_on_random_curves(self):
        for seed in range(5):
            curve = random_valid_curve(4, seed=seed)
            for j, v in enumerate(curve.dirbasis):
                for k, lam in enumerate(curve.directions):
                    want = 1.0 if j == k else 0.0
                    assert abs(v(1.0, lam) - want) < 1e-10


class TestNormalForm:
    def test_z2_squared(self, hyp):
        got = normal_form(hyp, BivarPoly.monomial(0, 2))
        assert got.close_to(BivarPoly({(2, 0): 1.0, (0, 0): -1.0}))

    def test_reduced_unchanged(self, hyp):
        p = BivarPoly({(3, 1): 2.0, (0, 0): 1.0})
        assert normal_form(hyp, p) == p

    def test_v1_v2_reduces_to_constant(self, hyp):
        got = normal_form(hyp, multiply(hyp.dirbasis[0], hyp.dirbasis[1]))
        assert got.close_to(BivarPoly.constant(0.25))

    def test_coordinate_hyperbola_reduction(self, aeps):
        got = normal_form(aeps, BivarPoly.monomial(1, 1))
        assert got.close_to(BivarPoly.constant(0.25))

    def test_evaluation_preserved_on_curve(self, hyp, disk1_set):
        rng = np.random.default_rng(3)
        pts = disk1_set.points[rng.choice(len(disk1_set.points), 100, replace=False)]
        p = BivarPoly({(0, 4): 1.5 - 0.5j, (2, 3): -0.75, (1, 0): 1j})
        q = normal_form(hyp, p)
        va = p(pts[:, 0], pts[:, 1])
        vb = q(pts[:, 0], pts[:, 1])
        scale = np.maximum(1.0, np.abs(va))
        assert np.max(np.abs(va - vb) / scale) < 1e-9


class TestBases:
    def test_s_enumeration_hyperbola(self, hyp):
        labels = [b.label for b in basis_enumerate(hyp, BASIS_S, 5)]
        assert labels == ["z1^0*z2^0", "z1^1*z2^0", "z1^0*z2^1",
                          "z1^2*z2^0", "z1^1*z2^1"]

    def test_c_enumeration_hyperbola(self, hyp):
        labels = [b.label for b in basis_enumerate(hyp, BASIS_C, 5)]
        assert labels == ["z1^0*z2^0", "z1^0*v1^1", "z1^0*v2^1",
                          "z1^0*v1^2", "z1^0*v2^2"]

    def test_first_element_is_constant(self, cubic7):
        for basis in (BASIS_S, BASIS_C):
            first = basis_enumerate(cubic7, basis, 1)[0]
            assert first.poly.close_to(BivarPoly.constant(1.0))

    def test_coordinate_hyperbola_s_basis(self, aeps):
        labels = [b.label for b in basis_enumerate(aeps, BASIS_S, 7)]
        assert labels == ["z1^0*z2^0", "z1^1*z2^0", "z1^0*z2^1",
                          "z1^2*z2^0", "z1^0*z2^2", "z1^3*z2^0", "z1^0*z2^3"]

    def test_c_basis_refused_in_relaxed_mode(self, aeps):
        with pytest.raises(CurveError):
            basis_enumerate(aeps, BASIS_C, 3)

    def test_degrees_nondecreasing(self, cubic7):
        for basis in (BASIS_S, BASIS_C):
            degs = [b.degree for b in basis_enumerate(cubic7, basis, 40)]
            assert degs == sorted(degs)

    def test_block_structure_matches_division(self, cubic7):
        d = cubic7.d
        for el in basis_enumerate(cubic7, BASIS_C, 30):
            if el.shape[0] == "dir":
                _, r, k, q = el.shape
                assert el.degree == q * (d - 1) + r and 0 <= r < d - 1


def _scratch_element(curve, shape):
    """A basis element's normal form, powers taken without any cache."""
    if shape[0] == "monomial":
        return BivarPoly.monomial(shape[1], shape[2])
    _, r, k, q = shape
    base = normal_form(curve, curve.dirbasis[k - 1])
    power = BivarPoly.constant(1.0)
    for _ in range(q):
        power = normal_form(curve, power * base)
    return normal_form(curve, BivarPoly.monomial(r, 0) * power)


class TestBasisCache:
    def test_prefixes_equal_scratch_build(self, cubic7):
        curve = curve_new(cubic7.defining)
        d = curve.d
        for basis in (BASIS_S, BASIS_C):
            # a short enumeration first, so the prefix is extended in pieces
            basis_enumerate(curve, basis, 7)
            elems = basis_through_degree(curve, basis, 24)
            assert basis_enumerate(curve, basis, len(elems)) == elems
            i = 0
            for n in range(25):
                if basis == BASIS_S or n <= d - 2:
                    shapes = [("monomial", n - b, b) for b in range(min(n, d - 1) + 1)]
                    labels = [f"z1^{a}*z2^{b}" for _, a, b in shapes]
                else:
                    q, r = divmod(n, d - 1)
                    shapes = [("dir", r, k, q) for k in range(1, d + 1)]
                    labels = [f"z1^{r}*v{k}^{q}" for k in range(1, d + 1)]
                for shape, label in zip(shapes, labels):
                    el = elems[i]
                    i += 1
                    assert (el.index, el.degree, el.label, el.shape) == (i, n, label, shape)
                    assert el.poly == _scratch_element(curve, shape)
            assert i == len(elems)

    def test_enumeration_and_equality_build_no_polynomial(self, cubic7, ring_calls):
        curve = curve_new(cubic7.defining)
        elems = basis_through_degree(curve, BASIS_C, 24)
        assert basis_enumerate(curve, BASIS_C, len(elems)) == elems
        assert "poly" not in repr(elems)
        assert ring_calls == []
        # the polynomial is built on first read and kept
        last = elems[-1]
        assert last.poly is last.poly
        assert ring_calls.count("normal_form") > 0

    def test_element_of_a_dropped_curve(self, cubic7):
        # elements hold their curve weakly, so its cache forms no cycle
        last = basis_enumerate(curve_new(cubic7.defining), BASIS_C, 9)[-1]
        with pytest.raises(ReferenceError, match="z1\\^1\\*v3\\^1 no longer exists"):
            last.poly

    def test_pow_mod_equals_scratch_powers(self, cubic7):
        curve = curve_new(cubic7.defining)
        v = curve.dirbasis[1]
        table = [pow_mod(curve, v, q) for q in (5, 2, 9, 0)]
        for q, got in zip((5, 2, 9, 0), table):
            assert got == _scratch_element(curve, ("dir", 0, 2, q))

    def test_equal_curves_share_no_cache(self, cubic7):
        a = curve_new(cubic7.defining)
        b = curve_new(cubic7.defining)
        key = (a == b, hash(a) == hash(b), repr(a) == repr(b))
        hash_before = hash(a)
        basis_through_degree(a, BASIS_C, 12)
        assert a._cache and not b._cache
        assert a._cache is not b._cache
        assert (a == b, hash(a) == hash(b), repr(a) == repr(b)) == key == (True, True, True)
        assert hash(a) == hash_before
        assert "_cache" not in repr(a)


class TestExpand:
    def test_z2_in_directional_basis(self, hyp):
        coeffs = expand_in_basis(hyp, Z2, BASIS_C)
        # hand-solved 2x2 system: z2 = v2 - v1
        assert np.allclose(coeffs, [0.0, -1.0, 1.0], atol=1e-12)

    def test_basis_element_is_unit_vector(self, cubic7):
        for basis in (BASIS_S, BASIS_C):
            elems = basis_enumerate(cubic7, basis, 8)
            coeffs = expand_in_basis(cubic7, elems[7].poly, basis)
            want = np.zeros(len(coeffs), dtype=complex)
            want[7] = 1.0
            assert np.allclose(coeffs, want, atol=1e-9)

    def test_z1_decomposition(self, hyp):
        coeffs = expand_in_basis(hyp, Z1, BASIS_C)
        assert np.allclose(coeffs, [0.0, 1.0, 1.0], atol=1e-12)

    def test_round_trip_through_degree_12(self, cubic7):
        rng = np.random.default_rng(11)
        p = normal_form(cubic7, BivarPoly({
            (a, b): rng.normal() + 1j * rng.normal()
            for a in range(9) for b in range(4) if a + b <= 12
        }))
        for basis in (BASIS_S, BASIS_C):
            coeffs = expand_in_basis(cubic7, p, basis)
            back = basis_combination(cubic7, basis, coeffs)
            assert back.close_to(p, tol=1e-10)


class TestCjk:
    def test_hyperbola_rows(self, hyp):
        table = cjk_table(hyp)
        assert np.allclose(table.row(0), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(table.row(1), [1.0, 1.0], atol=1e-12)

    def test_top_row_all_ones(self, cubic7):
        table = cjk_table(cubic7)
        assert np.allclose(table.row(cubic7.d - 1), 1.0, atol=1e-9)

    def test_nonvanishing_on_random_cubic(self):
        for seed in (1, 2, 3):
            curve = random_valid_curve(3, seed=seed)
            table = cjk_table(curve)
            assert np.min(np.abs(table.entries)) > 1e-10

    def test_against_bruteforce_solve(self, cubic7):
        # independent oracle: match coefficients of the degree-(d-1) block
        # via a dense linear solve over the S coordinates
        d = cubic7.d
        selems = basis_through_degree(cubic7, BASIS_S, d - 1)
        celems = basis_through_degree(cubic7, BASIS_C, d - 1)
        spos = {el.shape[1:]: i for i, el in enumerate(selems)}
        M = np.zeros((len(selems), len(celems)), dtype=complex)
        for j, el in enumerate(celems):
            for (a, b), c in el.poly.terms.items():
                M[spos[(a, b)], j] = c
        table = cjk_table(cubic7)
        block = [i for i, el in enumerate(celems) if el.degree == d - 1]
        for j in range(d):
            rhs = np.zeros(len(selems), dtype=complex)
            mono = normal_form(cubic7, BivarPoly.monomial(j, d - 1 - j))
            for (a, b), c in mono.terms.items():
                rhs[spos[(a, b)]] = c
            sol = np.linalg.solve(M, rhs)
            assert np.allclose(sol[block], table.row(j), atol=1e-9)


class TestStructuralIdentities:
    @pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_v_products_drop_degree(self, d, seed):
        curve = random_valid_curve(d, seed=seed)
        floor = 1e-10 * max(v.max_coeff() for v in curve.dirbasis) ** 2
        for j in range(d):
            for k in range(d):
                if j == k:
                    resid = normal_form(
                        curve,
                        multiply(curve.dirbasis[j], curve.dirbasis[j])
                        - multiply(BivarPoly.monomial(d - 1, 0), curve.dirbasis[j]),
                    )
                else:
                    resid = normal_form(curve, multiply(curve.dirbasis[j], curve.dirbasis[k]))
                assert effective_degree(resid, floor) <= 2 * d - 3

    @pytest.mark.parametrize("d,seed", [(2, 4), (3, 5), (4, 6)])
    def test_asymptote_factor_kills_leading(self, d, seed):
        curve = random_valid_curve(d, seed=seed)
        for j, lam in enumerate(curve.directions):
            factor = BivarPoly({(0, 1): 1.0, (1, 0): -lam})
            resid = normal_form(curve, multiply(curve.dirbasis[j], factor))
            floor = 1e-10 * curve.dirbasis[j].max_coeff() * max(1.0, abs(lam))
            assert effective_degree(resid, floor) <= d - 1

    @pytest.mark.parametrize("d,seed", [(2, 7), (3, 8), (5, 9)])
    def test_z1_power_is_sum_of_directions(self, d, seed):
        curve = random_valid_curve(d, seed=seed)
        s = BivarPoly.monomial(d - 1, 0)
        for v in curve.dirbasis:
            s = s - v
        floor = 1e-10 * max(v.max_coeff() for v in curve.dirbasis)
        assert effective_degree(normal_form(curve, s), floor) <= d - 2

    @pytest.mark.parametrize("d,seed", [(3, 10), (4, 11)])
    def test_power_ladder_identity(self, d, seed):
        # z1^l v^m and z1^n v agree to lower order when l + (d-1)(m-1) = n
        curve = random_valid_curve(d, seed=seed)
        v = curve.dirbasis[1]
        for l in range(d - 1):
            for m in (2, 3):
                n = l + (d - 1) * (m - 1)
                lhs = normal_form(curve, BivarPoly.monomial(l, 0) * pow_mod(curve, v, m))
                rhs = normal_form(curve, multiply(BivarPoly.monomial(n, 0), v))
                floor = 1e-9 * max(lhs.max_coeff(), rhs.max_coeff())
                assert effective_degree(lhs - rhs, floor) < n + d - 1

    def test_residual_trivial_for_constant(self, cubic7):
        resid = polyprop_residual(cubic7, BivarPoly.constant(1.0), 1)
        floor = 1e-10 * max(v.max_coeff() for v in cubic7.dirbasis)
        assert effective_degree(resid, floor) <= 0

    def test_residual_hyperbola_z2(self, hyp):
        # qhat(1, lam_1) = -1, so the residual is nf((z2 + z1) v1)
        resid = polyprop_residual(hyp, Z2, 1)
        assert effective_degree(resid, 1e-12) <= 1

    @pytest.mark.parametrize("seed", [12, 13])
    def test_residual_degree_bound_random(self, seed):
        curve = random_valid_curve(3, seed=seed)
        rng = np.random.default_rng(seed + 100)
        q = BivarPoly({(a, b): rng.normal() + 1j * rng.normal()
                       for a in range(4) for b in range(3) if 0 < a + b <= 3})
        floor = 1e-9 * q.max_coeff() * max(v.max_coeff() for v in curve.dirbasis)
        for k in range(1, curve.d + 1):
            resid = polyprop_residual(curve, q, k)
            assert effective_degree(resid, floor) < int(q.degree) + curve.d - 1


class TestCurveIO:
    def test_round_trip(self, tmp_path, cubic7):
        path = tmp_path / "curve.json"
        write_curve(path, cubic7.defining)
        back = read_curve(path)
        assert back.close_to(cubic7.defining, tol=1e-15)

    def test_records_sorted_canonically(self):
        p = BivarPoly({(0, 2): 1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 0): -1.0})
        recs = curve_records(p)
        keys = [(r["a"] + r["b"], r["b"]) for r in recs]
        assert keys == sorted(keys)

    def test_records_preserve_17_digits(self, tmp_path):
        val = 0.1234567890123456789
        p = BivarPoly({(1, 0): val, (0, 2): 1.0})
        path = tmp_path / "c.json"
        write_curve(path, p)
        with open(path) as fh:
            doc = json.load(fh)
        got = [r for r in doc["terms"] if r["a"] == 1][0]["re"]
        assert got == pytest.approx(val, abs=0, rel=1e-16)
        assert poly_from_records(doc["terms"]).close_to(p, tol=1e-16)
