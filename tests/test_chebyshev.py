import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecheb import AbsV1V2Torus, BivarPoly, Z1Disk, Z2Interval, sample, sup_norm
from curvecheb import chebyshev, minimax
from curvecheb.polyring import (
    BASIS_C,
    BASIS_S,
    basis_enumerate,
    basis_through_degree,
    normal_form,
    parent_rule,
    pow_mod,
)
from curvecheb.sets import PointCloud, SampleTooSmall
from curvecheb.chebyshev import (
    MQ,
    MRQ,
    Mz1jVk,
    SolverOptions,
    Tau,
    TildeMl,
    Zk,
    ClassSpecError,
    basis_values,
    chebyshev_sequence,
    chebyshev_solve,
    class_parametrize,
    constant_estimate,
    descending_direction_order,
    solves_on,
    tau_sequence,
)
from curvecheb.verify import comparison_report, verify_report

Z1 = BivarPoly.monomial(1, 0)
Z2 = BivarPoly.monomial(0, 1)


class TestClassParametrize:
    def test_mq_v1_cubed(self, hyp):
        leading, free = class_parametrize(hyp, MQ(hyp.dirbasis[0]), 3)
        assert leading.close_to(pow_mod(hyp, hyp.dirbasis[0], 3))
        assert int(leading.degree) == 3
        # free family: every standard monomial of strictly smaller degree
        assert [b.degree for b in free] == [0, 1, 1, 2, 2]

    def test_zk_leading_and_prefix(self, hyp):
        leading, free = class_parametrize(hyp, Zk(1), 4)
        assert leading == BivarPoly.monomial(4, 1)
        # strictly earlier elements of the graded S ordering: all of degree
        # < 5 plus the in-block predecessor z1^5
        labels = [b.label for b in free]
        assert labels[-1] == "z1^5*z2^0"
        assert len(free) == 10

    def test_directional_j_range_enforced(self, hyp):
        with pytest.raises(ClassSpecError, match="j must satisfy"):
            class_parametrize(hyp, Mz1jVk(1, 1), 2)

    def test_homogeneity_enforced(self):
        with pytest.raises(ClassSpecError, match="homogeneous"):
            MQ(Z1 + BivarPoly.constant(1.0))

    def test_degree_losing_product_refused(self, hyp):
        # v2 v1 is constant on the hyperbola, so v2 v1^n has degree n - 1:
        # its residual cannot be built by projecting off degree < n + 1
        with pytest.raises(ClassSpecError, match="loses degree"):
            class_parametrize(hyp, MRQ(hyp.dirbasis[1], hyp.dirbasis[0]), 2)

    @pytest.mark.parametrize("n", [5, 300])
    def test_degree_losing_product_refused_past_d(self, hyp, n):
        # past n = d the loss is decided at n = d, where no term is pruned
        with pytest.raises(ClassSpecError, match="loses degree"):
            class_parametrize(hyp, MRQ(hyp.dirbasis[1], hyp.dirbasis[0]), n)

    @pytest.mark.parametrize("n", [178, 180, 200, 300])
    def test_high_power_keeps_its_degree(self, hyp, n):
        # PRUNE_REL drops the top terms of NF(v1^n) from n = 178 on, yet the
        # class stays valid: its free basis is the S basis below degree n
        _, free = class_parametrize(hyp, MQ(hyp.dirbasis[0]), n)
        assert free == basis_through_degree(hyp, BASIS_S, n - 1)
        assert MQ(hyp.dirbasis[0]).degree(hyp, n) == n

    def test_c_classes_refused_on_relaxed_curve(self, aeps):
        with pytest.raises(Exception, match="relaxed"):
            class_parametrize(aeps, Mz1jVk(0, 1), 2)

    def test_tilde_free_family_extends_full_lot(self, hyp):
        # the graded-C prefix contains everything of lower degree plus the
        # earlier same-degree block elements
        lead_t, free_t = class_parametrize(hyp, TildeMl(0, 2), 3)
        lead_m, free_m = class_parametrize(hyp, Mz1jVk(0, 2), 3)
        assert lead_t.close_to(lead_m)
        assert len(free_t) == len(free_m) + 1

    def test_unit_prefactor_is_the_power_class(self, hyp, torus_set_small):
        q = hyp.dirbasis[1]
        plain, unit = MQ(q), MRQ(BivarPoly.constant(1.0), q)
        for n in (1, 2, 5):
            lead_p, free_p = class_parametrize(hyp, plain, n)
            lead_u, free_u = class_parametrize(hyp, unit, n)
            assert list(lead_u.terms.items()) == list(lead_p.terms.items())
            assert free_u == free_p
            # the second item builds the residual's polynomial when called
            vals_u, build_u = unit.leading_residual(hyp, n, torus_set_small)
            vals_p, build_p = plain.leading_residual(hyp, n, torus_set_small)
            assert np.array_equal(vals_u, vals_p)
            assert list(build_u().terms.items()) == list(build_p().terms.items())

    @pytest.mark.parametrize("k", [1, 2])
    def test_direction_class_without_prefactor_is_the_power_class(self, hyp, torus_set_small, k):
        for n in (1, 3):
            a = chebyshev_solve(hyp, Mz1jVk(0, k), torus_set_small, n)
            b = chebyshev_solve(hyp, MQ(hyp.dirbasis[k - 1]), torus_set_small, n)
            assert a.minimizer == b.minimizer
            assert a.norm == b.norm

    def test_product_free_basis_sizes_on_cubic(self, cubic7):
        def sizes(spec):
            return [len(class_parametrize(cubic7, spec, n)[1]) for n in range(1, 5)]

        # the S basis of a cubic has blocks of 1, 2, 3, 3, ... elements
        assert sizes(MRQ(Z2, Z1)) == [3, 6, 9, 12]
        assert sizes(MRQ(Z1 * Z2, cubic7.dirbasis[0])) == [9, 15, 21, 27]
        assert sizes(Mz1jVk(0, 2)) == [3, 9, 15, 21]
        assert sizes(Mz1jVk(1, 2)) == [6, 12, 18, 24]


@pytest.fixture(scope="module")
def interval512(hyp):
    return sample(hyp, Z2Interval(-1.0, 1.0, resolution=512))


def _count_design_polynomials(monkeypatch):
    """Names of the _Design.poly and _Design.combine calls made while the
    test runs, in call order: the design's polynomial arithmetic."""
    calls = []
    for name in ("poly", "combine"):
        def counted(self, *args, _name=name, _real=getattr(chebyshev._Design, name)):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(chebyshev._Design, name, counted)
    return calls


class TestMinimaxSolve:
    def test_monomial_floor_on_unit_disk(self, hyp, disk1_set):
        for n in range(1, 9):
            s = chebyshev_solve(hyp, Zk(0), disk1_set, n)
            assert s.norm == pytest.approx(1.0, abs=1e-6)
            assert s.converged

    def test_torus_powers_are_exact(self, hyp, torus_set):
        for n in (1, 4, 8):
            s = chebyshev_solve(hyp, MQ(hyp.dirbasis[0]), torus_set, n)
            assert s.norm == pytest.approx(2.0 ** (-n), rel=1e-6)
            assert s.tn == pytest.approx(0.5, abs=1e-6)

    def test_single_interpolation_point(self, hyp):
        # z1 with the constant free: one point is interpolated exactly
        K = sample(hyp, PointCloud(points=((np.sqrt(2) + 0j, 1.0 + 0j),)))
        s = chebyshev_solve(hyp, Zk(0), K, 1)
        assert s.norm == pytest.approx(0.0, abs=1e-12)
        assert s.converged and s.iterations == 1

    def test_free_basis_must_fit(self, hyp):
        K = sample(hyp, PointCloud(points=((np.sqrt(2) + 0j, 1.0 + 0j),)))
        with pytest.raises(SampleTooSmall,
                           match=r"free basis \(5\) must not exceed the sample \(1\)"):
            chebyshev_solve(hyp, Zk(0), K, 3)

    def test_leading_coefficient_is_exactly_one(self, hyp, interval_set):
        s = chebyshev_solve(hyp, Zk(0), interval_set, 5)
        assert s.minimizer.coeff(5, 0) == 1.0

    def test_minimizer_is_built_once_on_first_read(self, hyp, monkeypatch):
        # a fresh sample, so no earlier test has built polynomials on its design
        K = sample(hyp, Z2Interval(-1.0, 1.0, resolution=1024))
        built = _count_design_polynomials(monkeypatch)
        s = chebyshev_solve(hyp, MQ(hyp.dirbasis[0]), K, 6)
        assert built == []      # the solve carries values and steps only
        p = s.minimizer
        assert "combine" in built and "poly" in built
        count = len(built)
        assert s.minimizer is p and len(built) == count
        # it is the residual polynomial plus the columns weighted by u, and
        # its max modulus on the sample is the solve's norm
        assert np.max(np.abs(p(K.z1, K.z2))) == pytest.approx(s.norm, rel=1e-9)

    def test_never_worse_than_pure_leading(self, hyp, interval_set):
        for spec, n in [(Zk(0), 6), (MQ(hyp.dirbasis[0]), 6)]:
            s = chebyshev_solve(hyp, spec, interval_set, n)
            leading, _ = class_parametrize(hyp, spec, n)
            assert s.norm <= sup_norm(leading, interval_set) * (1 + 1e-12)

    def test_stationarity_certificate(self, hyp, interval_set):
        # no single-coefficient perturbation of size 1e-6 * norm may reduce
        # the discrete max below the certified lower bound (the problem is
        # convex, so a drop beyond gap + first-order slack is a bug)
        s = chebyshev_solve(hyp, MQ(hyp.dirbasis[0]), interval_set, 4,
                            SolverOptions(max_iter=800, tol=1e-10))
        _, free = class_parametrize(hyp, MQ(hyp.dirbasis[0]), 4)
        G = basis_values(hyp, free, interval_set.points)
        base = s.minimizer(interval_set.z1, interval_set.z2)
        assert np.max(np.abs(base)) == pytest.approx(s.norm, rel=1e-12)
        delta = 1e-6 * s.norm
        col_scale = float(np.max(np.abs(G)))
        floor = s.norm - s.gap - 2 * delta * col_scale
        for j in range(len(free)):
            for phase in np.exp(2j * np.pi * np.arange(8) / 8):
                perturbed = np.max(np.abs(base + delta * phase * G[:, j]))
                assert perturbed >= floor

    def test_class_inclusion_monotonicity(self, hyp, interval_set):
        # same leading monomial, strictly larger free family: the graded
        # prefix class can only do better (up to the certified gaps)
        for n in (3, 5):
            bigger = chebyshev_solve(hyp, Zk(1), interval_set, n)
            smaller = chebyshev_solve(hyp, MRQ(Z2, Z1), interval_set, n)
            assert smaller.total_degree == bigger.total_degree
            assert bigger.norm - bigger.gap <= smaller.norm * (1 + 1e-9)

    def test_rank_deficient_design_uses_ridge(self, hyp):
        # z1^2 = 2 on these four points, so the free prefix 1, z1, z2, z1^2
        # of z1 z2 is linearly dependent on K
        K = sample(hyp, PointCloud(points=tuple((a * np.sqrt(2) + 0j, b + 0j)
                                               for a in (1, -1) for b in (1, -1))))
        _, free = class_parametrize(hyp, Zk(1), 1)
        assert [b.label for b in free][-1] == "z1^2*z2^0"
        s = chebyshev_solve(hyp, Zk(1), K, 1)
        assert s.ridge_used
        assert np.isfinite(s.norm)
        # z1 z2 is +-sqrt(2) and orthogonal on K to 1, z1 and z2
        assert s.norm == pytest.approx(np.sqrt(2), rel=1e-6)

    def test_interval_solves_to_degree_24_converge(self, hyp, interval512):
        # and on to degree 40: the raw monomials reach cond 1e15 near degree
        # 28 on the interval, the orthonormal design keeps full rank, and
        # M(v1) follows its closed form tn = 0.5 (2 sqrt 2)^(1/n)
        for spec in (MQ(hyp.dirbasis[0]), Zk(0), Zk(1)):
            for n in range(1, 41):
                s = chebyshev_solve(hyp, spec, interval512, n)
                assert s.converged and s.gap <= SolverOptions().tol * s.norm, (spec, n)
                assert not s.ridge_used, (spec, n)
                if spec == MQ(hyp.dirbasis[0]) and n >= 8:
                    assert abs(s.tn - 0.5 * (2 * np.sqrt(2)) ** (1 / n)) <= 1e-3, n

    def test_log_norm_subadditive(self, hyp, disk07_set, interval512):
        # the product of the minimizers at a and at b is in the class at
        # a + b, so norm(a + b) <= norm(a) norm(b) exactly on the sample
        for K, n_max in ((disk07_set, 8), (interval512, 40)):
            solves = {n: chebyshev_solve(hyp, MQ(hyp.dirbasis[0]), K, n)
                      for n in range(1, n_max + 1)}
            for n in range(2, n_max + 1):
                for a in range(1, n):
                    bound = solves[a].norm * solves[n - a].norm
                    assert solves[n].norm - solves[n].gap <= bound * (1 + 1e-9), (n, a)

    def test_sequence_extends_one_product_chain(self, hyp, ring_calls):
        # a sequence to 12 takes one chain link per n, where recomputing the
        # chain for every n takes n(n+1)/2 of them, and a link is values: no
        # normal form; the links are those of a fresh set solved at that n
        # alone
        K = sample(hyp, Z2Interval(-1.0, 1.0, resolution=512))
        spec, top = MQ(hyp.dirbasis[0]), 12
        chebyshev_solve(hyp, Zk(0), K, top)     # builds the design past the chain's needs
        for n in range(1, top + 1):
            class_parametrize(hyp, spec, n)
        ring_calls.clear()
        for n in range(1, top + 1):
            class_parametrize(hyp, spec, n)
        parametrize_calls = ring_calls.count("normal_form")
        ring_calls.clear()
        seq = chebyshev_sequence(hyp, spec, K, range(1, top + 1))
        # the chain's root NF(R), once per chain; no link takes one
        assert ring_calls.count("normal_form") - parametrize_calls == 1
        for n, s in enumerate(seq, start=1):
            alone = sample(hyp, Z2Interval(-1.0, 1.0, resolution=512))
            single = chebyshev_solve(hyp, spec, alone, n)
            vals, build = spec.leading_residual(hyp, n, K)
            vals1, build1 = spec.leading_residual(hyp, n, alone)
            assert np.array_equal(vals, vals1) and build() == build1(), n
            assert (s.norm, s.gap, s.iterations) == (single.norm, single.gap, single.iterations)

    def test_sequence_is_values_only(self, hyp, cubic7, ring_calls, monkeypatch):
        # with no minimizer read, a sequence builds no polynomial on its
        # design: no combination, and no normal form beyond
        # class_parametrize's but a product chain's root NF(R)
        built = _count_design_polynomials(monkeypatch)
        interval, disk = Z2Interval(-1.0, 1.0, resolution=512), Z1Disk(1.2, resolution=256)
        for curve, desc, spec, top in ((hyp, interval, MQ(hyp.dirbasis[0]), 10),
                                       (hyp, interval, Zk(1), 10),
                                       (cubic7, disk, MRQ(Z1 * Z2, cubic7.dirbasis[0]), 4),
                                       (cubic7, disk, Tau(BASIS_C), 16)):
            K = sample(curve, desc)
            for n in range(1, top + 1):     # builds the elements' polynomials
                class_parametrize(curve, spec, n)
            ring_calls.clear()
            for n in range(1, top + 1):
                class_parametrize(curve, spec, n)
            parametrize_calls = ring_calls.count("normal_form")
            ring_calls.clear()
            chebyshev_sequence(curve, spec, K, range(1, top + 1))
            roots = isinstance(spec, chebyshev._Product)
            assert ring_calls.count("normal_form") - parametrize_calls == roots, spec
            assert built == [], spec


def _lockstep_combine(poly, polys, coeffs):
    """poly + sum coeffs[i] * polys[i], summed in one pass."""
    acc = poly.terms
    for p, c in zip(polys, coeffs):
        for mon, v in p.terms.items():
            acc[mon] = acc.get(mon, 0j) + c * v
    return BivarPoly(acc)


class _LockstepDesign:
    """The reference for the replay: the design as built when every
    residual, column and chain link advanced its values and its normal-form
    polynomial together, each projection combining the column polynomials
    so far."""

    def __init__(self, curve, points, basis_id):
        self.curve, self.points, self.basis_id = curve, points, basis_id
        self.Q = np.zeros((len(points), 0), dtype=complex)
        self.polys = []         # polynomial of each column
        self.residuals = {}     # shape -> (values, polynomial, has a column)
        self.chains = {}        # (NF(R), Q) -> [(values, polynomial) of R Q^i projected]

    def residual(self, count):
        for el in basis_enumerate(self.curve, self.basis_id, count)[len(self.residuals):]:
            rule = parent_rule(self.curve, el.shape)
            if rule is None:
                vals, poly, alive = np.ones(len(self.points), dtype=complex), el.poly, True
            else:
                (vals, poly, alive), gen = self.residuals[rule[0]], rule[1]
                vals = gen(self.points[:, 0], self.points[:, 1]) * vals
                poly = normal_form(self.curve, gen * poly)
            before = np.linalg.norm(vals)
            vals, poly = self.project(vals, poly, len(self.residuals))
            after = np.linalg.norm(vals)
            alive = alive and after > chebyshev.SINGULAR_RATIO * before
            self.residuals[el.shape] = (vals, poly, alive)
            if alive:
                self.Q = np.column_stack([self.Q, vals / after])
                self.polys.append(poly * (1.0 / after))
        return list(self.residuals.values())[count - 1][:2]

    def columns(self, count):
        if count > len(self.residuals):
            self.residual(count)
        k = sum(alive for *_, alive in list(self.residuals.values())[:count])
        return self.Q[:, :k], self.polys[:k]

    def chain(self, prefactor, q, n):
        r = normal_form(self.curve, prefactor)
        links, z = self.chains.setdefault((r, q), []), self.points.T
        for i in range(len(links), n + 1):
            vals, poly = ((q(*z) * links[-1][0], normal_form(self.curve, q * links[-1][1]))
                          if i else (r(*z), r))
            degree = int(r.degree + i * q.degree)
            below = basis_through_degree(self.curve, self.basis_id, degree - 1)
            links.append(self.project(vals, poly, len(below)))
        return links[n]

    def project(self, vals, poly, count):
        Q, polys = self.columns(count)
        h = Q.conj().T @ vals
        vals = vals - Q @ h
        dh = Q.conj().T @ vals
        return vals - Q @ dh, _lockstep_combine(poly, polys, -(h + dh))


def _terms(p):
    return list(p.terms.items())


def _replay_case(name, hyp, cubic7):
    """(curve, set, basis, residual count, chains (prefactor, Q, n), class
    solves (spec, n)) of each design the replay is checked on."""
    z2z1 = (Z2, Z1, 6)
    if name in ("torus", "interval"):
        desc = (AbsV1V2Torus(0.5, 0.5, resolution=256) if name == "torus"
                else Z2Interval(-1.0, 1.0, resolution=256))
        v1 = hyp.dirbasis[0]
        return (hyp, desc, BASIS_S, 30, [(BivarPoly.constant(1.0), v1, 8), z2z1],
                [(Zk(1), 5), (MQ(v1), 6), (MRQ(Z2, Z1), 4), (Zk(0), 5), (MQ(v1), 3)])
    if name == "cubic7-S":
        v1 = cubic7.dirbasis[0]
        return (cubic7, Z1Disk(1.2, resolution=256), BASIS_S, 30,
                [(BivarPoly.constant(1.0), v1, 5), (Z1, cubic7.dirbasis[1], 4), z2z1],
                [(Zk(2), 4), (MQ(v1), 5), (Mz1jVk(1, 2), 3), (Zk(1), 6)])
    if name == "cubic7-C":
        return (cubic7, Z1Disk(1.2, resolution=256), BASIS_C, 30, [],
                [(Tau(BASIS_C), 12), (Tau(BASIS_C), 20), (TildeMl(0, 2), 3)])
    # z1^2 = 2 on these four points: the design drops the column of z1^2,
    # and Zk(1) at 1 reads the residual of element 5, z1 z2
    K = PointCloud(points=tuple((a * np.sqrt(2) + 0j, b + 0j) for a in (1, -1) for b in (1, -1)))
    return hyp, K, BASIS_S, 5, [(Z2, Z1, 1)], [(Zk(1), 1)]


class TestReplay:
    """Polynomials built on read by replaying the design's steps are those
    of the lockstep build, term for term and in the same term order, read
    in any order."""

    @pytest.mark.parametrize("name", ["torus", "interval", "cubic7-S", "cubic7-C",
                                      "rank-deficient"])
    def test_replay_matches_lockstep(self, hyp, cubic7, name):
        curve, desc, basis_id, count, chains, solves = _replay_case(name, hyp, cubic7)
        K = sample(curve, desc)
        design = chebyshev._design(curve, K, basis_id)
        ref = _LockstepDesign(curve, K.points, basis_id)
        # the minimizers first, so the replay starts from the top
        for spec, n in solves:
            s = chebyshev_solve(curve, spec, K, n)
            if isinstance(spec, chebyshev._Product):
                lead = ref.chain(spec.prefactor, spec.base(curve), n)[1]
            else:
                b, index = spec.position(curve, n)
                assert b == basis_id
                lead = ref.residual(index)[1]
            want = _lockstep_combine(lead, ref.polys, s.parts[2])
            assert _terms(s.minimizer) == _terms(want), (spec, n)
        for prefactor, q, top in chains:
            for n in reversed(range(top + 1)):
                (vals, build), (rvals, rpoly) = (design.chain(prefactor, q, n),
                                                 ref.chain(prefactor, q, n))
                assert np.array_equal(vals, rvals) and _terms(build()) == _terms(rpoly), n
        for j in reversed(range(1, count + 1)):
            (vals, build), (rvals, rpoly) = design.residual(j), ref.residual(j)
            assert np.array_equal(vals, rvals) and _terms(build()) == _terms(rpoly), j
        Q, (rQ, rpolys) = design.columns(count), ref.columns(count)
        assert np.array_equal(Q, rQ) and len(rpolys) == len(design.cols)
        design.combine(BivarPoly.zero(), np.zeros(len(rpolys)))
        assert [_terms(p) for p in design.col_polys] == [_terms(p) for p in rpolys]
        if name == "rank-deficient":
            assert len(rpolys) == count - 1


class TestScalingLaws:
    def test_prefactor_scale_is_bitwise_invariant(self, hyp, interval_set):
        for n in range(1, 7):
            a = chebyshev_solve(hyp, MRQ(Z2, Z1), interval_set, n)
            b = chebyshev_solve(hyp, MRQ(Z2 * 3.0, Z1), interval_set, n)
            assert abs(b.tn - a.tn) <= 1e-9 * a.tn

    def test_base_scale_multiplies_tn(self, hyp, interval_set):
        lam = 2j
        for n in range(1, 7):
            a = chebyshev_solve(hyp, MRQ(BivarPoly.constant(1.0), Z1), interval_set, n)
            b = chebyshev_solve(hyp, MRQ(BivarPoly.constant(1.0), Z1 * lam), interval_set, n)
            assert abs(b.tn - abs(lam) * a.tn) <= 1e-9 * a.tn

    def test_sum_rule_finite_n(self, hyp, interval_set):
        opts = SolverOptions(max_iter=1000)
        for n in range(1, 7):
            sa = chebyshev_solve(hyp, MRQ(Z1, Z1), interval_set, n, opts)
            sb = chebyshev_solve(hyp, MRQ(Z2, Z1), interval_set, n, opts)
            ss = chebyshev_solve(hyp, MRQ(Z1 + Z2, Z1), interval_set, n, opts)
            bound = 2.0 ** (1.0 / ss.total_degree) * max(sa.tn, sb.tn)
            assert ss.tn <= bound * (1 + 1e-6)


def _random_problem(seed, npts, m):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    G = rng.normal(size=(npts, m)) + 1j * rng.normal(size=(npts, m))
    return f, G


def _random_scaling(rng, npts):
    """Nesterov-Todd scaling of a random interior pair (s, z)."""
    s1 = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    z1 = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    s0 = np.abs(s1) * (1.0 + rng.random(npts)) + 1e-3
    z0 = np.abs(z1) * (1.0 + rng.random(npts)) + 1e-3
    return minimax._NTScaling(s0, s1, z0, z1, np.abs(s1), np.abs(z1))


def _normal_matrix(G, W):
    """M = (W^-1 A)^T (W^-1 A), A (t, c) = (t, G c), from W^-1 applied per
    point to each real coordinate of (t, Re c_1, Im c_1, ..., Im c_m)."""
    npts, m = G.shape
    cols = [W.inverse(np.ones(npts), np.zeros(npts, dtype=complex))]
    for j in range(m):
        cols += [W.inverse(np.zeros(npts), G[:, j]), W.inverse(np.zeros(npts), 1j * G[:, j])]
    B = np.array([np.concatenate([u0, u1.real, u1.imag]) for u0, u1 in cols]).T
    return B.T @ B


class TestNewtonFactor:
    @pytest.mark.parametrize("npts, m, seed", [(40, 5, 0), (300, 12, 1), (9, 0, 2), (1023, 36, 3)])
    def test_inverse_factor_inverts_the_normal_matrix(self, npts, m, seed):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(npts, m)) + 1j * rng.normal(size=(npts, m))
        W = _random_scaling(rng, npts)
        Ms, err = minimax._normal_inverse(G, W)
        Mi = np.linalg.inv(_normal_matrix(G, W))
        assert np.linalg.norm(np.linalg.solve(Ms, np.eye(2 * m + 1)) - Mi) \
            <= 1e-10 * np.linalg.norm(Mi)
        assert 0.0 < err < 1e-8

    def test_near_singular_normal_matrix_gives_a_finite_step(self):
        rng = np.random.default_rng(4)
        G = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
        W = _random_scaling(rng, 200)
        v = rng.normal(size=7)
        # two columns equal to 1e-6, to 1e-10 or exactly: M has an
        # eigenvalue below eps |M|, or 0, and the shift keeps the matrix
        # definite
        for rel in (1e-6, 1e-10, 0.0):
            G[:, 2] = G[:, 1] * (1.0 + rel)
            Ms, err = minimax._normal_inverse(G, W)
            M = _normal_matrix(G, W)
            step = np.linalg.solve(Ms, M @ v)
            assert np.all(np.isfinite(step))
            assert np.linalg.norm(M @ step - M @ v) <= 1e-8 * np.linalg.norm(M @ v)
            # the estimate sends such a step on to conjugate gradients
            assert err > 1e-8

    def test_inverse_square_is_the_inverse_applied_twice(self):
        rng = np.random.default_rng(5)
        W = _random_scaling(rng, 300)
        u0, u1 = rng.normal(size=300), rng.normal(size=300) + 1j * rng.normal(size=300)
        v0, v1 = W.inverse_square(u0, u1)
        w0, w1 = W.inverse(*W.inverse(u0, u1))
        assert np.allclose(v0, w0, rtol=1e-12, atol=0.0)
        assert np.allclose(v1, w1, rtol=1e-12, atol=0.0)

    @staticmethod
    def _inexact_system(smallest, off):
        """M = Q diag(lam) Q^T with eigenvalues from 1 down to smallest,
        applied exactly, and a preconditioner, M off by about off with its
        eigenvalues clipped at eps times the largest."""
        rng = np.random.default_rng(6)
        Q = np.linalg.qr(rng.normal(size=(9, 9)))[0]
        lam = np.logspace(0, np.log10(smallest), 9)
        E = rng.normal(size=(9, 9))
        lam_f, V = np.linalg.eigh(Q @ np.diag(lam) @ Q.T + off * (E + E.T))
        Ms = (V * np.maximum(lam_f, minimax.EPS * lam_f[-1])) @ V.T

        def product(x):
            return Q @ (lam * (Q.T @ x))

        return product, Ms, Q, rng

    def test_conjugate_gradients_correct_an_inexact_factor(self):
        product, Ms, Q, rng = self._inexact_system(1e-8, 1e-9)
        b = product(Q @ rng.normal(size=9))
        clipped = np.linalg.solve(Ms, b)
        assert np.linalg.norm(b - product(clipped)) > 1e-7 * np.linalg.norm(b)
        x = minimax._cg(product, Ms, b, clipped, b - product(clipped), 1e-8)
        assert np.linalg.norm(b - product(x)) <= 1e-8 * np.linalg.norm(b)

    def test_conjugate_gradients_never_raise_the_residual(self):
        # cond(M) = 1e16, a preconditioner wrong below 1e-6 and b of unit
        # size in every eigendirection: the recurrence breaks down
        product, Ms, Q, rng = self._inexact_system(1e-16, 1e-6)
        b = Q @ rng.normal(size=9)
        clipped = np.linalg.solve(Ms, b)
        x = minimax._cg(product, Ms, b, clipped, b - product(clipped), 1e-8)
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(b - product(x)) <= np.linalg.norm(b - product(clipped))

    @staticmethod
    def _cone_margins(lam0, lam1, a, d0, d1):
        """u0 - |u1| over u0 + |u1| for u = lam + a d, every row of d and point."""
        u0, u1 = lam0 + a * d0, np.abs(lam1 + a * d1)
        return (u0 - u1) / (np.abs(u0) + u1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 2),
           st.floats(-2.0, 2.0))
    def test_max_step_stops_on_the_first_cone_boundary(self, seed, npts, rows, lift):
        # lam inside every cone, d of random direction with d0 shifted by
        # lift |d1|: the larger lift, the more rays d stays inside the cone
        # on, and once it does on all of them no cone is hit
        rng = np.random.default_rng(seed)
        lam1 = rng.normal(size=npts) + 1j * rng.normal(size=npts)
        lam0 = np.abs(lam1) * (1.0 + rng.random(npts)) + 1e-3
        d1 = rng.normal(size=(rows, npts)) + 1j * rng.normal(size=(rows, npts))
        d0 = lift * np.abs(d1) + 0.1 * rng.normal(size=(rows, npts))
        a = minimax._max_step(lam0, lam1, (lam0 - np.abs(lam1)) * (lam0 + np.abs(lam1)),
                              d0, d1)
        assert a > 0.0
        if np.isinf(a):
            # every ray stays inside: d in the cone, or moving away from its boundary
            for big in (1.0, 1e3, 1e6):
                assert np.all(self._cone_margins(lam0, lam1, big, d0, d1) > -1e-12)
        else:
            margins = self._cone_margins(lam0, lam1, a, d0, d1)
            assert np.all(margins >= -1e-9)
            assert np.min(margins) <= 1e-9
            assert np.all(self._cone_margins(lam0, lam1, 0.5 * a, d0, d1) > 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 2),
           st.sets(st.sampled_from(["outside", "inward", "outward", "parallel"]), min_size=1))
    def test_max_step_on_every_kind_of_direction(self, seed, npts, rows, kinds):
        # per point d is outside the cone (q < 0), inside the negative cone
        # (q >= 0, b < 0), inside the cone (q >= 0, b >= 0) or parallel to
        # lam, where disc = b^2 - q lam_jnorm2 is 0 and rounds to either
        # sign: inward there, the cone is hit at its apex
        rng = np.random.default_rng(seed)
        lam1 = rng.normal(size=npts) + 1j * rng.normal(size=npts)
        lam0 = np.abs(lam1) * (1.0 + rng.random(npts)) + 1e-3
        d1 = rng.normal(size=(rows, npts)) + 1j * rng.normal(size=(rows, npts))
        cone = np.abs(d1) * (1.0 + rng.random((rows, npts))) + 1e-3
        kappa = rng.uniform(0.1, 3.0, (rows, npts)) * rng.choice([-1.0, 1.0], (rows, npts))
        kind = rng.choice(sorted(kinds), (rows, npts))
        d0 = np.select([kind == "outside", kind == "inward", kind == "outward"],
                       [rng.uniform(-1.0, 1.0, (rows, npts)) * np.abs(d1), -cone, cone],
                       kappa * lam0)
        d1 = np.where(kind == "parallel", kappa * lam1,
                      np.where(kind == "inward", -d1, d1))
        jnorm = (lam0 - np.abs(lam1)) * (lam0 + np.abs(lam1))
        q = d0 * d0 - np.abs(d1) ** 2
        b = lam0 * d0 - (lam1.conj() * d1).real
        assert np.all((q < 0.0) == (kind == "outside"))
        assert np.all((b < 0.0)[kind == "inward"])

        def margins(a):
            """u0 - |u1| for u = lam + a d, relative to the size of lam and a d."""
            u0, u1 = lam0 + a * d0, lam1 + a * d1
            scale = lam0 + np.abs(lam1) + a * (np.abs(d0) + np.abs(d1))
            return (u0 - np.abs(u1)) / scale

        a = minimax._max_step(lam0, lam1, jnorm, d0, d1)
        assert a > 0.0
        if np.isinf(a):
            # no point moves toward its boundary
            assert np.all(np.isin(kind, ["outward", "parallel"]))
            assert np.all(kappa[kind == "parallel"] > 0.0)
            for big in (1.0, 1e3, 1e6):
                assert np.all(margins(big) > -1e-12)
        else:
            # on a boundary: strictly inside just before a and outside just
            # after; a double root (d parallel to lam) is found to about
            # sqrt(eps) only
            assert np.all(margins(0.999 * a) > 0.0)
            assert np.min(margins(1.001 * a)) < 0.0
            assert np.all(margins(a) >= -1e-7) and np.min(margins(a)) <= 1e-7

    def test_rho_is_the_four_vector_form(self):
        # the scaled predictor steps sum to -lam, as newton returns them
        rng = np.random.default_rng(8)
        for npts in (1, 30, 1023):
            lam1 = rng.normal(size=npts) + 1j * rng.normal(size=npts)
            lam0 = np.abs(lam1) * (1.0 + rng.random(npts)) + 1e-3
            ds0, ds1 = rng.normal(size=npts), rng.normal(size=npts) + 1j * rng.normal(size=npts)
            dz0, dz1 = -lam0 - ds0, -lam1 - ds1
            lam2 = lam0 @ lam0 + np.vdot(lam1, lam1).real
            for alpha in (0.0, 0.3, 0.9, 1.0):
                four = ((lam0 + alpha * ds0) @ (lam0 + alpha * dz0)
                        + np.vdot(lam1 + alpha * ds1, lam1 + alpha * dz1).real) / lam2
                one = minimax._rho(lam2, ds0 @ dz0 + np.vdot(ds1, dz1).real, alpha)
                assert abs(one - four) <= 1e-12 * abs(four)

    def test_max_step_is_inf_when_no_cone_is_hit(self):
        rng = np.random.default_rng(7)
        lam1 = rng.normal(size=20) + 1j * rng.normal(size=20)
        lam0 = 2.0 * np.abs(lam1) + 1e-3
        d1 = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
        a = minimax._max_step(lam0, lam1, (lam0 - np.abs(lam1)) * (lam0 + np.abs(lam1)),
                              1.5 * np.abs(d1), d1)
        assert a == np.inf

    @pytest.mark.parametrize("k, n", [(0, 6), (2, 6), (0, 7), (1, 8), (2, 8)])
    def test_degenerate_optimum_solves_converge(self, cubic7, k, n):
        # at n = 6 these solves broke the unshifted Cholesky factor of M; at
        # n = 7 and 8 a step from the factor alone, without refinement,
        # stalls with a gap above 1e-8
        K = sample(cubic7, Z1Disk(1.2, resolution=1024))
        s = chebyshev_solve(cubic7, MQ(cubic7.dirbasis[k]), K, n, SolverOptions(max_iter=300))
        assert s.converged
        assert s.gap <= 1e-8 * s.norm

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 1.7}, {"max_iter": 0}, {"tol": np.inf}, {"tol": np.nan},
        {"tol": 0.0},
    ])
    def test_bad_solver_options_rejected(self, kwargs):
        # when made: no solve can start from them
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_iter": True}, {"max_iter": False}, {"max_iter": "300"}, {"tol": True},
        {"tol": "1e-8"}, {"tol": None},
    ])
    def test_bool_or_non_number_solver_option_names_the_field(self, kwargs):
        # Python counts True as 1, but a bool is neither a count nor a tolerance
        (field, _), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverOptions(**kwargs)

    def test_replaced_solver_options_are_checked(self):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            dataclasses.replace(SolverOptions(), tol=float("nan"))

    def test_numpy_scalar_solver_options_accepted(self):
        opts = SolverOptions(max_iter=np.int64(300), tol=np.float64(1e-9))
        assert (opts.max_iter, opts.tol) == (300, 1e-9)


def _solve_fg(f, G, opts=None):
    """minimax.solve on the QR'd design of G: f projected off range(G) as
    fp, Q with orthonormal columns, and the solve, with its residual
    fp + Q u, its bound lb and gap = max(norm - lb, 0)."""
    Q = np.linalg.qr(G)[0]
    fp = f - Q @ (Q.conj().T @ f)
    s = minimax.solve(Q, fp, opts or SolverOptions())
    return SimpleNamespace(fp=fp, Q=Q, u=s.u, norm=s.norm, lb=s.lb, gap=s.gap,
                           converged=s.converged)


problems = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 12))


class TestMinimaxProperties:
    @settings(max_examples=60, deadline=None)
    @given(problems)
    def test_bounds_bracket_the_minimum(self, problem):
        seed, m = problem
        f, G = _random_problem(seed, 12, m)
        s = _solve_fg(f, G)
        lb = s.norm - s.gap
        # f is a member of the family fp + range(Q), and u = 0 is the start
        assert 0.0 <= lb <= s.norm <= np.max(np.abs(s.fp)) * (1 + 1e-12)
        assert lb <= np.max(np.abs(f)) * (1 + 1e-12)
        assert np.max(np.abs(s.fp + s.Q @ s.u)) == pytest.approx(s.norm, rel=1e-12)
        # lb bounds the max modulus of every member of the family
        rng = np.random.default_rng(seed + 1)
        for _ in range(5):
            u = s.u + 0.1 * (rng.normal(size=m) + 1j * rng.normal(size=m))
            assert np.max(np.abs(s.fp + s.Q @ u)) >= lb * (1 - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(problems, st.sampled_from([1e-4, 1e-8, 1e-10]))
    def test_converged_means_certified(self, problem, tol):
        seed, m = problem
        f, G = _random_problem(seed, 12, m)
        s = _solve_fg(f, G, SolverOptions(tol=tol))
        assert s.converged
        assert s.gap <= tol * s.norm

    @settings(max_examples=60, deadline=None)
    @given(problems, st.integers(2, 6))
    def test_early_stop_bound_is_below_the_minimum(self, problem, max_iter):
        seed, m = problem
        f, G = _random_problem(seed, 12, m)
        early = _solve_fg(f, G, SolverOptions(max_iter=max_iter))
        full = _solve_fg(f, G)
        assert full.converged
        assert early.norm - early.gap <= full.norm * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 11), st.integers(1, 12))
    def test_larger_free_basis_never_raises_the_certified_minimum(self, seed, m, extra):
        # the m columns span a subspace of the m' columns, so the m'-column
        # minimum, and with it its certified lower bound, is at most the
        # m-column minimum
        f, G = _random_problem(seed, 12, min(m + extra, 12))
        small = _solve_fg(f, G[:, :m])
        large = _solve_fg(f, G)
        assert large.norm - large.gap <= small.norm * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 11), st.sampled_from([2, 4, 6, 500]))
    def test_dual_bound_is_below_the_attained_max(self, seed, m, max_iter):
        # the bound as minimax.solve returns it, before the gap is clipped at 0; a
        # square design leaves no room for it (null(G^H) = {0})
        s = _solve_fg(*_random_problem(seed, 12, m), SolverOptions(max_iter=max_iter))
        assert s.lb <= s.norm * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(problems, st.floats(1e-3, 1e3), st.floats(0.0, 2 * np.pi))
    def test_norm_scales_with_f(self, problem, modulus, phase):
        seed, m = problem
        f, G = _random_problem(seed, 12, m)
        alpha = modulus * np.exp(1j * phase)
        a = _solve_fg(f, G)
        b = _solve_fg(alpha * f, G)
        assert b.norm == pytest.approx(abs(alpha) * a.norm, rel=1e-9)


class TestSequencesAndEstimates:
    def test_torus_sequences_constant(self, hyp, torus_set):
        for k in (1, 2):
            seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[k - 1]), torus_set, range(1, 9))
            assert all(abs(s.tn - 0.5) < 1e-6 for s in seq)

    def test_disk_sequence_approaches_radius(self, hyp):
        for r in (0.7, 1.3):
            K = sample(hyp, Z1Disk(r, resolution=1024))
            seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[0]), K, range(1, 9))
            assert abs(seq[-1].tn - r) / r < 0.05

    def test_empty_range_rejected(self, hyp, torus_set):
        with pytest.raises(ValueError, match="empty"):
            chebyshev_sequence(hyp, Zk(0), torus_set, [])

    def test_non_increasing_range_rejected(self, hyp, torus_set):
        with pytest.raises(ValueError, match="increasing"):
            chebyshev_sequence(hyp, Zk(0), torus_set, [3, 2, 4])

    def test_constant_sequence_estimate(self, hyp, torus_set):
        seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[0]), torus_set, range(1, 6))
        est = constant_estimate(seq)
        assert est.method == "infRule"
        assert est.estimate == pytest.approx(0.5, abs=1e-9)
        assert est.lower == pytest.approx(est.upper, abs=1e-9)
        assert est.reliable

    def test_needs_three_solves(self, hyp, torus_set):
        seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[0]), torus_set, range(1, 3))
        with pytest.raises(ValueError, match="3 solves"):
            constant_estimate(seq)

    def test_interval_directional_constant(self, hyp, interval_set):
        opts = SolverOptions(max_iter=250)
        seq = chebyshev_sequence(hyp, MQ(hyp.dirbasis[0]), interval_set,
                                 range(1, 17), opts)
        est = constant_estimate(seq)
        assert abs(est.estimate - 0.5) < 0.05

    def test_numerical_failure_is_raised(self, hyp, torus_set, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(chebyshev, "minimax_solve", failing)
        # a fresh sample: torus_set keeps the solves other tests made on it
        K = sample(hyp, torus_set.descriptor)
        with pytest.raises(np.linalg.LinAlgError):
            chebyshev_sequence(hyp, MQ(hyp.dirbasis[0]), K, range(1, 4))

    def test_criterion_4_cubic_solves_converge(self, cubic7):
        # the solves behind the cubic part of acceptance criterion 4
        K = sample(cubic7, Z1Disk(1.2, resolution=1024))
        opts = SolverOptions(max_iter=300)
        seqs = [chebyshev_sequence(cubic7, MQ(v), K, range(1, 7), opts)
                for v in cubic7.dirbasis]
        seqs += [chebyshev_sequence(cubic7, Zk(k), K, range(1, 13 - k), opts)
                 for k in range(3)]
        solves = [s for seq in seqs for s in seq]
        assert len(solves) == 51
        assert all(s.converged and s.gap <= opts.tol * s.norm for s in solves)

    def test_constant_prefactor_product_classes_share_the_inf_rule(self, hyp):
        # MQ(v1), z1^0 v1^n and the constant-prefactor R Q^n are one family;
        # the estimate follows the class kind, not the type
        K = sample(hyp, Z2Interval(-1.0, 1.0, resolution=256))
        specs = [MQ(hyp.dirbasis[0]), Mz1jVk(0, 1), MRQ(BivarPoly.constant(3.0), hyp.dirbasis[0])]
        ests = [constant_estimate(chebyshev_sequence(hyp, spec, K, range(1, 9))) for spec in specs]
        assert [e.method for e in ests] == ["infRule"] * 3
        assert ests[1].estimate == ests[2].estimate == ests[0].estimate
        assert ests[0].estimate == pytest.approx(0.5693, abs=1e-4)
        # a prefactor of positive degree keeps the tail fit
        seq = chebyshev_sequence(hyp, MRQ(Z2, Z1), K, range(1, 9))
        assert constant_estimate(seq).method == "tailMean"

    @pytest.mark.parametrize("t1, t2", [(0.5, 0.5 * (1 + 1e-12)), (0.5 * (1 + 1e-12), 0.5)])
    def test_near_equal_constants_order_by_phase(self, hyp, t1, t2):
        # constants 1e-12 apart are a tie: swapping them leaves the order
        # as the ascending phase of the directions (-1 has phase pi)
        ests = [SimpleNamespace(estimate=t1), SimpleNamespace(estimate=t2)]
        assert descending_direction_order(hyp, ests) == [1, 0]

    def test_tail_mean_for_ordered_classes(self, hyp, torus_set):
        seq = chebyshev_sequence(hyp, Zk(0), torus_set, range(1, 13))
        est = constant_estimate(seq)
        assert est.method == "tailMean"
        assert est.lower <= est.upper
        # the 1/deg bias correction may land just below the raw tail; here
        # the model is exact (tn = 0.5 * 2^(1/n)) and the limit is 0.5
        assert est.estimate == pytest.approx(0.5, rel=1e-3)
        assert 0.9 * est.lower <= est.estimate <= est.upper * 1.001


class TestTauSequence:
    def test_first_position_is_constant(self, hyp, torus_set):
        taus = tau_sequence(hyp, torus_set, BASIS_S, 3)
        assert taus[0].total_degree == 0
        assert taus[0].norm == pytest.approx(1.0)
        assert np.isnan(taus[0].tn)
        assert taus[0].converged

    def test_alignment_tags(self, hyp, torus_set):
        taus = tau_sequence(hyp, torus_set, BASIS_S, 5)
        assert [(t.spec, t.n) for t in taus] == [(Tau(BASIS_S), j) for j in range(1, 6)]


class TestComparisonReport:
    def test_symmetric_torus_all_pass(self, hyp, torus_set):
        asserts, _ = comparison_report(hyp, torus_set, 12)
        assert all(a.passed for a in asserts), [
            f"{a.name}: {a.lhs} vs {a.rhs}" for a in asserts if not a.passed]

    def test_zero_tolerance_fails(self, hyp, torus_set):
        asserts, _ = comparison_report(hyp, torus_set, 6, tol_scale=0.0)
        assert not all(a.passed for a in asserts)

    def test_disk_ordering_constants_match_radius(self, hyp):
        K = sample(hyp, Z1Disk(1.3, resolution=1024))
        opts = SolverOptions(max_iter=250)
        for k in (0, 1):
            seq = chebyshev_sequence(hyp, Zk(k), K, range(1, 13), opts)
            est = constant_estimate(seq)
            assert abs(est.estimate - 1.3) / 1.3 < 0.10

    def test_cubic_ordering_monotone(self, cubic7):
        K = sample(cubic7, Z1Disk(1.3, resolution=768))
        opts = SolverOptions(max_iter=250)
        ests = []
        for k in range(3):
            seq = chebyshev_sequence(cubic7, Zk(k), K, range(1, 9), opts)
            ests.append(constant_estimate(seq).estimate)
        assert ests[0] >= ests[1] * (1 - 0.02)
        assert ests[1] >= ests[2] * (1 - 0.02)


class TestSweep:
    """Each minimax problem on a sample is solved once, whichever class poses
    it, and the solve is kept on the sample's design."""

    @pytest.fixture
    def K(self, hyp):
        """A sample of its own, so it keeps no solve of another test."""
        return sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=256))

    @pytest.fixture
    def solves(self, monkeypatch):
        """The class parameter of every minimax_solve call."""
        calls = []
        real = chebyshev.minimax_solve

        def counting(*args, **kwargs):
            calls.append(kwargs["n"])
            return real(*args, **kwargs)

        monkeypatch.setattr(chebyshev, "minimax_solve", counting)
        return calls

    def test_repeat_is_solved_once(self, hyp, K, solves):
        spec = MQ(hyp.dirbasis[0])
        a = chebyshev_solve(hyp, spec, K, 3)
        b = chebyshev_solve(hyp, spec, K, 3, SolverOptions())
        seq = chebyshev_sequence(hyp, spec, K, range(2, 5))
        assert b is a and seq[1] is a
        assert solves == [3, 2, 4]

    def test_options_and_set_are_part_of_the_key(self, hyp, K, solves):
        spec = Zk(0)
        disk = sample(hyp, Z1Disk(1.0, resolution=256))
        chebyshev_solve(hyp, spec, K, 2)
        chebyshev_solve(hyp, spec, K, 2, SolverOptions(max_iter=50))
        chebyshev_solve(hyp, spec, disk, 2)
        chebyshev_solve(hyp, spec, disk, 2)
        assert solves == [2, 2, 2]

    def test_each_sample_keeps_its_own_solves(self, hyp, K, solves):
        spec = MQ(hyp.dirbasis[0])
        again = sample(hyp, K.descriptor)
        assert np.array_equal(again.points, K.points)
        for L in (K, K, again, K, again):
            chebyshev_solve(hyp, spec, L, 2)
        assert solves == [2, 2]
        assert len(solves_on(K)) == len(solves_on(again)) == 1

    def test_failed_solve_is_not_kept(self, hyp, solves, monkeypatch):
        posed, real = [], chebyshev._pose

        def counting(*args, **kwargs):
            posed.append(kwargs["n"])
            return real(*args, **kwargs)

        monkeypatch.setattr(chebyshev, "_pose", counting)
        K = sample(hyp, Z1Disk(1.0, resolution=16))
        for _ in range(2):
            # the 31 points cannot carry the 39 free elements at n = 20
            with pytest.raises(ValueError, match="must not exceed the sample"):
                chebyshev_sequence(hyp, Zk(0), K, [1, 20])
        # n = 20 fails where it is posed, before its solve, and each
        # sequence poses it again
        assert posed == [1, 20, 20]
        assert solves == [1]
        assert [s.n for s in solves_on(K)] == [1]

    def test_classes_posing_one_problem_share_a_solve(self, hyp, K, solves):
        v1 = hyp.dirbasis[0]
        specs = [MQ(v1), MRQ(BivarPoly.constant(1.0), v1), Mz1jVk(0, 1)]
        out = [chebyshev_solve(hyp, spec, K, 3) for spec in specs]
        assert len(solves_on(K)) == 1
        assert solves == [3]
        assert [s.spec for s in out] == specs
        assert all(s.n == 3 and s.norm == out[0].norm for s in out)

    def test_product_and_position_classes_share_a_solve(self, hyp, K, solves):
        a = chebyshev_solve(hyp, MRQ(Z1, Z1), K, 2)
        b = chebyshev_solve(hyp, Zk(0), K, 3)
        assert solves == [2]
        assert (b.spec, b.n) == (Zk(0), 3)
        assert (b.norm, b.total_degree) == (a.norm, a.total_degree)

    def test_tau_positions_reuse_class_solves(self, hyp, K, solves):
        z0 = chebyshev_sequence(hyp, Zk(0), K, range(1, 4))
        z1 = chebyshev_sequence(hyp, Zk(1), K, range(1, 3))
        del solves[:]
        taus = tau_sequence(hyp, K, BASIS_S, 7)
        # positions 2, 4, 6 are z1^n (Zk(0)) and 5, 7 are z2 z1^n (Zk(1))
        assert solves == [1, 3]
        assert [(t.spec, t.n) for t in taus] == [(Tau(BASIS_S), j) for j in range(1, 8)]
        assert [taus[j - 1].norm for j in (2, 4, 6, 5, 7)] == [s.norm for s in z0 + z1]

    def test_relabelled_hit_is_a_copy(self, hyp, K, solves):
        v1 = hyp.dirbasis[0]
        relabelled = MRQ(BivarPoly.constant(1.0), v1)
        a = chebyshev_solve(hyp, MQ(v1), K, 2)
        norm = a.norm
        b = chebyshev_solve(hyp, relabelled, K, 2)
        assert b is not a
        b.norm, b.converged = -1.0, False
        assert chebyshev_solve(hyp, MQ(v1), K, 2) is a
        assert chebyshev_solve(hyp, relabelled, K, 2).norm == norm
        assert solves_on(K) == [a]
        assert (a.spec, a.norm, a.converged) == (MQ(v1), norm, True)
        assert solves == [2]

    def test_dropping_the_sample_frees_its_designs(self, hyp):
        K = sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=256))
        chebyshev_solve(hyp, MQ(hyp.dirbasis[0]), K, 2)
        design = weakref.ref(next(iter(K._cache.values())))
        # freed by reference counting: a kept solve forms no cycle with its design
        gc.disable()
        try:
            del K
            assert design() is None
        finally:
            gc.enable()

    def test_same_leading_term_in_other_basis_is_another_problem(self, hyp, K, solves):
        specs = [Mz1jVk(0, 1), TildeMl(0, 1)]
        (la, fa), (lb, fb) = (class_parametrize(hyp, s, 3) for s in specs)
        assert la == lb and len(fa) == len(fb)
        for spec in specs:
            chebyshev_solve(hyp, spec, K, 3)
        assert solves == [3, 3]


class TestOnePath:
    """chebyshev_sequence is the one path from a class to a kept solve: it
    parametrizes each class and poses each problem once, and chebyshev_solve
    is a sequence of one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(function, class parameter) of every class_parametrize, _pose and
        minimax_solve call, in call order."""
        out = []

        def counted(name, real):
            def counting(*args, **kwargs):
                out.append((name, kwargs["n"] if "n" in kwargs else args[2]))
                return real(*args, **kwargs)
            return counting

        for name in ("class_parametrize", "_pose", "minimax_solve"):
            monkeypatch.setattr(chebyshev, name, counted(name, getattr(chebyshev, name)))
        return out

    @staticmethod
    def made(calls, name):
        return [n for f, n in calls if f == name]

    def test_verify_poses_each_kept_solve_once(self, hyp, calls):
        K = sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=512))
        verify_report(hyp, K, 10)
        kept = len(solves_on(K))
        assert kept > 0
        assert len(self.made(calls, "_pose")) == len(self.made(calls, "minimax_solve")) == kept

    def test_sequence_poses_each_kept_solve_once(self, cubic7, calls):
        K = sample(cubic7, Z1Disk(1.2, resolution=1024))
        seq = chebyshev_sequence(cubic7, Zk(1), K, range(1, 12), SolverOptions(max_iter=300))
        assert [s.n for s in solves_on(K)] == [s.n for s in seq] == list(range(1, 12))
        for name in ("class_parametrize", "_pose", "minimax_solve"):
            assert self.made(calls, name) == list(range(1, 12)), name

    @pytest.mark.parametrize("make_spec, n", [(lambda c: MQ(c.dirbasis[0]), 5),
                                              (lambda c: Zk(1), 6),
                                              (lambda c: Tau(BASIS_C), 9)])
    def test_new_problem_solves_as_a_sequence_of_one(self, cubic7, calls, make_spec, n):
        desc, spec = Z1Disk(1.2, resolution=512), make_spec(cubic7)
        ref = chebyshev_sequence(cubic7, spec, sample(cubic7, desc), [n])[0]
        del calls[:]
        s = chebyshev_solve(cubic7, spec, sample(cubic7, desc), n)
        assert calls == [("class_parametrize", n), ("_pose", n), ("minimax_solve", n)]
        assert s.parts[2].tobytes() == ref.parts[2].tobytes()
        assert (s.spec, s.n, s.norm, s.gap, s.iterations, s.converged) == \
            (ref.spec, ref.n, ref.norm, ref.gap, ref.iterations, ref.converged)

    def test_problem_on_k_is_a_relabelled_copy(self, hyp, calls):
        # Tau(S) at position 6 is z1^3 on the hyperbola, Zk(0) at n = 3
        K = sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=256))
        z = chebyshev_solve(hyp, Zk(0), K, 3)
        del calls[:]
        t = chebyshev_solve(hyp, Tau(BASIS_S), K, 6)
        assert calls == [("class_parametrize", 6)]
        assert t is not z and solves_on(K) == [z]
        assert (t.spec, t.n, z.spec, z.n) == (Tau(BASIS_S), 6, Zk(0), 3)
        assert (t.norm, t.gap, t.iterations, t.total_degree) == \
            (z.norm, z.gap, z.iterations, z.total_degree)

    @pytest.mark.parametrize("make_spec, n, message", [
        (lambda c: Zk(0), 0, "class parameter must be >= 1"),
        # v2 v1 is constant on the hyperbola, so v2 v1^n has degree n - 1
        (lambda c: MRQ(c.dirbasis[1], c.dirbasis[0]), 2,
         "leading term loses degree in the coordinate ring")])
    def test_class_error_is_raised_as_is(self, hyp, calls, make_spec, n, message):
        K = sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=256))
        with pytest.raises(ClassSpecError) as raised:
            chebyshev_solve(hyp, make_spec(hyp), K, n)
        assert type(raised.value) is ClassSpecError and str(raised.value) == message
        assert calls == [("class_parametrize", n)]
        assert solves_on(K) == []
