"""Monic polynomial classes, the minimax problems they pose, and the
sequences and constant estimates read off their solves.

A class fixes a leading term and leaves lower terms free.  It is of the
product kind (MQ, MRQ, Mz1jVk: leading term NF(R Q^n), every term of lower
degree free) or of the position kind (Zk, TildeMl, Tau: an element of a
graded basis, the elements before it free; Tau(B) at n is the n-th element
of B, whose norm is tau_n^deg).  T_n values are the n-th roots of the
minimal sup norms over a SampledSet, n the degree of the leading term in
the coordinate ring.  Each minimax problem on a sample is solved once,
whichever class poses it, and the solve is kept on the sample.

Each problem is posed on the orthonormal design Q of its basis on K, built
by Arnoldi once per (K, basis) and cached on K (_Design), which holds the
class's leading residual f, the leading term projected off the free span.
chebyshev_sequence, the one path from a class to a kept solve, poses each
problem once and hands (Q, f) to minimax, which certifies
min_u max_i |f_i + (Q u)_i| by an interior-point method and a dual lower
bound; a solve reads values only.  minimax.dispatch may solve a sequence's
problems in worker processes, with the same bits.  Polynomials, such as
the minimizer f + sum u_i q_i, are built when read.  The rows that check
the constants against each other, as `curvecheb verify` runs them, are in
curvecheb.verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import minimax
from .minimax import SolverOptions
from .polyring import (
    BASIS_C,
    BASIS_S,
    BivarPoly,
    _grevlex_key,
    basis_enumerate,
    basis_through_degree,
    normal_form,
    parent_rule,
    pow_mod,
)
from .sets import SampleTooSmall


class ClassSpecError(ValueError):
    pass


def _require_homogeneous(p, name):
    if p.is_zero:
        raise ClassSpecError(f"{name} must be nonzero")
    degs = {a + b for (a, b) in p.terms}
    if len(degs) != 1:
        raise ClassSpecError(f"{name} must be homogeneous")


def _require_direction(curve, name, j, k):
    """Check a class z1^j v_k^n: directional curve, 0 <= j <= d-2, 1 <= k <= d."""
    curve.require_directional("directional classes")
    if not 0 <= j <= curve.d - 2:
        raise ClassSpecError(f"{name} must satisfy 0 <= {name} <= d-2 = {curve.d - 2}")
    if not 1 <= k <= curve.d:
        raise ClassSpecError("direction index out of range")


def _canonical_scale(p):
    """Divide out the coefficient of the grevlex-largest monomial.

    Multiplying the prefactor of a class by a constant does not change its
    Chebyshev constant; canonicalizing makes the finite-n values literally
    invariant as well.
    """
    top = max(p.terms, key=_grevlex_key)
    return p * (1.0 / p.coeff(*top))


class _Product:
    """Leading term NF(R Q^n), the S basis below deg R + n deg Q free.  A class
    of this kind gives its prefactor R, which needs no curve, and
    base(curve) -> Q, checking its indices (by default its own q)."""

    @property
    def powers(self):
        """True when R is constant: the class is the powers of one Q."""
        return self.prefactor.degree == 0

    def base(self, curve):
        return self.q

    def degree(self, curve, n):
        """deg R + n deg Q, the degree of the leading term."""
        return int(self.prefactor.degree + n * self.base(curve).degree)

    def parametrize(self, curve, n):
        q = self.base(curve)
        leading = normal_form(curve, self.prefactor * pow_mod(curve, q, n))
        if leading.degree != self.degree(curve, n):
            # NF(R Q^n) loses degree exactly when the leading form of P
            # divides R Q^n, or here its top terms fell to PRUNE_REL, as a
            # high power's can.  A linear factor of that form has multiplicity
            # at most d, so past n = d the first holds at n when it holds at d
            low = min(n, curve.d)
            low_form = leading if low == n else normal_form(
                curve, self.prefactor * pow_mod(curve, q, low))
            if low_form.degree != self.degree(curve, low):
                raise ClassSpecError("leading term loses degree in the coordinate ring")
        # leading_residual projects R Q^i off degree < deg R + i deg Q
        return leading, basis_through_degree(curve, BASIS_S, self.degree(curve, n) - 1)

    def leading_residual(self, curve, n, K):
        """(values on K, polynomial builder) of R Q^n projected off the S basis
        below its degree: link n of the chain of (R, Q) kept on K's S design."""
        return _design(curve, K, BASIS_S).chain(self.prefactor, self.base(curve), n)


class _Position:
    """Leading term the index-th element of basis B, the elements before it
    free.  A class of this kind gives position(curve, n) -> (B, index),
    checking its indices."""

    powers = False

    def degree(self, curve, n):
        """The degree of the element."""
        return basis_enumerate(curve, *self.position(curve, n))[-1].degree

    def parametrize(self, curve, n):
        *free, el = basis_enumerate(curve, *self.position(curve, n))
        return el.poly, free

    def leading_residual(self, curve, n, K):
        """(values on K, polynomial builder) of the element's residual."""
        basis_id, index = self.position(curve, n)
        return _design(curve, K, basis_id).residual(index)


def _block_position(curve, basis_id, degree, pos):
    """(B, index) of element pos of the degree block of basis B."""
    start = len(basis_through_degree(curve, basis_id, degree - 1))
    if pos >= len(basis_through_degree(curve, basis_id, degree)) - start:
        raise ClassSpecError(f"no position {pos} in the degree-{degree} block of {basis_id}")
    return basis_id, start + pos + 1


@dataclass(frozen=True)
class MQ(_Product):
    """Powers of a homogeneous Q with free lower-order terms."""

    q: BivarPoly

    def __post_init__(self):
        _require_homogeneous(self.q, "Q")

    def describe(self):
        return f"M({self.q.short()})"

    prefactor = BivarPoly.constant(1.0)


@dataclass(frozen=True)
class MRQ(_Product):
    """R * Q^n with free lower-order terms; R is scale-canonicalized."""

    r: BivarPoly
    q: BivarPoly

    def __post_init__(self):
        _require_homogeneous(self.r, "R")
        _require_homogeneous(self.q, "Q")

    def describe(self):
        return f"M_{self.r.short()}({self.q.short()})"

    @cached_property
    def prefactor(self):
        return _canonical_scale(self.r)


@dataclass(frozen=True)
class Zk(_Position):
    """Leading z2^k z1^n, lower terms free in the graded S ordering."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ClassSpecError("k must be >= 0")

    def describe(self):
        return f"Z({self.k})"

    def position(self, curve, n):
        if self.k > curve.d - 1:
            raise ClassSpecError(f"k must be <= d-1 = {curve.d - 1}")
        return _block_position(curve, BASIS_S, n + self.k, self.k)


@dataclass(frozen=True)
class Mz1jVk(_Product):
    """Leading z1^j v_k^n with all lower-degree terms free."""

    j: int
    k: int

    def describe(self):
        return f"M_z1^{self.j}(v{self.k})"

    @property
    def prefactor(self):
        return BivarPoly.monomial(self.j, 0)

    def base(self, curve):
        _require_direction(curve, "j", self.j, self.k)
        return curve.dirbasis[self.k - 1]


@dataclass(frozen=True)
class TildeMl(_Position):
    """Leading z1^l v_j^n, lower terms free in the graded C ordering."""

    l: int
    j: int

    def describe(self):
        return f"Mt_z1^{self.l}(v{self.j})"

    def position(self, curve, n):
        # z1^l v_j^n is element j-1 of its degree block
        _require_direction(curve, "l", self.l, self.j)
        return _block_position(curve, BASIS_C, n * (curve.d - 1) + self.l, self.j - 1)


@dataclass(frozen=True)
class Tau(_Position):
    """Leading b_n, the n-th element of the graded basis, b_1..b_(n-1) free;
    the norm is tau_n^deg(b_n)."""

    basis_id: str

    def describe(self):
        return f"tau({self.basis_id})"

    def position(self, curve, n):
        return self.basis_id, n


@dataclass
class ChebSolve:
    spec: object
    n: int                      # class parameter
    total_degree: int           # degree of the leading term in C[A]
    norm: float
    tn: float
    iterations: int
    converged: bool
    # (residual polynomial builder, the design's combine, coefficients u)
    parts: tuple = field(repr=False, compare=False)
    ridge_used: bool = False    # the design dropped a column of the free basis, dependent on K
    gap: float = 0.0            # certified optimality gap: norm - lower bound

    @cached_property
    def minimizer(self):
        """The minimizer f + sum u_i q_i, built on first read."""
        build, combine, u = self.parts
        return combine(build(), u)


# ---------------------------------------------------------------------------
# Class parametrization
# ---------------------------------------------------------------------------

def class_parametrize(curve, spec, n):
    """Leading polynomial and free basis of the class at parameter n.

    Returns (leading, free) where free is the list of BasisElement whose
    span, added to the leading term, exhausts the class at that degree.
    """
    if n < 1:
        raise ClassSpecError("class parameter must be >= 1")
    return spec.parametrize(curve, n)


def basis_values(curve, elements, points):
    """Design matrix of a graded basis prefix at the (N, 2) points (N x m):
    each column is its generator times its parent's column (parent_rule)."""
    points = np.asarray(points, dtype=complex)
    cols = {}
    out = np.empty((len(points), len(elements)), dtype=complex)
    for i, el in enumerate(elements):
        rule = parent_rule(curve, el.shape)
        cols[el.shape] = out[:, i] = (np.ones(len(points)) if rule is None else
                                      rule[1](points[:, 0], points[:, 1]) * cols[rule[0]])
    return out


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

SINGULAR_RATIO = 1e-14  # norm kept by projection at or below which a column is dropped


@dataclass(eq=False)
class _Step:
    vals: np.ndarray            # a residual or chain link on K
    parent: object              # a _Step, or the root polynomial where gen is None
    gen: object                 # the generator multiplying the parent
    coeffs: np.ndarray          # -(h + dh), the projection on the first len(coeffs) columns
    poly: object = None         # the normal-form polynomial, once read


class _Design:
    """Orthonormal columns of a graded basis on a sample, built by Arnoldi
    (Brubeck, Nakatsukasa and Trefethen, SIAM Rev. 63, 2021) as elements
    are asked for.  Element j is its generator g times its parent p
    (polyring.parent_rule); its residual r_j, its part orthogonal on K to
    the elements before it, is g r_p projected twice off the columns so
    far.  This is the one rank decision: if projection keeps at most
    SINGULAR_RATIO of |g r_p|, b_j depends on earlier elements on K and its
    column is dropped, as are its descendants'; else r_j / |r_j| is the
    next column.  The design keeps the product chains posed on it: link i
    of the chain of (R, Q) is R Q^i projected off the elements below its
    degree, computed as link i - 1 times Q, projected, so no value holds
    R Q^i's cancellation.  Polynomials are built only when read (poly).
    """

    def __init__(self, curve, points, basis_id):
        self.curve, self.z, self.basis_id = curve, points.T, basis_id
        self.Q = np.zeros((len(points), 0), dtype=complex)   # a view of the first columns of _buf
        self._buf = self.Q
        self.residuals = {}     # shape -> _Step
        self.counts = [0]       # counts[j]: the columns of the first j elements
        self.cols = {}          # the _Step of each column -> 1 / |r_j|
        self.col_polys = []     # the polynomials of the first columns, once read
        self.chains = {}        # (R, Q) -> [_Step of R Q^i projected]

    def project(self, parent, gen, Q):
        """The _Step of gen times parent (root parent where gen is None) projected
        twice off the columns Q, and the norm before."""
        vals = parent(*self.z) if gen is None else gen(*self.z) * parent.vals
        QH = Q.conj().T
        h = QH @ vals
        projected = vals - Q @ h
        dh = QH @ projected
        return _Step(projected - Q @ dh, parent, gen, -(h + dh)), np.linalg.norm(vals)

    def residual(self, count):
        """Residual (values, polynomial builder) of element `count`, 1-based."""
        for el in basis_enumerate(self.curve, self.basis_id, count)[len(self.residuals):]:
            rule = parent_rule(self.curve, el.shape)
            parent, gen = (el.poly, None) if rule is None else (self.residuals[rule[0]], rule[1])
            step, before = self.project(parent, gen, self.Q)
            after = np.linalg.norm(step.vals)
            if (rule is None or parent in self.cols) and after > SINGULAR_RATIO * before:
                k = len(self.cols)
                self.cols[step] = 1.0 / after
                if k == self._buf.shape[1]:     # full: double it
                    self._buf = np.empty((len(self._buf), 2 * k + 1), dtype=complex)
                    self._buf[:, :k] = self.Q
                self._buf[:, k] = step.vals / after
                self.Q = self._buf[:, :k + 1]
            self.residuals[el.shape] = step
            self.counts.append(len(self.cols))
        return self.read(list(self.residuals.values())[count - 1])

    def columns(self, count):
        """The columns of the first `count` elements."""
        if count > len(self.residuals):
            self.residual(count)
        return self.Q[:, :self.counts[count]]

    def chain(self, prefactor, q, n):
        """Link n of the chain of (NF(prefactor), q): (values, polynomial builder)."""
        links = self.chains.setdefault((prefactor, q), [])
        r = links[0].parent if links else normal_form(self.curve, prefactor)
        for i in range(len(links), n + 1):
            degree = int(r.degree + i * q.degree)
            Q = self.columns(len(basis_through_degree(self.curve, self.basis_id, degree - 1)))
            links.append(self.project(links[-1] if i else r, q if i else None, Q)[0])
        return self.read(links[n])

    def read(self, step):
        return step.vals, lambda: self.poly(step)

    def poly(self, step):
        """The step's polynomial, built and kept by replaying its steps in order."""
        todo = [step]
        while todo[-1].poly is None and todo[-1].gen is not None:
            todo.append(todo[-1].parent)
        for s in reversed(todo):
            if s.poly is None:
                base = s.parent if s.gen is None else normal_form(self.curve, s.gen * s.parent.poly)
                s.poly = self.combine(base, s.coeffs)
        return step.poly

    def combine(self, poly, coeffs):
        """poly + sum coeffs[i] q_i over the column polynomials, in one pass."""
        for step, scale in list(self.cols.items())[len(self.col_polys):len(coeffs)]:
            self.col_polys.append(self.poly(step) * scale)
        acc = poly.terms
        for p, c in zip(self.col_polys, coeffs):
            for mon, v in p.terms.items():
                acc[mon] = acc.get(mon, 0j) + c * v
        return BivarPoly(acc)


def _design(curve, K, basis_id):
    """The design of basis_id on K, cached on K (holding the curve's id)."""
    return K._cache.setdefault((id(curve), basis_id), _Design(curve, K.points, basis_id))


def _pose(free_basis, K, *, curve, spec, n):
    """The problem of the class spec at parameter n on K, free_basis the
    graded basis prefix class_parametrize gave (an empty one is posed on
    the S design): its design, the columns Q of the free basis and the
    leading residual's (values, polynomial builder)."""
    npts, m = len(K.points), len(free_basis)
    if m > npts:
        raise SampleTooSmall(f"free basis ({m}) must not exceed the sample ({npts})")
    design = _design(curve, K, free_basis[0].basis_id if free_basis else BASIS_S)
    return (design, design.columns(m), *spec.leading_residual(curve, n, K))


def minimax_solve(leading, free_basis, K, *, curve, spec, n, posed):
    """The ChebSolve of the class spec at parameter n, whose leading term
    and free basis class_parametrize gave: it waits for the job of the
    problem chebyshev_sequence posed, posed = (_pose's pieces, job), and
    labels its Solution.  tn is norm ** (1/total_degree).  Called once per
    solve, with this call shape: perfbench/spans.py reads free_basis and K
    as positional arguments and spec as a keyword.
    """
    design, Q, _, build, job = posed
    sol = job.result()
    total_degree = spec.degree(curve, n)
    tn = sol.norm ** (1.0 / total_degree) if total_degree > 0 else float("nan")
    return ChebSolve(spec=spec, n=n, total_degree=total_degree,
                     norm=sol.norm, tn=tn, iterations=sol.iterations, converged=sol.converged,
                     ridge_used=Q.shape[1] < len(free_basis), gap=sol.gap,
                     parts=(build, design.combine, sol.u))


# ---------------------------------------------------------------------------
# Sequences and constants
# ---------------------------------------------------------------------------

def _key(curve, leading, free, opts):
    """The problem: the leading term, the free basis (a graded basis prefix:
    its design on K, which holds the curve, and its length) and the options."""
    return (id(curve), free[0].basis_id if free else BASIS_S, len(free), leading, opts)


def chebyshev_solve(curve, spec, K, n, opts=None):
    """One minimax solve for the class at parameter n: a sequence of one."""
    return chebyshev_sequence(curve, spec, K, [n], opts)[0]


def solves_on(K):
    """The solves kept on K, one per problem, in the order first posed."""
    return list(K._solves.values())


def chebyshev_sequence(curve, spec, K, n_range, opts=None):
    """One minimax solve per class parameter, each labelled with spec and n.

    Each parameter's class is parametrized once, and its problem (_key)
    not yet on K is posed once, in ascending n: so the designs grow in the
    order the solves one by one would grow them, and each (Q, f) has the
    same bits.  Each closed-form start runs here, and minimax.dispatch
    shares the uncertified ones with worker processes.  Then, in ascending
    n, the first poser of a problem solves it (minimax_solve) and the
    solve is kept on K; later posers get that solve under their own spec
    and n.  The first parameter whose class cannot be set up or solved
    raises, after the solves before it, so no constant is estimated from a
    sequence with a hole in it.  A failed solve is not kept, and the jobs
    still pending are cancelled.
    """
    n_range = list(n_range)
    if not n_range:
        raise ValueError("empty parameter range")
    if any(b <= a for a, b in zip(n_range, n_range[1:])):
        raise ValueError("parameter range must be increasing")
    opts = opts or SolverOptions()
    # posed: key -> (leading, free, _pose's pieces, Start)
    keys, posed, error = [], {}, None
    try:
        for n in n_range:
            leading, free = class_parametrize(curve, spec, n)
            key = _key(curve, leading, free, opts)
            if key not in K._solves and key not in posed:
                design, Q, fp, build = _pose(free, K, curve=curve, spec=spec, n=n)
                posed[key] = leading, free, (design, Q, fp, build), minimax.Start(Q, fp, opts)
            keys.append(key)
    except Exception as exc:    # raised at its parameter, after the solves before it
        error = exc
    jobs = dict(zip(posed, minimax.dispatch([start for *_, start in posed.values()])))
    try:
        out = []
        for n, key in zip(n_range, keys):
            if key not in K._solves:
                leading, free, pieces, _ = posed[key]
                K._solves[key] = minimax_solve(leading, free, K, curve=curve, spec=spec, n=n,
                                               posed=(*pieces, jobs[key]))
            hit = K._solves[key]
            out.append(hit if (hit.spec, hit.n) == (spec, n) else replace(hit, spec=spec, n=n))
        if error is not None:
            raise error
        return out
    finally:
        for job in jobs.values():
            job.cancel()


def tau_sequence(curve, K, basis_id, count, opts=None):
    """Solves of Tau(basis_id) at the first `count` positions.

    Position 1 has degree 0 and carries no tn.  A position shares its
    solve with any class posing the same problem on K, such as the
    matching Zk class of the S basis.
    """
    return chebyshev_sequence(curve, Tau(basis_id), K, range(1, count + 1), opts)


@dataclass
class ConstantEstimate:
    spec: object
    solves: list                # the ChebSolves read, by ascending n
    estimate: float
    method: str                 # "infRule" or "tailMean"
    lower: float
    upper: float
    reliable: bool


def constant_estimate(seq):
    """Estimate the Chebyshev constant from a sequence of solves.

    Product-kind classes with a constant prefactor (the powers of a single
    Q) are closed under multiplication, so their norms are
    log-subadditive, the limit is the inf and min(tn) is used.
    Other classes follow log tn = log T + C/deg closely; the tail (last
    ceil(third)) is fit to that model and the intercept reported, which
    removes the O(1/deg) bias a plain tail mean keeps.  The raw tail min
    and max are reported as bounds; the extrapolated estimate may sit
    slightly below the tail when C > 0.
    """
    if len(seq) < 3:
        raise ValueError("need at least 3 solves to estimate a constant")
    spec = seq[0].spec
    if spec.powers:
        method = "infRule"
        estimate = min(s.tn for s in seq)
        tail = seq
    else:
        method = "tailMean"
        ntail = -((-len(seq)) // 3)  # ceil(len/3)
        tail = seq[-ntail:]
        logs = np.array([np.log(s.tn) if s.tn > 0 else -np.inf for s in tail])
        if np.any(~np.isfinite(logs)):
            estimate = 0.0
        else:
            gmean = float(np.exp(np.mean(logs)))
            degs = np.array([float(s.total_degree) for s in tail])
            if len(tail) >= 2 and len(set(degs)) >= 2:
                A = np.stack([np.ones_like(degs), 1.0 / degs], axis=1)
                (intercept, slope), *_ = np.linalg.lstsq(A, logs, rcond=None)
                estimate = float(np.exp(intercept))
                # guard against ill-fitting tails: fall back to the mean
                if not (0.7 * gmean <= estimate <= 1.3 * gmean):
                    estimate = gmean
            else:
                estimate = gmean
    lower = min(s.tn for s in tail)
    upper = max(s.tn for s in tail)
    reliable = all(s.converged for s in tail)
    return ConstantEstimate(
        spec=spec,
        solves=seq,
        estimate=float(estimate),
        method=method,
        lower=float(lower),
        upper=float(upper),
        reliable=reliable,
    )


def directional_constants(curve, K, max_degree, opts=None):
    """Estimates of T(K, lam_k) for every direction k, via powers of v_k
    (the only place their sequences are run)."""
    curve.require_directional("directional constants")
    n_top = max(3, max_degree // (curve.d - 1))
    return [constant_estimate(chebyshev_sequence(curve, MQ(v), K, range(1, n_top + 1), opts))
            for v in curve.dirbasis]


def ordered_constants(curve, K, max_degree, opts=None):
    """Estimates of T(K, Z(k)) for k = 0..d-1, the S-ordering classes to
    total degree about max_degree (the only place their sequences are run).
    They need no directions, so a relaxed curve has them too."""
    return [constant_estimate(chebyshev_sequence(curve, Zk(k), K,
                                                 range(1, max(4, max_degree - k) + 1), opts))
            for k in range(curve.d)]


# constants whose logs differ by at most this are treated as ties: they are
# ordered by phase, and they disable the strict-increase hypothesis flag
STRICT_RHO_TOL = 1e-4


def tie_groups(rhos, phases):
    """Indices by ascending rho in groups of ties, a rho within STRICT_RHO_TOL
    of the one before it joining its group; each group by ascending phase."""
    groups = []
    for i in sorted(range(len(rhos)), key=rhos.__getitem__):
        if groups and rhos[i] <= rhos[groups[-1][-1]] + STRICT_RHO_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [sorted(g, key=phases.__getitem__) for g in groups]


def descending_direction_order(curve, estimates):
    """Permutation of direction indices by descending T estimate.

    Estimates within STRICT_RHO_TOL in log T are tied and go by ascending
    phase of the direction, which keeps the relabeling deterministic.
    """
    rhos = [-math.log(e.estimate) if e.estimate > 0 else math.inf for e in estimates]
    phases = [float(np.angle(lam)) for lam in curve.directions]
    return [i for group in tie_groups(rhos, phases) for i in group]


# perfbench/spans.py traces comparison_report under this name; ROADMAP item 6
# deletes the alias
from .verify import comparison_report  # noqa: E402,F401
