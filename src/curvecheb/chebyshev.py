"""Monic polynomial classes and discrete complex minimax solves.

A class fixes a leading term and leaves lower terms free.  It is of the
product kind (MQ, MRQ, Mz1jVk: leading term NF(R Q^n), every term of lower
degree free) or of the position kind (Zk, TildeMl, Tau: an element of a
graded basis, the elements before it free; Tau(B) at n is the n-th element
of B, whose norm is tau_n^deg).  T_n values are the n-th roots of the
minimal sup norms over a SampledSet, n the degree of the leading term in
the coordinate ring.  In a sweep(), as in `curvecheb verify`, each minimax
problem is solved once, whichever class poses it.

Each problem is posed on the orthonormal design Q of its basis on K, built
by Arnoldi once per (K, basis) and cached on K (_Design), which holds the
class's leading residual f, the leading term projected off the free span.
A solve reads values only; polynomials, such as the minimizer
f + sum u_i q_i, are built when read.  min_u max_i |f_i + (Q u)_i| is the
second-order cone program min t subject to |f_i + (Q u)_i| <= t, one cone
per sample point, solved by a primal-dual interior-point method with
Mehrotra predictor-corrector steps and Nesterov-Todd scaling (_minimax,
_normal_inverse) from the closed-form least squares point u = 0
(SolverOptions.max_iter counts it).

Every iterate's max modulus is an upper bound.  The certificate is a lower
bound: sqrt(mean |f|^2) at the start, then, once the method's own duality
gap is below tol * t, the dual bound |y^H f| / |y|_1 of complex Chebyshev
approximation, y the dual iterate projected onto the orthogonal complement
of range(Q) (Rivlin and Shapiro, J. SIAM 9, 1961).  A solve is converged
when norm <= lb * (1 + tol), and gap = norm - lb.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class SolverOptions:
    """max_iter caps the interior-point iterations of a solve, the
    closed-form first one included; tol is the relative certified gap a
    converged solve must reach."""

    max_iter: int = 500
    tol: float = 1e-8

    def validated(self):
        """self, or a ValueError naming the first bad field.  A bool is
        neither a count nor a tolerance, though Python counts it as both."""
        max_iter, tol = self.max_iter, self.tol
        if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral)
                                               and max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, not {max_iter!r}")
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"tol must be a number, not {tol!r}")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be positive and finite, not {tol!r}")
        return self


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
# Interior-point minimax
# ---------------------------------------------------------------------------
#
# A vector of the product of N second-order cones {u0 >= |u1|}, one cone per
# sample point, is held as a real array u0 and a complex array u1.  The
# primal slack is s = (t, f + G c), the dual variable z = (z0, zeta).

EPS = np.finfo(float).eps
T0 = 1.5                # starting t over the max modulus of f
STEP = 0.99             # fraction of the step to the cone boundary taken
SINGULAR_RATIO = 1e-14  # norm kept by projection at or below which a column is dropped


class _NTScaling:
    """Nesterov-Todd scaling W of an interior pair (s, z), given |s1| and |z1|.

    W is symmetric and maps the cone onto itself, and W z = W^-1 s = lam.
    Per point W = beta * [[w0, w1^T], [w1, I + w1 w1^T / (1 + w0)]] with
    w0^2 - |w1|^2 = 1 (Vandenberghe, The CVXOPT linear and quadratic cone
    program solvers, 2010, section 4).
    """

    def __init__(self, s0, s1, z0, z1, s1_abs, z1_abs):
        # sqrt(u0^2 - |u1|^2) per point, factored to avoid cancellation
        sn, zn = np.sqrt((s0 - s1_abs) * (s0 + s1_abs)), np.sqrt((z0 - z1_abs) * (z0 + z1_abs))
        isn, izn = 1.0 / sn, 1.0 / zn
        gamma = np.sqrt(0.5 * (1.0 + (s0 * z0 + (s1.conj() * z1).real) * isn * izn))
        half = 0.5 / gamma
        self.w0 = (s0 * isn + z0 * izn) * half
        self.w1 = (s1 * isn - z1 * izn) * half
        self.w1c, self.w0p = self.w1.conj(), 1.0 / (1.0 + self.w0)
        self.d = zn * isn               # D = beta^-2, the scale of W^-2
        self.rd = np.sqrt(self.d)       # 1 / beta
        self.beta = np.sqrt(sn * izn)
        self.lam = self.apply(z0, z1)
        self.lam_jnorm2 = sn * zn

    def apply(self, u0, u1):
        d = (self.w1c * u1).real
        return (self.beta * (self.w0 * u0 + d),
                self.beta * (u1 + (u0 + d * self.w0p) * self.w1))

    def inverse(self, u0, u1):
        d = (self.w1c * u1).real
        return (self.rd * (self.w0 * u0 - d),
                self.rd * (u1 + (d * self.w0p - u0) * self.w1))

    @cached_property
    def _eigenvectors(self):
        """e, conj(e) and the weights 0.5 d / sigma^2 and 0.5 d sigma^2 of
        inverse_square, which conjugate gradients apply several times."""
        a = np.abs(self.w1)
        flat = a == 0.0         # w1 = 0: e is any unit vector, here 1
        e = (self.w1 + flat) / (a + flat)
        s2 = (self.w0 + a) ** 2
        return e, e.conj(), 0.5 * self.d / s2, 0.5 * self.d * s2

    def inverse_square(self, u0, u1):
        """W^-2 u, summed over the eigenvectors of W: (1, +-e) / sqrt(2)
        with eigenvalues beta sigma^+-1, where e = w1 / |w1| and
        sigma = w0 + |w1|, and (0, i e) with eigenvalue beta.  Each part
        keeps its own relative accuracy, which W^-1 applied twice loses to
        cancellation once sigma^2 is large."""
        e, ec, lo_w, hi_w = self._eigenvectors
        q = ec * u1
        lo, hi = (u0 + q.real) * lo_w, (u0 - q.real) * hi_w
        return lo + hi, e * (lo - hi + 1j * self.d * q.imag)


def _max_step(lam0, lam1, lam_jnorm2, d0, d1):
    """Largest a with lam + a d inside every cone for every row d of (d0, d1), or inf.

    Per point the boundary is the first positive root of
    lam_jnorm2 + 2 b a + q a^2, with b = lam^T J d and q = d^T J d, at
    a = lam_jnorm2 / (sqrt(disc) - b), disc = b^2 - q lam_jnorm2.  As lam
    is inside its cone, disc >= 0 (the reverse Cauchy-Schwarz inequality
    where q > 0), and a point with q >= 0 and b >= 0 has roots a <= 0 only,
    where sqrt(disc) - b <= 0: so 1 / a is the largest
    (sqrt(disc) - b) / lam_jnorm2, and no cone is hit where that is not
    positive.  disc is 0 where d is parallel to lam and rounds to either
    sign there, hence its modulus.
    """
    q = d0 * d0 - (d1 * d1.conj()).real
    b = lam0 * d0 - (lam1.conj() * d1).real
    disc = b * b - q * lam_jnorm2
    inv = float(((np.sqrt(np.abs(disc)) - b) / lam_jnorm2).max())
    return 1.0 / inv if inv > 0.0 else np.inf


def _rho(lam2, ds_dz, alpha):
    """<lam + alpha ds, lam + alpha dz> / <lam, lam> after the predictor
    step alpha, from lam2 = <lam, lam> and ds_dz = <ds, dz>, where
    ds = W^-1 ds_a and dz = W dz_a are its scaled steps: as ds + dz = -lam,
    it is (1 - alpha) + alpha^2 <ds, dz> / <lam, lam>."""
    return (1.0 - alpha) + alpha * alpha * ds_dz / lam2


def _gram(X):
    """F^T F, F the float view (Re x_1, Im x_1, ...) of the complex X, by
    one symmetric product, as 2 x 2 blocks indexed [j, :, k, :]."""
    F, m = X.view(float), X.shape[1]
    return (F.T @ F).reshape(m, 2, m, 2)


def _normal_inverse(G, W):
    """The Newton matrix M = A^T W^-2 A shifted to M + delta I, whose
    inverse each step applies by np.linalg.solve, and eps cond(M) from the
    Cholesky pivots of M + delta I, about the relative error of that solve.
    The unknowns are (t, Re c_1, Im c_1, ..., Re c_m, Im c_m).

    Per point W^-2 = D (2 w w^T - J) with D = beta^-2, w = (w0, -w1) and
    J = diag(1, -1, -1): a diagonal plus a rank-one term per cone
    (Andersen, Roos and Terlaky, Math. Program. 95, 2003).  The c block of
    M is the real form of G^H D G plus the rank-one terms:
    - the real form comes from P = X^T X, X the float view of sqrt(D) G,
      as [[a + d, c - b], [b - c, a + d]] from each 2 x 2 block
      [[a, b], [c, d]] of P;
    - the rank-one terms are V^T V, V the float view of
      sqrt(2 D) conj(w1) G, with the signs of the rows (-Re h, Im h) of
      h = conj(w1) G.
    The t row is the float view of (2 D w0 conj(w1))^T G with those signs,
    and the t entry is sum D (2 w0^2 - 1).  delta = eps trace(M) keeps M +
    delta I definite where M is singular near the optimum (Altman and
    Gondzio, Optim. Methods Softw. 11, 1999), and cond(M) is estimated as
    (max L_ii / min L_ii)^2 from M + delta I = L L^T.
    """
    m, d = G.shape[1], W.d
    # one (points x 2m) temporary at a time, each freed as _gram returns:
    # two alive at once make the allocator hand their pages back to the
    # system and fault them in again at the next step
    P = _gram(W.rd[:, None] * G)
    C = _gram((np.sqrt(2.0 * d) * W.w1c)[:, None] * G)
    diag, skew = P[:, 0, :, 0] + P[:, 1, :, 1], P[:, 1, :, 0] - P[:, 0, :, 1]
    C[:, 0, :, 0] += diag
    C[:, 1, :, 1] += diag
    C[:, 0, :, 1] = skew - C[:, 0, :, 1]
    C[:, 1, :, 0] = -skew - C[:, 1, :, 0]
    tc = ((2.0 * d * W.w0 * W.w1c) @ G).view(float)
    tc[::2] *= -1.0
    M = np.empty((2 * m + 1, 2 * m + 1))
    M[0, 0] = np.dot(d, 2.0 * W.w0 * W.w0 - 1.0)
    M[0, 1:] = M[1:, 0] = tc
    M[1:, 1:] = C.reshape(2 * m, 2 * m)
    M.flat[::2 * m + 2] += EPS * np.trace(M)
    pivots = np.diagonal(np.linalg.cholesky(M))
    return M, EPS * (pivots.max() / pivots.min()) ** 2


def _cg(product, Ms, b, x, r, tol):
    """x with product(x) = M x = b by conjugate gradients preconditioned
    with Ms^-1, Ms close to M and inverted once, from x with residual
    r = b - M x, until the residual is at most tol |b| or after len(b)
    steps.  Returns the start instead if its residual is the smaller one,
    as where M is too ill-conditioned for the recurrence."""
    x0, res0, bound = x, np.linalg.norm(r), tol * np.linalg.norm(b)
    Mi, p, rz = np.linalg.inv(Ms), 0.0, 1.0
    for _ in range(len(b)):
        z = Mi @ r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        q = product(p)
        pq = p @ q
        if not pq > 0.0:
            break
        x, r = x + (rz / pq) * p, r - (rz / pq) * q
        if not np.linalg.norm(r) > bound:
            break
    return x if np.linalg.norm(b - product(x)) < res0 else x0


def _minimax(G, f, opts):
    """Discrete complex minimax min_c max_i |f_i + (G c)_i|, where
    G^H G = npts I (orthogonal columns of RMS 1 over the points, which the
    projection of the dual bound relies on), f is orthogonal to them and
    max |f| = 1.

    Returns (c, norm, lb, iterations, converged): the best coefficients
    found, c = 0 included, their max modulus, a certified lower bound of
    the minimum, and the solve's bookkeeping.
    """
    npts, m = G.shape
    tol = opts.tol

    # iteration 1: as f is orthogonal to range(G), the uniform-weight least
    # squares point is c = 0, with residual f; it is also the starting point
    c, r = np.zeros(m, dtype=complex), f
    t, lb = float(np.max(np.abs(f))), float(np.sqrt(np.mean(np.abs(f) ** 2)))
    best_c, best_ub = c, t
    iterations = 1
    converged = best_ub <= lb * (1.0 + tol)
    t *= T0
    z0, z1 = np.full(npts, 1.0 / npts), np.zeros(npts, dtype=complex)
    GH = G.conj().T if not converged and opts.max_iter > 1 else None    # if the loop runs

    while not converged and iterations < opts.max_iter:
        # stop where rounding takes over: s or z on the boundary, or, as
        # max |f| = 1, an upper bound t at the level of f's rounding error
        r_abs, z1_abs = np.abs(r), np.abs(z1)
        if not (t > EPS and t - r_abs.max() > 0.0 and (z0 - z1_abs).min() > 0.0):
            break
        iterations += 1
        W = _NTScaling(t, r, z0, z1, r_abs, z1_abs)
        lam0, lam1 = W.lam
        # every Newton system M x = rhs is solved against M shifted by
        # eps trace(M).  Near a degenerate optimum M has eigenvalues below
        # its own rounding, and x can miss M x = rhs by up to eps cond(M);
        # past tol, x is checked against M applied unformed, through W^-2
        # on its eigenvectors, and refined by conjugate gradients where it
        # misses by more than tol
        Ms, err = _normal_inverse(G, W)

        def normal_product(dt, gdc):
            """M (dt, dc) from dt and G dc, with W^-2 applied on its eigenvectors."""
            v0, v1 = W.inverse_square(dt, gdc)
            return np.concatenate([[v0.sum()], (GH @ v1).view(float)])

        def newton(rhs, u0, u1):
            """Steps (dt, dc, G dc) and the scaled steps W^-1 ds and W dz,
            stacked as the rows of d0 and d1, with W dz + W^-1 ds = u and
            M (dt, dc) = rhs, the right-hand side that u gives."""
            dx = np.linalg.solve(Ms, rhs)
            gdc = G @ dx[1:].view(complex)
            if err > tol:
                res = rhs - normal_product(dx[0], gdc)
                if np.linalg.norm(res) > tol * np.linalg.norm(rhs):
                    dx = _cg(lambda x: normal_product(x[0], G @ x[1:].view(complex)),
                             Ms, rhs, dx, res, tol)
                    gdc = G @ dx[1:].view(complex)
            d0, d1 = np.empty((2, npts)), np.empty((2, npts), dtype=complex)
            d0[0], d1[0] = W.inverse(dx[0], gdc)
            d0[1], d1[1] = u0 - d0[0], u1 - d1[0]
            return dx[0], dx[1:].view(complex), gdc, d0, d1

        # predictor (affine scaling): lam o (W dz + W^-1 ds) = -lam o lam.
        # Its right-hand side A^T W^-1 u - (A^T z - e_t) is -e_t exactly, as
        # W^-1 (-lam) = -z
        rhs = np.zeros(2 * m + 1)
        rhs[0] = -1.0
        _, _, _, d0, d1 = newton(rhs, -lam0, -lam1)
        alpha = min(1.0, _max_step(lam0, lam1, W.lam_jnorm2, d0, d1))
        (as0, az0), (as1, az1) = d0, d1
        # first coordinates of lam o lam and (W^-1 ds_a) o (W dz_a)
        lam_lam = lam0 * lam0 + (lam1 * lam1.conj()).real
        ds_dz = as0 * az0 + (as1.conj() * az1).real
        lam2 = lam_lam.sum()
        target = min(max(_rho(lam2, ds_dz.sum(), alpha), 0.0), 1.0) ** 3 * lam2 / npts

        # corrector: lam o u = -lam o lam - (W^-1 ds_a) o (W dz_a) + target e
        e0 = target - lam_lam - ds_dz
        e1 = -2.0 * lam0 * lam1 - as0 * az1 - az0 * as1
        u0 = (lam0 * e0 - (lam1.conj() * e1).real) / W.lam_jnorm2
        u1 = (e1 - u0 * lam1) / lam0
        # right-hand side A^T (W^-1 u + z) - e_t
        v0, v1 = W.inverse(u0, u1)
        rhs = np.concatenate([[(v0 + z0).sum() - 1.0], (GH @ (v1 + z1)).view(float)])
        dt, dc, gdc, d0, d1 = newton(rhs, u0, u1)
        alpha = min(1.0, STEP * _max_step(lam0, lam1, W.lam_jnorm2, d0, d1))
        if not alpha > 0.0:
            break

        # the slack moves by its own step, not as f + G c recomputed, which
        # would cancel to well below the accuracy of f when |f| >> norm
        t += alpha * dt
        c = c + alpha * dc
        r = r + alpha * gdc
        dz0, dz1 = W.inverse(d0[1], d1[1])
        z0, z1 = z0 + alpha * dz0, z1 + alpha * dz1
        ub = float(np.abs(f + G @ c).max())
        if ub < best_ub:
            best_c, best_ub = c, ub
        gap = t * float(z0.sum()) + float(np.vdot(r, z1).real)
        stalled = False
        if gap <= tol * t:
            # dual bound: with y = z1 projected twice onto null(G^H),
            # y^H f = y^H (f + G c) for every c, so |y^H f| / |y|_1 is below
            # every max |f + G c|
            y = z1 - G @ (GH @ z1) / npts
            y = y - G @ (GH @ y) / npts
            y1 = float(np.abs(y).sum())
            lby = float(abs(np.vdot(y, f))) / y1 if y1 > 0.0 else 0.0
            stalled = lby <= lb
            lb = max(lb, lby)
        converged = best_ub <= lb * (1.0 + tol)
        if stalled:
            break           # rounding, not the method, now limits the bound
    return best_c, best_ub, lb, iterations, converged


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


def minimax_solve(leading, free_basis, K, opts=None, *, curve=None, spec=None, n=None):
    """Chebyshev polynomial of the affine family leading + span(free_basis).

    leading is a BivarPoly in normal form; free_basis a graded basis prefix.
    The leading residual and total degree are the class spec's at parameter
    n, or without a spec leading projected and its degree.  The ChebSolve's
    tn is norm ** (1/total_degree).
    """
    opts = (opts or SolverOptions()).validated()
    npts, m = len(K.points), len(free_basis)
    if m > npts:
        raise SampleTooSmall(f"free basis ({m}) must not exceed the sample ({npts})")

    basis_id = free_basis[0].basis_id if free_basis else BASIS_S
    if [(el.basis_id, el.index) for el in free_basis] != [(basis_id, i + 1) for i in range(m)]:
        raise ValueError("free basis must be a graded basis prefix")
    design = _design(curve, K, basis_id)
    Q = design.columns(m)
    fp, build = (design.read(design.project(leading, None, Q)[0]) if spec is None
                 else spec.leading_residual(curve, n, K))
    fscale = float(np.max(np.abs(fp))) or 1.0

    # Q rms has columns of RMS 1 on K like the t column: balanced Newton matrices
    rms = np.sqrt(npts)
    u, norm, lb, iterations, converged = _minimax(Q * rms, fp / fscale, opts)
    norm, lb = norm * fscale, lb * fscale

    total_degree = int(leading.degree) if spec is None else spec.degree(curve, n)
    tn = norm ** (1.0 / total_degree) if total_degree > 0 else float("nan")
    return ChebSolve(spec=spec, n=n if n is not None else 0, total_degree=total_degree,
                     norm=norm, tn=tn, iterations=iterations, converged=converged,
                     ridge_used=Q.shape[1] < m, gap=max(norm - lb, 0.0),
                     parts=(build, design.combine, u * (fscale * rms)))


# ---------------------------------------------------------------------------
# Sequences and constants
# ---------------------------------------------------------------------------

_SWEEP_SOLVES = ContextVar("sweep_solves", default=None)


@contextmanager
def sweep():
    """Scope in which each minimax problem is solved once, whichever class
    poses it.  A problem is the curve and set (by identity), the leading
    term, the free basis (a graded basis prefix: basis id and length) and
    the options.  Its first poser supplies the leading residual; later ones
    get that solve under their own spec and n.  A failed solve is not
    kept."""
    token = _SWEEP_SOLVES.set({})
    try:
        yield
    finally:
        _SWEEP_SOLVES.reset(token)


def sweep_solves():
    """The solves kept so far by the enclosing sweep(), one per problem."""
    return [solve for solve, _, _ in _SWEEP_SOLVES.get().values()]


def chebyshev_solve(curve, spec, K, n, opts=None):
    """One minimax solve for the class at parameter n; in a sweep(), once
    per problem, labelled with spec and n."""
    leading, free = class_parametrize(curve, spec, n)

    def solve():
        return minimax_solve(leading, free, K, opts, curve=curve, spec=spec, n=n)

    memo = _SWEEP_SOLVES.get()
    if memo is None:
        return solve()
    # the memo holds curve and K, so their ids are not reused while it lives
    key = (id(curve), id(K), leading, free[0].basis_id if free else None, len(free),
           opts or SolverOptions())
    if key not in memo:
        memo[key] = (solve(), curve, K)
    hit = memo[key][0]
    return hit if (hit.spec, hit.n) == (spec, n) else replace(hit, spec=spec, n=n)


def chebyshev_sequence(curve, spec, K, n_range, opts=None):
    """One solve per class parameter.

    The first parameter whose class cannot be set up or solved raises, so
    no constant is estimated from a sequence with a hole in it.
    """
    n_range = list(n_range)
    if not n_range:
        raise ValueError("empty parameter range")
    if any(b <= a for a, b in zip(n_range, n_range[1:])):
        raise ValueError("parameter range must be increasing")
    return [chebyshev_solve(curve, spec, K, n, opts) for n in n_range]


def tau_sequence(curve, K, basis_id, count, opts=None):
    """Solves of Tau(basis_id) at the first `count` positions.

    Position 1 has degree 0 and carries no tn.  In a sweep() a position
    shares its solve with any class posing the same problem, such as the
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
    if isinstance(spec, _Product) and spec.prefactor.degree == 0:
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


# ---------------------------------------------------------------------------
# Comparison report
# ---------------------------------------------------------------------------

@dataclass
class Assertion:
    name: str
    kind: str      # "eq" within rel tol, "le" with slack, "lt" strictly below
    lhs: float
    rhs: float
    tol: float
    passed: bool
    note: str = ""


@dataclass
class ComparisonReport:
    assertions: list
    table: list    # rows (class label, n, norm, tn)

    @property
    def all_passed(self):
        return all(a.passed for a in self.assertions)

    def failures(self):
        return [a for a in self.assertions if not a.passed]


def _assert_eq(name, lhs, rhs, tol, note=""):
    denom = max(abs(rhs), 1e-300)
    return Assertion(name, "eq", float(lhs), float(rhs), tol,
                     abs(lhs - rhs) <= tol * denom, note)


def _assert_le(name, lhs, rhs, slack, note=""):
    return Assertion(name, "le", float(lhs), float(rhs), slack,
                     lhs <= rhs * (1.0 + slack) + 1e-300, note)


# verify bands, each scaled by --tolerance-scale
EQ_TOL = 0.10        # equality of constants and of the two diameters, relative
INEQ_SLACK = 0.02    # inequalities, discretization slack
EXACT_TOL = 1e-9     # finite-n scale invariances
DIAMETER_TOL = 0.15  # diameter against the directional product, relative
LIMIT_SLACK = 0.05   # finite-n against the limit: tau ratios (relative), the
                     # Robin cross-check and the families gap (absolute)


def comparison_report(curve, K, max_n, opts=None, tol_scale=1.0):
    """Numerical check of the relations between the Chebyshev constants.

    Covers the prefactor scale laws, the product and sum comparisons, the
    identification of the directional constants with the z1-power classes,
    and the matching of the S-ordering constants with the directional ones
    under the descending labeling (including their monotonicity).
    """
    curve.require_directional("comparison report")
    d = curve.d
    eq_tol = EQ_TOL * tol_scale
    ineq = INEQ_SLACK * tol_scale
    exact = EXACT_TOL * tol_scale
    asserts = []
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

    for k in range(1, d + 1):
        asserts.append(
            _assert_eq(
                f"S-ordering constant {k - 1} matches direction constant rank {k}",
                z_ests[k - 1].estimate,
                t_sorted[k - 1],
                eq_tol,
            )
        )
    asserts.append(
        _assert_eq(
            "first S-ordering constant equals the largest directional constant",
            z_ests[0].estimate,
            max(e.estimate for e in dir_ests),
            eq_tol,
        )
    )
    for k in range(1, d):
        asserts.append(
            _assert_le(
                f"S-ordering constants non-increasing at {k}",
                z_ests[k].estimate,
                z_ests[k - 1].estimate,
                ineq,
            )
        )

    # directional constant as a z1-power class with prefactor v_k
    for k in range(1, d + 1):
        seq = run_seq(MRQ(curve.dirbasis[k - 1], BivarPoly.monomial(1, 0)), max(4, max_n - d + 1))
        est = constant_estimate(seq)
        asserts.append(
            _assert_eq(
                f"v{k}-prefactor z1-power class matches direction constant {k}",
                est.estimate,
                dir_ests[k - 1].estimate,
                eq_tol,
            )
        )

    # monomial prefactors of total degree <= d-2 leave the constant alone
    n_top = max(3, max_n // (d - 1))
    for k in range(1, d + 1):
        for j1 in range(d - 1):
            for j2 in range(d - 1 - j1):
                est = constant_estimate(
                    run_seq(MRQ(BivarPoly.monomial(j1, j2), curve.dirbasis[k - 1]), n_top))
                asserts.append(
                    _assert_eq(
                        f"monomial prefactor z1^{j1} z2^{j2} keeps direction constant {k}",
                        est.estimate,
                        dir_ests[k - 1].estimate,
                        eq_tol,
                    )
                )

    # scale laws at every n on identical samples
    z1m = BivarPoly.monomial(1, 0)
    base = run_seq(MRQ(BivarPoly.monomial(0, 1), z1m), 6)
    scaled_r = run_seq(MRQ(BivarPoly.monomial(0, 1) * 3.0, z1m), 6)
    for s0, s1 in zip(base, scaled_r):
        asserts.append(
            _assert_eq(
                f"prefactor scale drops out at n={s0.n}",
                s1.tn,
                s0.tn,
                exact,
            )
        )
    lam = 2j
    base_q = run_seq(MRQ(BivarPoly.constant(1.0), z1m), 6)
    scaled_q = run_seq(MRQ(BivarPoly.constant(1.0), z1m * lam), 6)
    for s0, s1 in zip(base_q, scaled_q):
        asserts.append(
            _assert_eq(
                f"base scale multiplies tn by |lambda| at n={s0.n}",
                s1.tn,
                abs(lam) * s0.tn,
                exact,
            )
        )

    # product prefactor never increases the constant
    r1 = BivarPoly.monomial(0, 1)
    r2 = BivarPoly.monomial(1, 0)
    e_r1 = constant_estimate(run_seq(MRQ(r1, z1m), max(4, max_n - 1)))
    e_r1r2 = constant_estimate(run_seq(MRQ(r1 * r2, z1m), max(4, max_n - 2)))
    asserts.append(
        _assert_le("product prefactor does not increase the constant",
                   e_r1r2.estimate, e_r1.estimate, ineq)
    )

    # absorbing a power of the base into the prefactor changes nothing
    e_rq = constant_estimate(run_seq(MRQ(r1 * z1m, z1m), max(4, max_n - 2)))
    asserts.append(
        _assert_eq("prefactor absorbed into the base keeps the constant",
                   e_rq.estimate, e_r1.estimate, eq_tol)
    )

    # sum of equal-degree prefactors: finite-n bound with the 2^(1/deg) factor
    e_r2 = run_seq(MRQ(r2, z1m), 6)
    e_r1n = base  # same class as MRQ(z2, z1) above
    e_sum = run_seq(MRQ(r1 + r2, z1m), 6)
    for s_sum, s_a, s_b in zip(e_sum, e_r1n, e_r2):
        bound = 2.0 ** (1.0 / s_sum.total_degree) * max(s_a.tn, s_b.tn)
        asserts.append(
            _assert_le(
                f"sum prefactor bound at n={s_sum.n}",
                s_sum.tn,
                bound,
                ineq,
            )
        )

    return ComparisonReport(assertions=asserts, table=table)
