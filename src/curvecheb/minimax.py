"""Discrete complex minimax solves by a primal-dual interior-point method.

solve(Q, f, opts) computes min_u max_i |f_i + (Q u)_i| over the N sample
points, Q an N x m matrix of orthonormal columns and f orthogonal to them.
It is the second-order cone program min t subject to
|f_i + (Q u)_i| <= t, one cone per sample point, solved by a primal-dual
interior-point method with Mehrotra predictor-corrector steps and
Nesterov-Todd scaling (_minimax, _normal_inverse) from the closed-form
least squares point u = 0 (SolverOptions.max_iter counts it).  solve
scales the columns to RMS 1 over the points, like the t column, which
balances the Newton matrices, and f to max |f| = 1.

Every iterate's max modulus is an upper bound.  The certificate is a lower
bound: sqrt(mean |f|^2), or the dual bound |y^H f| / |y|_1 of complex
Chebyshev approximation for a y in the orthogonal complement of range(Q)
(Rivlin and Shapiro, J. SIAM 9, 1961).  It is read
- at the start, sqrt(mean |f|^2), and where that does not certify u = 0,
  the dual bound of the signs f / |f| on the points where |f| is within
  tol of its max, projected onto that complement.  u = 0 is optimal
  exactly when some nonnegative weights of those signs are orthogonal to
  range(Q); where equal weights are, u = 0 is certified in one iteration;
- then, once the method's own duality gap is below tol * t, the dual
  bound of the dual iterate, projected the same way.
A solve is converged when norm <= lb * (1 + tol), and gap = norm - lb.

solve is Start(Q, f, opts).result(): a Start is the scaled problem after
its iteration 1 (_start), and result() runs the interior-point loop.
dispatch shares the Starts that iteration 1 did not certify between this
process and worker processes forked from it (workers(): Linux, BLAS at
one thread, as the CLI pins it, a CPU each).  A worker takes the same
steps on the same values, so a Solution is the same bit for bit either way.

This module needs numpy and the standard library only: it poses nothing,
so a (Q, f) pair can be solved, and timed, without a curve or a design.
"""

from __future__ import annotations

import atexit
import ctypes
import math
import numbers
import os
import signal
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class SolverOptions:
    """max_iter caps the interior-point iterations of a solve, the
    closed-form first one included; tol is the relative certified gap a
    converged solve must reach.  Options are checked when made (so by
    dataclasses.replace too): a bad field raises a ValueError naming it.
    A bool is neither a count nor a tolerance, though Python counts it as
    both."""

    max_iter: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        max_iter, tol = self.max_iter, self.tol
        if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral)
                                               and max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, not {max_iter!r}")
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"tol must be a number, not {tol!r}")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be positive and finite, not {tol!r}")


# A vector of the product of N second-order cones {u0 >= |u1|}, one cone per
# sample point, is held as a real array u0 and a complex array u1.  The
# primal slack is s = (t, f + G c), the dual variable z = (z0, zeta).

EPS = np.finfo(float).eps
T0 = 1.5                # starting t over the max modulus of f
STEP = 0.99             # fraction of the step to the cone boundary taken
# an iteration's O(N) work, in units of its O(N m^2) work: at N = 1023 one
# took about 0.47 + 0.0007 m^2 ms
ITER_M2 = 670


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


def _dual_bound(y, G, GH, f):
    """|y^H f| / |y|_1 with y projected twice onto null(G^H), G^H G = npts I.
    Then y^H f = y^H (f + G c) for every c, so the bound is below every
    max |f + G c| (Rivlin and Shapiro, J. SIAM 9, 1961)."""
    npts = G.shape[0]
    y = y - G @ (GH @ y) / npts
    y = y - G @ (GH @ y) / npts
    y1 = float(np.abs(y).sum())
    return float(abs(np.vdot(y, f))) / y1 if y1 > 0.0 else 0.0


def _start(G, f, tol):
    """Iteration 1 of _minimax, whose G and f it takes: as f is orthogonal
    to range(G), the uniform-weight least squares point is c = 0, with
    residual f.  Returns (ub, lb, converged): max |f|, the bound
    sqrt(mean |f|^2) or, where that does not certify c = 0, the dual bound
    of f's extremal signs if that does, and whether c = 0 is certified.  A
    bound that does not certify is dropped, so the iterations that follow
    do not depend on it."""
    f_abs = np.abs(f)
    ub, lb = float(np.max(f_abs)), float(np.sqrt(np.mean(f_abs ** 2)))
    if ub <= lb * (1.0 + tol):
        return ub, lb, True
    # c = 0 is optimal exactly when some nonnegative weights of the signs
    # of f on its extremal points are orthogonal to range(G); with equal
    # weights, their dual bound certifies it
    top = f_abs >= ub * (1.0 - tol)
    y = np.zeros(len(f), dtype=complex)
    y[top] = f[top] / f_abs[top]
    lby = _dual_bound(y, G, G.conj().T, f)
    if ub <= lby * (1.0 + tol):
        return ub, lby, True
    return ub, lb, False


def _minimax(G, f, opts, ub, lb):
    """Discrete complex minimax min_c max_i |f_i + (G c)_i|, where
    G^H G = npts I (orthogonal columns of RMS 1 over the points, which the
    projection of the dual bound relies on), f is orthogonal to them and
    max |f| = 1, by the interior-point method from c = 0, whose iteration 1
    (_start) gave the bounds ub and lb without certifying it.

    Returns (c, norm, lb, iterations, converged): the best coefficients
    found, c = 0 included, their max modulus, a certified lower bound of
    the minimum, and the solve's bookkeeping.
    """
    npts, m = G.shape
    tol = opts.tol
    GH = G.conj().T
    c, r = np.zeros(m, dtype=complex), f
    best_c, best_ub = c, ub
    iterations = 1
    converged = False
    t = ub * T0
    z0, z1 = np.full(npts, 1.0 / npts), np.zeros(npts, dtype=complex)

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
            lby = _dual_bound(z1, G, GH, f)
            stalled = lby <= lb
            lb = max(lb, lby)
        converged = best_ub <= lb * (1.0 + tol)
        if stalled:
            break           # rounding, not the method, now limits the bound
    return best_c, best_ub, lb, iterations, converged


class Solution(NamedTuple):
    """A solve of min_u max_i |f_i + (Q u)_i|: the best coefficients u found
    (u = 0 included), their max modulus norm, a certified lower bound lb of
    the minimum, the iterations taken and whether norm <= lb * (1 + tol)."""

    u: np.ndarray
    norm: float
    lb: float
    iterations: int
    converged: bool

    @property
    def gap(self):
        """The certified optimality gap norm - lb, clipped at 0."""
        return max(self.norm - self.lb, 0.0)


class Start:
    """The problem min_u max_i |f_i + (Q u)_i| after its closed-form
    iteration 1 (_start), whose bounds it keeps.  result() runs the
    interior-point loop where iteration 1 certified nothing, and cancel()
    does nothing: a Start answers both as the Future of a worker's solve
    of it does.  It holds Q and f as given, which the design that posed
    them holds too, and scales them where it solves them."""

    def __init__(self, Q, f, opts):
        self.Q, self.f, self.opts = Q, f, opts
        self.fscale = float(np.max(np.abs(f))) or 1.0
        self.ub, self.lb, self.converged = _start(*self.scaled(), opts.tol)

    def scaled(self):
        """(G, f) as _minimax takes them: Q's columns scaled to RMS 1 over the
        points like the t column, which balances the Newton matrices, and f
        to max |f| = 1."""
        return self.Q * np.sqrt(len(self.f)), self.f / self.fscale

    @property
    def cost(self):
        """N (m^2 + ITER_M2), about the time of an iteration."""
        npts, m = self.Q.shape
        return npts * (m * m + ITER_M2)

    def result(self):
        """The Solution, solved in this process."""
        if self.converged:
            c, norm, lb, iterations, converged = (np.zeros(self.Q.shape[1], dtype=complex),
                                                  self.ub, self.lb, 1, True)
        else:
            G, f = self.scaled()
            c, norm, lb, iterations, converged = _minimax(G, f, self.opts, self.ub, self.lb)
        scale = self.fscale
        return Solution(c * (scale * np.sqrt(len(self.f))), norm * scale, lb * scale,
                        iterations, converged)

    def cancel(self):
        return False


def solve(Q, f, opts):
    """min_u max_i |f_i + (Q u)_i| for Q of orthonormal columns (N x m) and
    f (N) orthogonal to them, under SolverOptions opts."""
    return Start(Q, f, opts).result()


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

# OpenBLAS's thread count setter and getter ({}: set, get) in numpy 2's, 1's and system builds
BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                       "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_POOL = None            # the worker processes, started on first need


@cache
def blas_threads():
    """(set, get) of numpy's OpenBLAS thread count, looked up once, or None."""
    try:    # a library's handle finds the symbols of the libraries it links too
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in BLAS_THREAD_SYMBOLS:
        setter, getter = (getattr(lib, name.format(verb), None) for verb in ("set", "get"))
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype, getter.argtypes = [ctypes.c_int], None, []
            return setter, getter
    return None


def workers():
    """The worker processes dispatch shares solves with: one per usable CPU
    beyond this process, on Linux where numpy's OpenBLAS runs one thread,
    as the CLI sets it.  Elsewhere, or with no getter found, 0, and every
    solve runs in process: with two OpenBLAS threads per process, one
    worker made the criterion-4 cubic solves 2 to 12 times slower."""
    blas = blas_threads()
    if sys.platform != "linux" or blas is None or blas[1]() != 1:
        return 0
    return len(os.sched_getaffinity(0)) - 1


def dispatch(starts):
    """A job per Start, in order, whose result() is its Solution.

    The starts iteration 1 did not certify are split between this process
    and the workers(): largest N m^2 first, each goes to the workers while
    that lowers the larger of the two shares of the time, this process
    keeping the smallest, so a lone problem is solved here.  The workers'
    share goes to the pool in the order given, and this process solves its
    own as a caller reads the jobs in that order, so both run at once.  A
    solve takes the same steps in a worker as here, so the Solutions are
    the same bit for bit.
    """
    jobs, k = list(starts), workers()
    if k:
        open_ = sorted((i for i, s in enumerate(starts) if not s.converged),
                       key=lambda i: -starts[i].cost)
        here, share, remote = sum(starts[i].cost for i in open_), 0, []
        for i in open_[:-1]:
            cost = starts[i].cost
            if max(here - cost, (share + cost) / k) >= max(here, share / k):
                break
            here, share = here - cost, share + cost
            remote.append(i)
        for i in sorted(remote):
            jobs[i] = _submit(starts[i], k)
    return jobs


def _submit(start, workers):
    """A Future of start.result() in a pool of that many fork workers.  The
    pool starts on first need (importing it costs about 20 ms), and again
    after a worker died, and is shut down at exit."""
    global _POOL
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    if _POOL is not None:
        try:
            return _POOL.submit(Start.result, start)
        except BrokenProcessPool:       # a worker died: the pool takes no more work
            pass
    else:
        atexit.register(_shutdown)
    _POOL = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                initializer=_exit_with, initargs=(os.getpid(),))
    return _POOL.submit(Start.result, start)


def _shutdown():
    """Join the workers and drop the pool while the modules it needs are
    still there: collected at the interpreter's teardown, it reports an
    error."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _exit_with(parent):
    """Worker initializer: the kernel kills this worker when the parent ends,
    even where a signal skips the pool's shutdown at exit."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)      # PR_SET_PDEATHSIG
    if os.getppid() != parent:      # the parent ended before that took hold
        os._exit(0)
