"""Robin constants, extremal-like functions, and closed-form oracles.

The Robin constant of a direction is minus the log of its directional
Chebyshev constant; for a degree-n polynomial it can be read off the
leading homogeneous part at (1, lambda).  The two families of
extremal-like functions are finite-degree surrogates built from one
Chebyshev minimizer each: normalized log moduli (1/n) log(|t| / ||t||_K).
Their pointwise max recovers the extremal function of the set, which the
registered closed-form oracles make checkable on the worked examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyring import leading_part, normal_form
from .sets import AbsV1V2Torus, BidiskTrace, Z1Disk, Z2Interval, _lift
from .chebyshev import (
    Mz1jVk,
    Zk,
    chebyshev_solve,
    directional_constants,
    ordered_constants,
    tie_groups,
)

NEG_INF = float("-inf")

# ruling on near-zero leading values: below this relative size the Robin
# constant is reported as -inf (exact delta_jk zeros land at ~1e-16)
ROBIN_ZERO_REL = 1e-12
# extremal_eval: a point whose residual |P| exceeds this times 1 + |z|^d is
# off the curve
OFF_CURVE_REL = 1e-8


def robin_of_poly(curve, p, k):
    """(1 / deg p) * log |phat(1, lam_k)| for p in normal form.

    Returns -inf when the leading part vanishes at the direction.
    """
    if p.is_zero:
        raise ValueError("p must be nonzero")
    if not 1 <= k <= len(curve.directions):
        raise ValueError("direction index out of range")
    phat = leading_part(p)
    lam = curve.directions[k - 1]
    val = abs(phat(1.0, lam))
    scale = sum(abs(c) for c in phat.terms.values()) * max(1.0, abs(lam)) ** int(phat.degree)
    if val <= ROBIN_ZERO_REL * scale:
        return NEG_INF
    return float(np.log(val)) / int(p.degree)


@dataclass
class DirectionRobin:
    lam: complex            # direction label (may be None on relaxed curves)
    rho: float
    t_estimate: float
    via: str                # "directClass" or "orderedClass"
    discrepancy: float      # finite-n Robin of the top minimizer vs -log(estimate)
    reliable: bool


@dataclass
class RobinReport:
    per_direction: list     # DirectionRobin, in curve direction order
    ordering: list          # permutation sorting rho ascending (= T descending),
                            # ties within STRICT_RHO_TOL by ascending phase
    strict: bool            # rho strictly increasing after sorting, no ties


def robin_constants(curve, K, max_degree, opts=None, directions=None):
    """Robin constants of every direction from Chebyshev sequences.

    On a relaxed curve the directional basis is unavailable; the constants
    are then computed from the S-ordering classes and labelled with the
    caller-supplied directions (the descending-T order), which is how the
    coordinate-axes example is handled.
    """
    direct = curve.dirbasis is not None
    if direct:
        labels = curve.directions
        ests = directional_constants(curve, K, max_degree, opts)
    else:
        labels = list(directions) if directions else [None] * curve.d
        if len(labels) != curve.d:
            raise ValueError(f"expected {curve.d} direction labels, got {len(labels)}")
        ests = ordered_constants(curve, K, max_degree, opts)
    entries = []
    for k, (lam, est) in enumerate(zip(labels, ests), start=1):
        rho = -math.log(est.estimate)
        disc = float("nan")
        if direct:
            # the finite-n Robin constant of the top minimizer read
            top = est.solves[-1]
            disc = abs(robin_of_poly(curve, top.minimizer * (1.0 / top.norm), k) - rho)
        entries.append(DirectionRobin(
            lam=lam, rho=rho, t_estimate=est.estimate,
            via="directClass" if direct else "orderedClass",
            discrepancy=disc, reliable=est.reliable))

    # ascending rho, ties within STRICT_RHO_TOL by ascending phase
    phases = [float(np.angle(e.lam)) if e.lam is not None else 0.0 for e in entries]
    ties = tie_groups([e.rho for e in entries], phases)
    ordering = [i for group in ties for i in group]
    return RobinReport(per_direction=entries, ordering=ordering,
                       strict=len(ties) == len(entries))


# ---------------------------------------------------------------------------
# Extremal-like function surrogates
# ---------------------------------------------------------------------------

FAMILY_VK = "Vk"
FAMILY_VK_TILDE = "VkTilde"


@dataclass
class ExtremalApprox:
    family: str
    k: int
    n: int                  # total degree of the minimizer used
    cheb: object            # ChebSolve
    normalizer: float       # ||t||_K

    def evaluate(self, z1, z2):
        t = self.cheb.minimizer
        vals = np.abs(t(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)))
        with np.errstate(divide="ignore"):
            out = (np.log(vals) - np.log(self.normalizer)) / self.cheb.total_degree
        return out


def extremal_build(curve, K, family, k, n, opts=None):
    """Finite-degree surrogate of an extremal-like function.

    family Vk uses the direction classes (n is split as l*(d-1) + j by the
    division algorithm); family VkTilde uses the S-ordering classes at
    total degree n.
    """
    d = curve.d
    if family == FAMILY_VK:
        if not 1 <= k <= d:
            raise ValueError("direction index out of range")
        if n < d - 1:
            raise ValueError(f"need degree >= d-1 = {d - 1}")
        l, j = divmod(n, d - 1)
        if l < 1:
            raise ValueError("degree too small for the direction class")
        solve = chebyshev_solve(curve, Mz1jVk(j, k), K, l, opts)
    elif family == FAMILY_VK_TILDE:
        if not 0 <= k <= d - 1:
            raise ValueError(f"ordered-class index must satisfy 0 <= k <= d-1 = {d - 1}")
        if n - k < 1:
            raise ValueError("degree too small for the ordered class")
        solve = chebyshev_solve(curve, Zk(k), K, n - k, opts)
    else:
        raise ValueError(f"unknown family {family!r}")
    return ExtremalApprox(family=family, k=k, n=int(solve.total_degree),
                          cheb=solve, normalizer=solve.norm)


def extremal_eval(approx, pts, curve=None):
    """Normalized log modulus at points of the curve.

    Off-curve points (residual above OFF_CURVE_REL) evaluate to nan; zeros
    of the minimizer give -inf.
    """
    pts = np.asarray(pts, dtype=complex)
    vals = approx.evaluate(pts[:, 0], pts[:, 1])
    if curve is not None:
        res = np.abs(curve.evaluate(pts[:, 0], pts[:, 1]))
        scale = 1.0 + np.max(np.abs(pts), axis=1) ** curve.d
        vals = np.where(res < OFF_CURVE_REL * scale, vals, np.nan)
    return vals


@dataclass
class VkMaxReport:
    pts: np.ndarray
    max_vk: np.ndarray
    max_tilde: np.ndarray
    max_families: np.ndarray
    oracle: np.ndarray | None
    gap_families: float | None
    tilde_hypothesis_met: bool


def vk_max(curve, K, n, pts, opts=None, robin=None):
    """Pointwise maxima of both families at total degree n.

    When the set's descriptor has a registered closed form the sup gap of
    the maximum over both families against it is reported.  The
    ordered-family max is always computed; when the Robin constants are not
    strictly increasing it is flagged (the max formula for that family
    assumes strict ordering).
    """
    d = curve.d
    pts = np.asarray(pts, dtype=complex)
    vks = []
    tildes = []
    if curve.dirbasis is not None:
        for k in range(1, d + 1):
            vks.append(extremal_build(curve, K, FAMILY_VK, k, n, opts))
    for k in range(d):
        tildes.append(extremal_build(curve, K, FAMILY_VK_TILDE, k, n, opts))
    evs_vk = [extremal_eval(a, pts) for a in vks]
    evs_tl = [extremal_eval(a, pts) for a in tildes]
    max_vk = np.max(evs_vk, axis=0) if evs_vk else np.full(len(pts), np.nan)
    max_tl = np.max(evs_tl, axis=0)
    max_all = np.max(evs_vk + evs_tl, axis=0)
    oracle = ga = None
    try:
        oracle = oracle_eval(K.descriptor, pts, curve=curve)
    except OracleError:
        pass
    if oracle is not None:
        ga = float(np.max(np.abs(max_all - oracle)))
    strict = robin.strict if robin is not None else False
    return VkMaxReport(
        pts=pts,
        max_vk=max_vk,
        max_tilde=max_tl,
        max_families=max_all,
        oracle=oracle,
        gap_families=ga,
        tilde_hypothesis_met=strict,
    )


# ---------------------------------------------------------------------------
# Closed-form oracles for the worked examples
# ---------------------------------------------------------------------------

class OracleError(ValueError):
    pass


def inverse_joukowski(z):
    """zeta + sqrt(zeta^2 - 1), branch with modulus >= 1."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z * z - 1.0)
    h = z + s
    return np.where(np.abs(h) >= 1.0, h, z - s)


def _is_symmetric_hyperbola(curve):
    """P proportional to z1^2 - z2^2 - gamma with gamma > 0."""
    P = curve.defining
    keys = set(P.terms)
    if not keys <= {(2, 0), (0, 2), (0, 0)}:
        return False
    c20, c02, c00 = P.coeff(2, 0), P.coeff(0, 2), P.coeff(0, 0)
    if abs(c20 + c02) > 1e-12 * abs(c20):
        return False
    gamma = -c00 / c20
    return abs(gamma.imag) < 1e-12 and gamma.real > 0


def _is_coordinate_hyperbola(curve):
    """P proportional to z1*z2 - eps."""
    keys = set(curve.defining.terms)
    return keys == {(1, 1), (0, 0)}


def oracle_eval(descriptor, pts, curve=None):
    """Exact extremal-function values for registered descriptors.

    Coverage: the z1 sublevel disk on any admissible curve, the real-z2
    interval trace on a symmetric hyperbola, the |v1|=|v2| torus on a
    degree-2 curve with constant v1*v2, and the bidisk trace of a
    coordinate hyperbola.  Anything else raises OracleError.
    """
    pts = np.asarray(pts, dtype=complex)
    z1, z2 = pts[:, 0], pts[:, 1]
    logplus = lambda x: np.maximum(0.0, np.log(x))

    if isinstance(descriptor, Z1Disk):
        return logplus(np.abs(z1) / descriptor.r)

    if isinstance(descriptor, Z2Interval):
        if curve is None or not _is_symmetric_hyperbola(curve):
            raise OracleError("interval oracle needs the symmetric hyperbola")
        lo, hi = descriptor.lo, descriptor.hi
        w = (2.0 * z2 - lo - hi) / (hi - lo)
        return np.log(np.abs(inverse_joukowski(w)))

    if isinstance(descriptor, AbsV1V2Torus):
        if curve is None or curve.dirbasis is None or curve.d != 2:
            raise OracleError("torus oracle needs a degree-2 curve with directions")
        prod = normal_form(curve, curve.dirbasis[0] * curve.dirbasis[1])
        if prod.degree > 0:
            raise OracleError("torus oracle needs v1*v2 constant on the curve")
        if abs(abs(prod.coeff(0, 0)) - descriptor.r1 * descriptor.r2) > 1e-9:
            raise OracleError("torus radii do not match the curve")
        v1 = curve.dirbasis[0](z1, z2)
        v2 = curve.dirbasis[1](z1, z2)
        return np.maximum(
            logplus(np.abs(v1) / descriptor.r1),
            logplus(np.abs(v2) / descriptor.r2),
        )

    if isinstance(descriptor, BidiskTrace):
        if curve is None or not _is_coordinate_hyperbola(curve):
            raise OracleError("bidisk oracle needs the coordinate hyperbola")
        return np.maximum(
            logplus(np.abs(z1) / descriptor.r1),
            logplus(np.abs(z2) / descriptor.r2),
        )

    raise OracleError(f"no oracle for {type(descriptor).__name__}")


# the off-set points extremal and verify evaluate at: probe_points(curve,
# PROBE_RADII, PROBE_COUNT), on the circles |z1| = r
PROBE_RADII = (1.5, 2.5, 4.0)
PROBE_COUNT = 48


def probe_points(curve, radii, count):
    """Points of the curve on |z1| = r circles, for off-set evaluation."""
    per = max(1, count // (len(radii) * max(curve.d, 1)))
    theta = 2.0 * np.pi * (np.arange(per) + 0.37) / per
    _, z1, z2 = _lift(curve.defining, np.concatenate([r * np.exp(1j * theta) for r in radii]), "z1")
    return np.stack([z1, z2], axis=1)[:count]
