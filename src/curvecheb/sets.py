"""Descriptors and samplers for compact subsets of a plane algebraic curve.

Every constant computed downstream is taken against a SampledSet, a finite
point cloud on the curve.  Sublevel-set descriptors sample only the
distinguished boundary (the sup of |p| along the one-dimensional analytic
set is attained there), which keeps sample counts small.

Every sampler lifts circles or intervals through the curve in one batch:
the companion matrices of P along every fixed coordinate value are stacked
and solved by a single eigenvalue call, and all roots take one vectorized
Newton step.  On a circle only the angles whose residual check fails, or
that have no root, are lifted again, half a step further on.  The torus is
the circle |v1| = r1 lifted through P written in the (v1, v2) coordinates,
keeping the points with |v2| = r2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polyring import BivarPoly

RESIDUAL_REL = 1e-10
MIN_RESOLUTION = 16


class SamplingError(ValueError):
    pass


class SampleTooSmall(ValueError):
    """A problem needs more points than its sampled set has."""


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Z1Disk:
    """K = {z in A : |z1| <= r}; sampled on the circle |z1| = r."""

    r: float
    resolution: int = 1024

    def __post_init__(self):
        _check_resolution(self.resolution)
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError("radius must be positive and finite")


@dataclass(frozen=True)
class Z2Interval:
    """K = {z in A : z2 in [lo, hi]}; all z1 branches are lifted."""

    lo: float
    hi: float
    resolution: int = 1024

    def __post_init__(self):
        _check_resolution(self.resolution)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("interval requires finite lo < hi")


@dataclass(frozen=True)
class AbsV1V2Torus:
    """K = {z in A : |v1| = r1, |v2| = r2} for a degree-2 curve."""

    r1: float
    r2: float
    resolution: int = 1024

    def __post_init__(self):
        _check_resolution(self.resolution)
        _check_radii(self.r1, self.r2)


@dataclass(frozen=True)
class BidiskTrace:
    """K = A intersected with {|z1| <= r1, |z2| <= r2}; boundary circles."""

    r1: float
    r2: float
    resolution: int = 1024

    def __post_init__(self):
        _check_resolution(self.resolution)
        _check_radii(self.r1, self.r2)


@dataclass(frozen=True)
class PointCloud:
    """Explicit list of (z1, z2) points, validated against the curve."""

    points: tuple  # of (complex, complex)
    resolution: int = field(default=0)

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("point cloud is empty")
        object.__setattr__(self, "resolution", len(self.points))


def _check_resolution(res):
    if not (math.isfinite(res) and res >= MIN_RESOLUTION):
        raise ValueError(f"resolution must be finite and >= {MIN_RESOLUTION}")


def _check_radii(*radii):
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError("radii must be positive and finite")


# ---------------------------------------------------------------------------
# SampledSet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledSet:
    points: np.ndarray          # shape (N, 2), complex
    descriptor: object
    curve: object
    max_residual: float
    # orthonormal designs (chebyshev._design), built lazily, and the solve of
    # each problem posed on them (chebyshev.chebyshev_sequence); not part of
    # the set's value.  A solve refers to its design, so the solves are kept
    # here, not on the design, where they would form a reference cycle.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _solves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise SamplingError("empty set")

    def __len__(self):
        return len(self.points)

    @property
    def z1(self):
        return self.points[:, 0]

    @property
    def z2(self):
        return self.points[:, 1]


def _dedupe(points):
    """The rows of points (N x 2) without repeats, which are rows equal
    after rounding the real and imaginary parts to 12 decimals; the first
    occurrences keep their order.  Each row's key is its four rounded
    parts as one byte string, -0.0 made 0.0 so that equal parts have equal
    bytes."""
    key = np.round(np.concatenate([points.real, points.imag], axis=1), 12)
    key += 0.0
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return points[np.sort(first)]


def _finish(curve, desc, points):
    """The SampledSet of the (N, 2) complex array points, without repeats,
    checked against the curve."""
    if not len(points):
        raise SamplingError("empty set")
    if not np.isfinite(points).all():
        raise SamplingError("sample has a non-finite point")
    arr = _dedupe(points)
    res = np.abs(curve.evaluate(arr[:, 0], arr[:, 1]))
    zmax = float(np.max(np.abs(arr)))
    bound = RESIDUAL_REL * (1.0 + zmax ** curve.d)
    max_res = float(np.max(res))
    if max_res >= bound:
        raise SamplingError(
            f"sample residual {max_res:.3e} exceeds bound {bound:.3e}"
        )
    return SampledSet(points=arr, descriptor=desc, curve=curve, max_residual=max_res)


def _lift(P, z, axis):
    """The points of the curve P = 0 where the coordinate `axis` takes the
    values z.

    Returns flat arrays (row, z1, z2) in (row, root) order, row indexing z,
    with the roots of each row in np.roots order: one batched eigenvalue
    solve on the stack of the companion matrices np.roots builds.  A row
    with a zero leading or constant coefficient goes through np.roots
    itself.  Every root gets one Newton step, skipped near branch points.
    """
    z = np.asarray(z, dtype=complex)
    swap = axis == "z2"     # terms as (power of z, power of the lifted w)
    terms = [((b, a) if swap else (a, b), c) for (a, b), c in P.terms.items()]
    deg = max(e for (_, e), _ in terms)
    coeffs = np.zeros((len(z), deg + 1), dtype=complex)
    for (f, e), c in terms:
        coeffs[:, deg - e] += c * z ** f
    full = (coeffs[:, 0] != 0) & (coeffs[:, -1] != 0) & (deg > 0)
    comp = np.zeros((int(full.sum()), deg, deg), dtype=complex)
    comp[:, :1, :] = (-coeffs[full, 1:] / coeffs[full, :1])[:, None, :]
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    rows = [np.repeat(np.flatnonzero(full), deg)]
    roots = [np.linalg.eigvals(comp).ravel()]
    for i in np.flatnonzero(~full):
        roots.append(np.roots(coeffs[i]))
        rows.append(np.full(len(roots[-1]), i))
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")
    row, w = row[order], np.concatenate(roots)[order]
    zr = z[row]
    val = sum(c * zr ** f * w ** e for (f, e), c in terms)
    dv = sum(e * c * zr ** f * w ** (e - 1) for (f, e), c in terms if e)
    w = w - np.divide(val, dv, out=np.zeros_like(w), where=np.abs(dv) >= 1e-8)
    return (row, w, zr) if swap else (row, zr, w)


def _lift_circle(P, radius, n_angles, axis):
    """Lift the circle |z_axis| = radius through the curve P = 0, all branches.

    Returns the (N, 2) array of points in (angle, root) order.  All angles
    are lifted at once.  An angle whose lifted residual fails or that has no
    root (the discriminant-hit case) is retried at a half-step offset;
    errors out after three retries.
    """
    step = 2.0 * np.pi / n_angles
    zmax_guess = max(1.0, radius * 4.0)
    tol = RESIDUAL_REL * (1.0 + zmax_guess ** P.degree)
    theta = step * np.arange(n_angles)
    todo = np.arange(n_angles)
    done = []
    for _ in range(4):
        row, z1, z2 = _lift(P, radius * np.exp(1j * theta[todo]), axis)
        bad = np.bincount(row, np.abs(P(z1, z2)) >= tol, len(todo)) > 0
        bad |= np.bincount(row, minlength=len(todo)) == 0
        keep = ~bad[row]
        done.append((todo[row[keep]], z1[keep], z2[keep]))
        theta[todo[bad]] += step / 2.0
        todo = todo[bad]
        if not todo.size:
            break
    else:
        raise SamplingError("root lifting failed after 3 retries")
    angle, z1, z2 = (np.concatenate(x) for x in zip(*done))
    order = np.argsort(angle, kind="stable")
    return np.stack([z1, z2], axis=1)[order]


def sample(curve, desc):
    """Discretize the set described by desc on the given curve."""
    P = curve.defining
    if isinstance(desc, Z1Disk):
        n_angles = max(MIN_RESOLUTION, desc.resolution // max(curve.d, 1))
        return _finish(curve, desc, _lift_circle(P, desc.r, n_angles, axis="z1"))

    if isinstance(desc, Z2Interval):
        # Chebyshev-Lobatto parameter grid: clusters at the endpoints and is
        # nested under doubling of the resolution.
        mid = 0.5 * (desc.lo + desc.hi)
        half = 0.5 * (desc.hi - desc.lo)
        nseg = max(MIN_RESOLUTION, desc.resolution // max(curve.d, 1))
        xs = mid + half * np.cos(np.pi * np.arange(nseg + 1) / nseg)
        _, z1, z2 = _lift(P, xs, axis="z2")
        return _finish(curve, desc, np.stack([z1, z2], axis=1))

    if isinstance(desc, AbsV1V2Torus):
        curve.require_directional("torus descriptor")
        if curve.d != 2:
            raise SamplingError("torus descriptor requires a degree-2 curve")
        # v1, v2 are linear homogeneous: write P in (v1, v2) through the
        # inverse coordinate change, lift |v1| = r1 and keep |v2| = r2
        M = np.array([[v.coeff(1, 0), v.coeff(0, 1)] for v in curve.dirbasis], dtype=complex)
        Minv = np.linalg.inv(M)
        z1, z2 = (BivarPoly({(1, 0): a, (0, 1): b}) for a, b in Minv)
        Q = sum(c * z1 ** a * z2 ** b for (a, b), c in P.terms.items())
        v = _lift_circle(Q, desc.r1, desc.resolution, axis="z1")
        v = v[np.abs(np.abs(v[:, 1]) - desc.r2) <= 1e-6 * max(1.0, desc.r2)]
        return _finish(curve, desc, v @ Minv.T)

    if isinstance(desc, BidiskTrace):
        half = max(MIN_RESOLUTION // 2, desc.resolution // 2)
        on1 = _lift_circle(P, desc.r1, half, axis="z1")
        on2 = _lift_circle(P, desc.r2, half, axis="z2")
        return _finish(curve, desc, np.concatenate([
            on1[np.abs(on1[:, 1]) <= desc.r2 * (1.0 + 1e-9)],
            on2[np.abs(on2[:, 0]) <= desc.r1 * (1.0 + 1e-9)],
        ]))

    if isinstance(desc, PointCloud):
        return _finish(curve, desc, np.array(desc.points, dtype=complex))

    raise TypeError(f"unknown set descriptor {type(desc).__name__}")


def sup_norm(p, K):
    """max |p| over the sampled points (a lower bound for the true sup)."""
    if isinstance(p, BivarPoly):
        vals = p(K.z1, K.z2)
    else:
        vals = np.asarray(p)
    if np.size(vals) == 0:
        return 0.0
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# Point cloud text format
# ---------------------------------------------------------------------------

def write_point_cloud(path, points):
    """Four float columns: re z1, im z1, re z2, im z2.  '#' comments."""
    with open(path, "w") as fh:
        fh.write("# re_z1 im_z1 re_z2 im_z2\n")
        for z1, z2 in points:
            fh.write(
                f"{z1.real:.17g} {z1.imag:.17g} {z2.real:.17g} {z2.imag:.17g}\n"
            )


def read_point_cloud(path):
    pts = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 4:
                raise ValueError(f"expected 4 columns, got {len(cols)}: {line!r}")
            a, b, c, d = (float(x) for x in cols)
            pts.append((complex(a, b), complex(c, d)))
    return pts
