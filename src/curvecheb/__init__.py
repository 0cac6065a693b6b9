"""Chebyshev constants, transfinite diameters and extremal-like functions
on algebraic curves in C^2, with numerical cross-checks of the identities
relating them."""

from .polyring import (
    BivarPoly,
    Curve,
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
from .sets import (
    AbsV1V2Torus,
    BidiskTrace,
    PointCloud,
    SampledSet,
    Z1Disk,
    Z2Interval,
    sample,
    sup_norm,
)

__all__ = [
    "BivarPoly",
    "Curve",
    "CurveError",
    "basis_enumerate",
    "cjk_table",
    "curve_new",
    "expand_in_basis",
    "leading_part",
    "multiply",
    "normal_form",
    "polyprop_residual",
    "AbsV1V2Torus",
    "BidiskTrace",
    "PointCloud",
    "SampledSet",
    "Z1Disk",
    "Z2Interval",
    "sample",
    "sup_norm",
]

__version__ = "0.1.0"
