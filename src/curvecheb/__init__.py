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

# chebyshev ends with an alias imported from verify, which imports chebyshev,
# transfinite and extremal back; loading chebyshev first, whichever module is
# asked for, lets each of them load whole
from . import chebyshev  # noqa: F401

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
