"""Sparse complex bivariate polynomials and the coordinate ring of a plane curve.

Everything downstream works in C[A] = C[z1, z2]/(P) for a degree-d curve
A = {P = 0} whose leading homogeneous part factors as C * prod(z2 - lam_k z1)
with the lam_k distinct and nonzero.  This module provides the polynomial
arithmetic, curve validation, normal forms in the quotient, the two graded
bases S (standard monomials) and C (directional) with the one parent rule
by which their elements are evaluated, and the structural identities that
the rest of the package relies on.

Each Curve carries a private cache, filled on first use and gone with the
curve: the power table NF(p^q) of every polynomial p raised by pow_mod,
and the S and C basis prefixes, built block by block.  A basis element
builds its polynomial on first read and keeps it; a degree-n C element
z1^r v_k^q is then z1^r times a table entry, so no power is recomputed.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Relative threshold below which coefficients are dropped after every ring
# operation.  Keeps the sparse maps clean without disturbing 1e-10 asserts.
PRUNE_REL = 1e-13

# Direction roots closer than this (relative to max |lambda|) are rejected.
# A true double root splits by ~sqrt(eps) in the companion eigensolve, so
# the tolerance must sit above 1.5e-8 to catch it.
SEPARATION_TOL = 1e-7

# A direction of modulus below this counts as a horizontal asymptote.
ZERO_DIR_TOL = 1e-8

DELTA_TOL = 1e-10      # v_j(1, lam_k) = delta_jk check, relative to the size of v_j
CJK_TOL = 1e-10        # nonvanishing bound for the c_jk coefficients

NEG_INF = float("-inf")


class CurveError(ValueError):
    """Raised when a defining polynomial violates the curve hypotheses."""


def _grevlex_key(mon):
    """Sort key: by total degree, then by increasing z2 power."""
    a, b = mon
    return (a + b, b)


class BivarPoly:
    """Immutable sparse polynomial in z1, z2 with complex coefficients.

    Terms are stored as a map (a, b) -> coefficient for the monomial
    z1^a z2^b.  Coefficients of relative modulus below PRUNE_REL are dropped
    on construction, so every arithmetic result is pruned.
    """

    __slots__ = ("_terms", "_degree")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in monomial ({a}, {b})")
                c = complex(c)
                if c != 0:
                    key = (int(a), int(b))
                    c0 = clean.get(key)
                    clean[key] = c if c0 is None else c0 + c
        if clean:
            cap = PRUNE_REL * max(abs(c) for c in clean.values())
            clean = {m: c for m, c in clean.items() if abs(c) > cap}
        self._terms = clean
        self._degree = max((a + b for a, b in clean), default=NEG_INF)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a, b, c=1.0):
        return cls({(a, b): c})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        return self._degree

    @property
    def is_zero(self):
        return not self._terms

    def coeff(self, a, b):
        return self._terms.get((a, b), 0j)

    def max_coeff(self):
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.constant(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0j) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return BivarPoly.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, BivarPoly):
            c = complex(other)
            return BivarPoly({m: c * v for m, v in self._terms.items()})
        out = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, 0j) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = BivarPoly.constant(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- evaluation --------------------------------------------------------

    def __call__(self, z1, z2):
        """Evaluate at scalars or numpy arrays (broadcasting)."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        acc = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for (a, b), c in self._terms.items():
            acc = acc + c * (z1 ** a) * (z2 ** b)
        if acc.ndim == 0:
            return complex(acc)
        return acc

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # equal polynomials have equal term sets, in whatever order
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "BivarPoly(0)"
        bits = []
        for (a, b), c in sorted(self._terms.items(), key=lambda t: _grevlex_key(t[0])):
            pw = f"z1^{a}" if a > 1 else ("z1" if a == 1 else "")
            pw += f"z2^{b}" if b > 1 else ("z2" if b == 1 else "")
            bits.append(f"({c:.6g})*{pw or '1'}")
        return "BivarPoly(" + " + ".join(bits) + ")"

    def close_to(self, other, tol=1e-10):
        """Coefficientwise comparison with absolute+relative tolerance."""
        scale = max(self.max_coeff(), other.max_coeff(), 1.0)
        keys = set(self._terms) | set(other._terms)
        return all(abs(self.coeff(*m) - other.coeff(*m)) <= tol * scale for m in keys)

    def short(self):
        """Compact one-line form for labels: 0.5*z1-0.5*z2."""
        if not self._terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self._terms.items(), key=lambda t: _grevlex_key(t[0])):
            mon = (f"z1^{a}" if a > 1 else "z1" if a == 1 else "") + \
                  (f"z2^{b}" if b > 1 else "z2" if b == 1 else "")
            if abs(c.imag) < 1e-14 * max(1.0, abs(c)):
                cs = f"{c.real:g}"
            else:
                cs = f"({c.real:g}{c.imag:+g}i)"
            bits.append(f"{cs}*{mon}" if mon else cs)
        out = "+".join(bits).replace("+-", "-")
        return out


def multiply(p, q):
    """Plain ring product (no reduction)."""
    return p * q


def effective_degree(p, floor=0.0):
    """Degree ignoring coefficients of modulus <= floor.

    Near-identities leave roundoff debris whose nominal degree is
    meaningless; degree bounds are asserted against a scale-aware floor.
    """
    degs = [a + b for (a, b), c in p.terms.items() if abs(c) > floor]
    return max(degs, default=NEG_INF)


def leading_part(p):
    """Top-degree homogeneous part of a nonzero polynomial."""
    if p.is_zero:
        raise ValueError("zero polynomial has no leading part")
    d = p.degree
    return BivarPoly({m: c for m, c in p.terms.items() if m[0] + m[1] == d})


# ---------------------------------------------------------------------------
# Curve model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """Validated model of a plane curve A = {P = 0} of degree d.

    directions holds the asymptotic slopes lam_1..lam_d (roots of the
    dehomogenized leading part), and dirbasis the degree-(d-1) polynomials
    v_1..v_d with v_j(1, lam_k) = delta_jk.  In relaxed mode the curve may
    have axis-parallel or horizontal asymptotes; directions then lists only
    the finite roots and dirbasis is None, so only S-basis machinery works.
    """

    defining: BivarPoly
    d: int
    lead_coeff: complex
    directions: tuple
    dirbasis: tuple | None
    relaxed: bool
    reduce_monomial: tuple
    reduce_rhs: BivarPoly
    # power tables (pow_mod) and basis prefixes (_prefix), filled lazily;
    # not part of the curve's value
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def evaluate(self, z1, z2):
        return self.defining(z1, z2)

    def require_directional(self, what="directional basis"):
        if self.dirbasis is None:
            raise CurveError(f"{what} unavailable on a relaxed curve")


def _hhat_coeffs(hhat, d):
    """Coefficients of lambda -> hhat(1, lambda), ascending in lambda."""
    return [hhat.coeff(d - b, b) for b in range(d + 1)]


def curve_new(P, relaxed=False):
    """Build a Curve from its defining polynomial.

    The direction roots come from a companion-matrix eigenvalue solve on the
    dehomogenized leading part.  Raises CurveError naming the violated
    hypothesis; relaxed mode accepts axis-parallel and horizontal asymptotes
    (and duplicate directions) but disables the directional basis.
    """
    if P.is_zero or P.degree < 2:
        raise CurveError("defining polynomial must have degree >= 2")
    d = int(P.degree)
    hhat = leading_part(P)
    lead = hhat.coeff(0, d)

    coeffs = _hhat_coeffs(hhat, d)
    scale = max(abs(c) for c in coeffs)
    lam_degree = max(b for b in range(d + 1) if abs(coeffs[b]) > 1e-14 * scale)
    # np.roots wants descending coefficients and builds the companion matrix
    roots = np.roots(np.array(coeffs[: lam_degree + 1][::-1], dtype=complex))
    roots = sorted(roots, key=lambda z: (z.real, z.imag))

    lam_scale = max([abs(lam) for lam in roots] + [1.0])
    has_zero = any(abs(lam) <= ZERO_DIR_TOL * lam_scale for lam in roots)
    axis_parallel = abs(lead) <= 1e-14 * scale  # some asymptote parallel to z2 axis

    if not relaxed:
        if axis_parallel and has_zero:
            raise CurveError("horizontal asymptote")
        if axis_parallel:
            raise CurveError("axis-parallel asymptote")
        if has_zero:
            raise CurveError("axis-parallel asymptote")
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if abs(roots[i] - roots[j]) <= SEPARATION_TOL * lam_scale:
                    raise CurveError("non-distinct directions")

    directions = tuple(complex(z) for z in roots)

    dirbasis = None
    degenerate = axis_parallel or has_zero or len(set(directions)) < d
    if not degenerate:
        vs = []
        for k in range(d):
            v = BivarPoly.constant(1.0)
            for j in range(d):
                if j == k:
                    continue
                factor = BivarPoly({(0, 1): 1.0, (1, 0): -directions[j]})
                v = v * factor * (1.0 / (directions[k] - directions[j]))
            vs.append(v)
        # near-equal directions give v_j coefficients of order 1/separation
        for j, v in enumerate(vs):
            size = sum(abs(c) for c in v.terms.values())
            for k, lam in enumerate(directions):
                err = abs(v(1.0, lam) - (j == k))
                if err > DELTA_TOL * size * max(1.0, abs(lam)) ** (d - 1):
                    raise CurveError("directional basis failed delta normalization")
        dirbasis = tuple(vs)

    # Reduction rule: eliminate the grevlex-largest monomial of P.  For a
    # valid curve this is z2^d, matching the standard-monomial basis S; for
    # e.g. z1*z2 = eps it is z1*z2, which keeps S a true quotient basis.
    lm = max(P.terms, key=_grevlex_key)
    lc = P.coeff(*lm)
    rhs = BivarPoly({m: -c / lc for m, c in P.terms.items() if m != lm})

    return Curve(
        defining=P,
        d=d,
        lead_coeff=complex(lead),
        directions=directions,
        dirbasis=dirbasis,
        relaxed=bool(relaxed),
        reduce_monomial=lm,
        reduce_rhs=rhs,
    )


# ---------------------------------------------------------------------------
# Normal form in C[A]
# ---------------------------------------------------------------------------

def normal_form(curve, p):
    """Unique representative of p modulo (P).

    Repeatedly substitutes the reduction monomial of the curve (z2^d on a
    valid curve) by its lower expression until no term is divisible by it.
    The result agrees with p at every point of A up to roundoff.
    """
    a0, b0 = curve.reduce_monomial
    rhs = curve.reduce_rhs
    work = dict(p.terms)
    while True:
        reducible = [m for m in work if m[0] >= a0 and m[1] >= b0]
        if not reducible:
            break
        m = max(reducible, key=_grevlex_key)
        c = work.pop(m)
        if c == 0:
            continue
        qa, qb = m[0] - a0, m[1] - b0
        for (ra, rb), rc in rhs.terms.items():
            key = (ra + qa, rb + qb)
            work[key] = work.get(key, 0j) + c * rc
    return BivarPoly(work)


def pow_mod(curve, p, n):
    """normal_form(p^n), reducing after every multiplication.

    The powers of p are cached on the curve and extended as needed.  The
    key is p's ordered term list: an equal polynomial with its terms in
    another order rounds differently.
    """
    key = ("pow", tuple(p.terms.items()))
    if key not in curve._cache:
        curve._cache[key] = (normal_form(curve, p), [BivarPoly.constant(1.0)])
    base, table = curve._cache[key]
    while len(table) <= n:
        table.append(normal_form(curve, table[-1] * base))
    return table[n]


# ---------------------------------------------------------------------------
# Graded bases
# ---------------------------------------------------------------------------

BASIS_S = "S"
BASIS_C = "C"


@dataclass(frozen=True)
class BasisElement:
    """An element of a graded basis, named by its shape.  Its normal form
    is built on the first read of `poly` (ReferenceError once its curve is
    gone) and kept; it is not part of the element's value, so comparing or
    printing elements builds none."""

    basis_id: str
    index: int          # 1-based position in the graded ordering
    degree: int
    label: str
    # ("monomial", a, b) for z1^a z2^b, ("dir", r, k, q) for z1^r v_k^q
    # (k 1-based); parent_rule reads it
    shape: tuple
    # weak, or the curve and its cache of elements would form a cycle
    curve_ref: weakref.ref = field(repr=False, compare=False)

    @cached_property
    def poly(self):
        """Normal-form representative: z1^a z2^b, or NF(z1^r NF(v_k^q))."""
        if self.shape[0] == "monomial":
            return BivarPoly.monomial(*self.shape[1:])
        _, r, k, q = self.shape
        curve = self.curve_ref()
        if curve is None:
            raise ReferenceError(f"the curve of basis element {self.label} no longer exists")
        return normal_form(curve, BivarPoly.monomial(r, 0)
                           * pow_mod(curve, curve.dirbasis[k - 1], q))


def _standard_monomials_of_degree(curve, n):
    a0, b0 = curve.reduce_monomial
    return [
        (n - b, b)
        for b in range(n + 1)
        if not (n - b >= a0 and b >= b0)
    ]


def _prefix(curve, basis_id, degree):
    """The curve's cached basis prefix and block ends, built through degree.

    ends[n] is the number of elements of degree <= n.  Blocks are appended
    one degree at a time and never rebuilt.
    """
    elems, ends = curve._cache.setdefault(("basis", basis_id), ([], []))
    while len(ends) <= degree:
        elems.extend(basis_block(curve, basis_id, len(ends), start_index=len(elems) + 1))
        ends.append(len(elems))
    return elems, ends


def basis_enumerate(curve, basis_id, count):
    """First `count` elements of the graded basis S or C."""
    if count < 1:
        raise ValueError("count must be >= 1")
    elems, ends = _prefix(curve, basis_id, 0)
    while len(elems) < count:
        _prefix(curve, basis_id, len(ends))
    return elems[:count]


def basis_through_degree(curve, basis_id, degree):
    """All basis elements of degree <= degree (the m_n prefix)."""
    if degree < 0:
        return []
    elems, ends = _prefix(curve, basis_id, degree)
    return elems[: ends[degree]]


def basis_block(curve, basis_id, n, start_index=1):
    """The degree-n block of the chosen basis, indexed from start_index;
    its elements build their polynomials when first read."""
    if basis_id not in (BASIS_S, BASIS_C):
        raise ValueError(f"unknown basis id {basis_id!r}")
    if basis_id == BASIS_C:
        curve.require_directional("basis C")
    ref = weakref.ref(curve)
    if basis_id == BASIS_S or n <= curve.d - 2:
        return [
            BasisElement(basis_id, start_index + i, n, f"z1^{a}*z2^{b}", ("monomial", a, b), ref)
            for i, (a, b) in enumerate(_standard_monomials_of_degree(curve, n))
        ]
    q, r = divmod(n, curve.d - 1)
    return [
        BasisElement(BASIS_C, start_index + k - 1, n, f"z1^{r}*v{k}^{q}", ("dir", r, k, q), ref)
        for k in range(1, curve.d + 1)
    ]


Z1 = BivarPoly.monomial(1, 0)
Z2 = BivarPoly.monomial(0, 1)


def parent_rule(curve, shape):
    """(parent shape, generator) of a basis element, or None for 1.

    Each element is its generator times its parent, an element of the same
    basis: z1^a z2^b is z1 * z1^(a-1) z2^b, or z2 * z2^(b-1) when a = 0
    (standard monomials form an order ideal), and z1^r v_k^q is
    z1 * z1^(r-1) v_k^q, or v_k * v_k^(q-1) when r = 0, with v_k^0 = 1.
    Orthonormal designs, raw design matrices and Leja columns are all
    built by this one rule.
    """
    if shape[0] == "monomial":
        _, a, b = shape
        if a > 0:
            return ("monomial", a - 1, b), Z1
        return (("monomial", 0, b - 1), Z2) if b > 0 else None
    _, r, k, q = shape
    if r > 0:
        return ("dir", r - 1, k, q), Z1
    return (("dir", 0, k, q - 1) if q > 1 else ("monomial", 0, 0)), curve.dirbasis[k - 1]


def generator_reach(curve, basis_id):
    """The largest generator degree in parent_rule over the basis: 1 for z1
    and z2, d - 1 for the v_k of basis C.  No element is more than this
    many degrees above its parent."""
    return max(1, curve.d - 1) if basis_id == BASIS_C else 1


def expand_in_basis(curve, p, basis_id):
    """Coefficients of p (in normal form) w.r.t. the graded basis.

    Returns a complex vector over all basis elements of degree <= deg(p).
    The change of basis is triangular by degree, so a single dense solve on
    the small prefix matrix is exact to roundoff.
    """
    if p.is_zero:
        return np.zeros(0, dtype=complex)
    deg = int(p.degree)
    selems = basis_through_degree(curve, BASIS_S, deg)
    spos = {el.shape[1:]: i for i, el in enumerate(selems)}
    svec = np.zeros(len(selems), dtype=complex)
    for (a, b), c in p.terms.items():
        if (a, b) not in spos:
            raise ValueError("polynomial is not in normal form")
        svec[spos[(a, b)]] = c
    if basis_id == BASIS_S:
        return svec
    celems = basis_through_degree(curve, BASIS_C, deg)
    M = np.zeros((len(selems), len(celems)), dtype=complex)
    for j, el in enumerate(celems):
        for (a, b), c in el.poly.terms.items():
            M[spos[(a, b)], j] = c
    try:
        # equilibrate columns (coefficient scales grow geometrically with
        # the block degree) and refine with exactly-summed residuals; a
        # plain solve stalls at eps * cond around degree 12
        cscale = np.maximum(np.max(np.abs(M), axis=0), 1e-300)
        Ms = M / cscale[None, :]
        y = np.linalg.solve(Ms, svec)
        for _ in range(2):
            y += np.linalg.solve(Ms, _exact_residual(Ms, y, svec))
        coeffs = y / cscale
    except np.linalg.LinAlgError as exc:  # cannot happen on a valid curve
        raise RuntimeError("singular change-of-basis block") from exc
    return coeffs


def _exact_residual(M, x, b):
    """b - M x with exact per-entry summation."""
    prods = M * x[None, :]
    out = np.empty(len(b), dtype=complex)
    for i in range(len(b)):
        re = math.fsum(list(prods[i].real) + [-b[i].real])
        im = math.fsum(list(prods[i].imag) + [-b[i].imag])
        out[i] = complex(-re, -im)
    return out


def basis_combination(curve, basis_id, coeffs):
    """Inverse of expand_in_basis: sum coeffs[i] * b_{i+1}.

    Accumulates per monomial with exact summation; the directional basis
    elements carry large cancelling coefficients at higher degree.
    """
    elems = basis_enumerate(curve, basis_id, max(len(coeffs), 1))
    acc = {}
    for c, el in zip(coeffs, elems):
        if c == 0:
            continue
        for m, v in el.poly.terms.items():
            acc.setdefault(m, []).append(c * v)
    terms = {
        m: complex(math.fsum(x.real for x in vals), math.fsum(x.imag for x in vals))
        for m, vals in acc.items()
    }
    return BivarPoly(terms)


# ---------------------------------------------------------------------------
# The c_jk table and the residual of the multiplication rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CjkTable:
    """entries[j, k-1] = c_jk in z1^j z2^(d-1-j) = sum_k c_jk v_k."""

    entries: np.ndarray

    def row(self, j):
        return self.entries[j]


def cjk_table(curve):
    # the v_k are the Lagrange basis of the degree-(d-1) forms at the points
    # (1, lam_k), so z1^j z2^(d-1-j) = sum_k lam_k^(d-1-j) v_k exactly
    curve.require_directional("c_jk table")
    lam = np.array(curve.directions, dtype=complex)
    entries = lam[None, :] ** (curve.d - 1 - np.arange(curve.d))[:, None]
    if np.min(np.abs(entries)) <= CJK_TOL:
        raise CurveError("curve violates the nonvanishing of the c_jk numerically")
    return CjkTable(entries=entries)


def polyprop_residual(curve, q, k):
    """normal_form(q*v_k - qhat(1, lam_k) * z1^deg(q) * v_k).

    On a valid curve the residual has degree < deg(q) + d - 1.
    """
    curve.require_directional("directional residual")
    if q.is_zero:
        raise ValueError("q must be nonzero")
    if not 1 <= k <= curve.d:
        raise ValueError("direction index out of range")
    v = curve.dirbasis[k - 1]
    qhat = leading_part(q)
    factor = qhat(1.0, curve.directions[k - 1])
    lead = BivarPoly.monomial(int(q.degree), 0) * factor
    return normal_form(curve, q * v - lead * v)


# ---------------------------------------------------------------------------
# Curve text format
# ---------------------------------------------------------------------------

CURVE_SCHEMA = "curvecheb.curve/1"


def curve_records(p):
    """Canonical record list for a polynomial, sorted by (a+b, b)."""
    recs = []
    for (a, b), c in sorted(p.terms.items(), key=lambda t: _grevlex_key(t[0])):
        recs.append({"a": a, "b": b, "re": float(c.real), "im": float(c.imag)})
    return recs


def poly_from_records(records):
    terms = {}
    for rec in records:
        try:
            a, b = int(rec["a"]), int(rec["b"])
            c = complex(float(rec["re"]), float(rec["im"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad curve term {rec!r}") from exc
        terms[(a, b)] = terms.get((a, b), 0j) + c
    return BivarPoly(terms)


def write_curve(path, p):
    # floats serialize via repr, which is lossless (shortest round trip)
    doc = {"schema": CURVE_SCHEMA, "terms": curve_records(p)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_curve(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"a curve file holds a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != CURVE_SCHEMA:
        raise ValueError(f"unexpected curve schema {doc.get('schema')!r}")
    if not isinstance(doc.get("terms"), list):
        raise ValueError("curve file has no terms list")
    return poly_from_records(doc["terms"])
