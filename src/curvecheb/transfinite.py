"""Vandermonde determinants, greedy point selection, transfinite diameters.

V_n is the maximal modulus of det[b_j(zeta_k)] over n-point configurations;
the n-th point of a greedy (Leja) sequence maximizes the determinant given
the earlier picks, which lower-bounds the true sup but shares its n-th root
asymptotics in practice.  Diameter estimates are the l_n-th roots of the
greedy V at complete degree blocks, which the basis prefix delimits.

Working columns are generated in Newton form by the parent rule of
polyring.parent_rule, the one that builds the minimax designs: the
column of a basis element is its parent element's remainder column times
the element's generator (z1, z2 or a directional v_k), then eliminated
against the steps since the parent.  This change of basis is
unit-triangular, so determinant bookkeeping is exact, and it sidesteps the
catastrophic cancellation that kills raw Vandermonde columns beyond degree
~40 on sets of capacity != 1.
A parent is at most g degrees below its element, g the largest generator
degree (polyring.generator_reach), and the basis is graded, so a run keeps
only the columns of degree >= the current degree - g: a window of rows that
slides as the degree grows, its size set by the widest stretch of live
steps, not by the depth of the run.
All determinant work happens in log-modulus space; raw determinants
overflow doubles around degree ten.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polyring import basis_enumerate, basis_through_degree, generator_reach, parent_rule
from .chebyshev import Tau, basis_values
from .sets import SampleTooSmall

NEG_INF = float("-inf")

# Greedy scores within this fraction of the best count as tied, and the
# lowest candidate index among them is picked: symmetric sets have exact
# ties that rounding would otherwise break one way or the other.
LEJA_TIE_REL = 1e-9


def log_vdm(curve, basis_id, pts):
    """log |det [b_j(zeta_k)]| for the first len(pts) basis elements.

    Computed by pivoted LU (slogdet accumulates log |pivot|); a singular
    configuration returns the -inf sentinel.
    """
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim != 2 or len(pts) < 1:
        raise ValueError("need a nonempty list of points")
    M = basis_values(curve, basis_enumerate(curve, basis_id, len(pts)), pts).T
    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        return NEG_INF
    return float(logdet)


@dataclass
class LejaRun:
    """Greedy Fekete picks over a fixed candidate set, and what they produce.

    leja_extend mutates the run in place and returns it.
    """

    curve: object
    basis_id: str
    candidates: object            # SampledSet
    selected: list = field(default_factory=list)    # candidate indices
    points: list = field(default_factory=list)      # (z1, z2) pairs
    log_vdm: list = field(default_factory=list)     # cumulative after each pick
    increments: list = field(default_factory=list)
    # remainder column of step _base + k in row k, zero at the rows picked
    # before that step; rows hold consecutive steps, from the first that a
    # later column can read (degree >= the current degree - generator_reach) on
    _W: np.ndarray = field(default=None, repr=False)
    _base: int = field(default=0, repr=False)
    _step_of: dict = field(default_factory=dict, repr=False)  # shape -> step
    # generator values by the generator's id: the generators are module
    # constants or the curve's own polynomials, alive while the run is
    _gens: dict = field(default_factory=dict, repr=False)

    @property
    def diam_estimates(self):
        """(n, V_{m_n}^{1/l_n}) at each degree block n >= 1 the picks complete:
        m_n is the length of the basis prefix through degree n, l_n its degree sum."""
        out, l_n, m_lo, n = [], 0, 1, 1
        while m_lo < len(self.log_vdm):
            m_n = len(basis_through_degree(self.curve, self.basis_id, n))
            if m_n > len(self.log_vdm):
                break
            l_n += n * (m_n - m_lo)
            out.append((n, float(np.exp(self.log_vdm[m_n - 1] / l_n))))
            m_lo, n = m_n, n + 1
        return out

    def _new_column(self, el, step):
        """The window row of `step`: el's generator times its parent's column,
        eliminated against the steps since the parent.  The pick rows of
        those steps carry a lower-triangular block whose diagonal is their
        pivots; forward substitution on it gives the coefficients of all
        the steps at once, and one product with their rows applies them."""
        base = self._base
        col = self._W[step - base]
        rule = parent_rule(self.curve, el.shape)
        if rule is None:
            col[:] = 1.0
            return col
        parent_shape, gen = rule
        values = self._gens.get(id(gen))
        if values is None:
            values = self._gens[id(gen)] = gen(self.candidates.z1, self.candidates.z2)
        src = self._step_of[parent_shape]
        np.multiply(values, self._W[src - base], out=col)
        rows = self.selected[src:step]
        block = self._W[src - base:step - base]
        L = block[:, rows].tolist()     # L[j][k]: column src + j at the pick of src + k
        coef = col[rows].tolist()
        for k in range(len(coef)):
            ck = coef[k]
            for j in range(k):
                ck -= L[j][k] * coef[j]
            coef[k] = ck / L[k][k]
        col -= np.array(coef) @ block
        # the rows picked before the parent are zero in the parent's column and
        # in the block, so they stay zero; zero those picked since
        col[rows] = 0.0
        return col


def leja_start(curve, K, basis_id):
    return LejaRun(curve=curve, basis_id=basis_id, candidates=K,
                   _W=np.empty((0, len(K.points)), dtype=complex))


def leja_extend(run, count):
    """Greedily append `count` points to the run.

    Each pick maximizes the modulus of the Vandermonde determinant of the
    selected points given the earlier ones; scores within LEJA_TIE_REL of
    the best tie, and ties resolve to the lowest candidate index.  Raises
    if every remaining candidate yields a singular configuration.
    """
    n_cand = len(run.candidates.points)
    done = len(run.selected)
    target = done + count
    if target > n_cand:
        raise SampleTooSmall("candidate set exhausted")
    elems = basis_enumerate(run.curve, run.basis_id, target)
    reach = generator_reach(run.curve, run.basis_id)
    # firsts[i]: the first step that step done + i, or a later one, can read
    firsts, lo = [], run._base
    for el in elems[done:target]:
        while elems[lo].degree < el.degree - reach:
            lo += 1
        firsts.append(lo)
    # twice the most live rows, so a slide comes at most once per half window
    rows = 2 * max((step + 1 - lo for step, lo in enumerate(firsts, done)), default=0)
    if rows > len(run._W):
        window = np.empty((rows, n_cand), dtype=complex)
        window[:done - firsts[0]] = run._W[firsts[0] - run._base:done - run._base]
        run._W, run._base = window, firsts[0]
    scores = np.empty(n_cand)
    for step, first in zip(range(done, target), firsts):
        if step - run._base == len(run._W):   # full: slide the live rows to the front
            run._W[:step - first] = run._W[first - run._base:step - run._base]
            run._base = first
        el = elems[step]
        col = run._new_column(el, step)
        run._step_of[el.shape] = step
        np.abs(col, out=scores)
        best = scores.max()
        if best == 0.0:
            raise RuntimeError("degenerate candidate set")
        i = int((scores >= best * (1.0 - LEJA_TIE_REL)).argmax())
        run.selected.append(i)
        run.points.append(tuple(run.candidates.points[i]))
        inc = float(np.log(scores[i]))
        run.increments.append(inc)
        run.log_vdm.append((run.log_vdm[-1] if run.log_vdm else 0.0) + inc)
    return run


def block_counts(curve, basis_id, degree):
    """(m_n, l_n): number of basis elements of degree <= n and degree sum."""
    elems = basis_through_degree(curve, basis_id, degree)
    return len(elems), sum(el.degree for el in elems)


def transfinite_diameter(curve, K, basis_id, n_max, run=None):
    """Diameter estimate at degree n_max; returns (estimate, run).

    The raw block values V_{m_n}^{1/l_n} approach the limit only like
    exp(O(m log m)/l_n) because of the m!-type volume factor, which the
    limit theory divides out; the returned estimate is the slope of log V
    between degrees n_max // 2 and n_max, which cancels that factor at
    finite depth.  The raw block values are read from run.diam_estimates.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    m_n, l_hi = block_counts(curve, basis_id, n_max)
    if m_n > len(K.points):
        raise SampleTooSmall(
            f"candidate set has {len(K.points)} points, need {m_n} for degree {n_max}"
        )
    if run is None:
        run = leja_start(curve, K, basis_id)
    elif not (run.curve is curve and run.candidates is K and run.basis_id == basis_id):
        raise ValueError("the run was started on another curve, set or basis")
    missing = m_n - len(run.selected)
    if missing > 0:
        leja_extend(run, missing)
    ests = dict(run.diam_estimates)
    n_lo = n_max // 2
    _, l_lo = block_counts(curve, basis_id, n_lo)
    slope = (l_hi * np.log(ests[n_max]) - l_lo * np.log(ests[n_lo])) / (l_hi - l_lo)
    return float(np.exp(slope)), run


@dataclass
class VnTauRecord:
    index: int
    ratio: float          # V_n / V_{n-1}
    bound: float          # n * tau_n^{deg b_n} (before slack)
    passed: bool


def vn_tau_check(run, tau_solves, slack):
    """Check V_n / V_{n-1} <= n * tau_n^deg(b_n) * (1 + slack) per index.

    The greedy V is only a lower bound of the true sup, so violations
    beyond the slack indicate bugs rather than theory failures.
    """
    out = []
    for j, solve in enumerate(tau_solves, start=1):
        if j > len(run.increments):
            break
        if not (solve.spec == Tau(run.basis_id) and solve.n == j):
            raise ValueError("tau sequence does not align with the run's basis")
        ratio = float(np.exp(run.increments[j - 1]))
        bound = j * solve.norm
        out.append(VnTauRecord(j, ratio, bound, ratio <= bound * (1.0 + slack)))
    return out
