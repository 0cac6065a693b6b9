"""In-memory span tracing of curvecheb's public functions.

Each traced function is replaced, in every curvecheb module that holds it
under some name, by a wrapper that records a span (name, start, end,
parent, job id).  The program itself is not edited: the spans sit at the
module boundaries the benchmark can see from outside.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass

# home module -> public functions traced there; the layer of a span is
# the module that defines the function
TRACED = {
    "cli": ("main",),
    "sets": ("sample",),
    "polyring": ("curve_new", "basis_enumerate", "basis_through_degree",
                 "basis_block", "normal_form", "pow_mod"),
    "chebyshev": ("class_parametrize", "basis_values", "minimax_solve",
                  "chebyshev_solve", "chebyshev_sequence", "tau_sequence",
                  "constant_estimate", "directional_constants",
                  "descending_direction_order", "comparison_report"),
    "transfinite": ("transfinite_diameter", "leja_start", "leja_extend",
                    "block_counts", "vn_tau_check"),
    "extremal": ("robin_constants", "vk_max", "extremal_build", "extremal_eval",
                 "oracle_eval", "probe_points", "robin_of_poly"),
}
# layers whose self time is reported; sets.sample_s already is the sets layer
SELF_LAYERS = ("cli", "polyring", "chebyshev", "transfinite", "extremal", "bench")

BASIS_FNS = ("polyring.basis_enumerate", "polyring.basis_through_degree",
             "polyring.basis_block")
NORMAL_FORM_FNS = ("polyring.normal_form", "polyring.pow_mod")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int         # index into the span list, -1 for a root
    job: int
    info: dict | None = None


def _solve_info(args, kwargs, out):
    """Per-solve record from minimax_solve's arguments and its ChebSolve."""
    free_basis, K = args[1], args[2]
    spec = kwargs.get("spec")
    label = spec.describe() if hasattr(spec, "describe") else repr(spec)
    return {
        "class": label,
        "n": out.n,
        "m": len(free_basis),
        "N": len(K.points),
        "iterations": out.iterations,
        "converged": bool(out.converged),
        "rel_gap": float(out.gap / out.norm) if out.norm > 0 else 0.0,
        "ridge_used": bool(out.ridge_used),
        # identity of the solve, for counting repeats within a job
        "key": (spec, out.n, len(free_basis), id(K)),
    }


def _basis_info(args, kwargs, out):
    return {"elems": [(el.basis_id, el.shape) for el in out]}


INFO_HOOKS = {
    "chebyshev.minimax_solve": _solve_info,
    "polyring.basis_enumerate": _basis_info,
    "polyring.basis_through_degree": _basis_info,
    "polyring.basis_block": _basis_info,
    "sets.sample": lambda args, kwargs, out: {"points": len(out.points)},
    "transfinite.leja_extend": lambda args, kwargs, out: {"points": int(args[1])},
}


class Tracer:
    """Patches the traced functions while active and collects spans."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._patches = []

    def _open(self, name):
        span = Span(name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = INFO_HOOKS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span.info = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "curvecheb" or n.startswith("curvecheb.")]
        for home, names in TRACED.items():
            home_mod = sys.modules[f"curvecheb.{home}"]
            for fname in names:
                orig = getattr(home_mod, fname)
                wrapper = self._wrap(f"{home}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a whole job."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                rec = {"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "job": s.job}
                fh.write(json.dumps(rec) + "\n")

    def write_solves(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                if s.name == "chebyshev.minimax_solve":
                    rec = {k: v for k, v in s.info.items() if k != "key"}
                    rec["ms"] = (s.end - s.start) * 1e3
                    rec["job"] = s.job
                    fh.write(json.dumps(rec) + "\n")


def span_cost_s():
    """Wall time one traced call adds, measured on a no-op function."""
    tracer = Tracer()
    noop = lambda: None
    wrapped = tracer._wrap("bench.noop", noop)
    reps = 20000
    t0 = time.perf_counter()
    for _ in range(reps):
        noop()
    t1 = time.perf_counter()
    for _ in range(reps):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / reps


def _outermost(spans, parents, names):
    """Indices of spans named in `names` with no ancestor named in `names`."""
    inside = []
    out = []
    for i, (s, p) in enumerate(zip(spans, parents)):
        parent_inside = p >= 0 and inside[p]
        named = s.name in names
        inside.append(named or parent_inside)
        if named and not parent_inside:
            out.append(i)
    return out


def job_metrics(spans, offset, job_s, span_cost):
    """Per-layer metrics of one job from its spans.

    `spans` is the job's contiguous slice of the tracer's list, which
    starts at index `offset`; parents outside the slice count as roots.
    """
    import numpy as np  # not at module level: run.py pins BLAS threads first

    parents =[s.parent - offset if s.parent >= offset else -1 for s in spans]
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for p, d in zip(parents, dur):
        if p >= 0:
            child[p] += d
    self_t = [d - c for d, c in zip(dur, child)]

    def self_of(pred):
        return sum(t for s, t in zip(spans, self_t) if pred(s.name))

    def incl_of(names):
        return sum(dur[i] for i in _outermost(spans, parents, names))

    solves = [s.info for s in spans if s.name == "chebyshev.minimax_solve"]
    solve_ms = [(s.end - s.start) * 1e3 for s in spans
                if s.name == "chebyshev.minimax_solve"]
    distinct = {}
    for rec in solves:
        distinct.setdefault(rec["key"], rec)
    iters = sum(r["iterations"] for r in solves)
    solve_s = self_of(lambda n: n == "chebyshev.minimax_solve")

    built = []
    for i in _outermost(spans, parents, BASIS_FNS):
        built.extend(spans[i].info["elems"])

    m = {
        "chebyshev.solve_s": solve_s,
        "chebyshev.iters": iters,
        "chebyshev.iter_ms": solve_s / iters * 1e3 if iters else 0.0,
        "chebyshev.solve_ms_p50": float(np.percentile(solve_ms, 50)) if solve_ms else 0.0,
        "chebyshev.solve_ms_p90": float(np.percentile(solve_ms, 90)) if solve_ms else 0.0,
        "chebyshev.lsq_gflop": sum(r["iterations"] * 8.0 * r["N"] * r["m"] ** 2
                                   for r in solves) / 1e9,
        "chebyshev.ridge_used": sum(1 for r in solves if r["ridge_used"]),
        "chebyshev.solves": len(solves),
        "chebyshev.solves_distinct": len(distinct),
        "chebyshev.solve_useful_ratio": len(distinct) / len(solves) if solves else 0.0,
        "chebyshev.parametrize_s": self_of(lambda n: n == "chebyshev.class_parametrize"),
        "chebyshev.design_s": self_of(lambda n: n == "chebyshev.basis_values"),
        "polyring.basis_s": incl_of(BASIS_FNS),
        "polyring.basis_elems": len(built),
        "polyring.basis_useful_ratio": len(set(built)) / len(built) if built else 0.0,
        "polyring.normal_form_s": incl_of(NORMAL_FORM_FNS),
        "sets.sample_s": self_of(lambda n: n == "sets.sample"),
        "sets.points": sum(s.info["points"] for s in spans if s.name == "sets.sample"),
        "transfinite.leja_s": self_of(lambda n: n in ("transfinite.leja_start",
                                                      "transfinite.leja_extend")),
        "transfinite.leja_points": sum(s.info["points"] for s in spans
                                       if s.name == "transfinite.leja_extend"),
        "extremal.robin_s": incl_of(("extremal.robin_constants",)),
        "extremal.vk_max_s": incl_of(("extremal.vk_max",)),
        "unconverged_frac": (sum(1 for r in distinct.values() if not r["converged"])
                             / len(distinct) if distinct else 0.0),
        "worst_rel_gap": max((r["rel_gap"] for r in solves), default=0.0),
        "trace.job_s": job_s,
        "trace.spans": len(spans),
        "trace.overhead_frac": len(spans) * span_cost / job_s,
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_of(lambda n, p=layer + ".": n.startswith(p))
    return m
