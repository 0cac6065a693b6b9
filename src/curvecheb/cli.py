"""Command-line front end: config handling, experiments, reports.

Subcommands: curve-info, sample, cheb, robin, tfd, extremal, verify.
verify writes the rows and table of curvecheb.verify, the solver health
line of the solves on its sample and the exit code.
Exit codes: 0 pass, 1 assertion failure, 2 invalid input, 3 numerical
failure or non-convergence.  Reports are plain text with tab-separated
records and fixed float formatting, so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import minimax, polyring, sets
from .polyring import (BASIS_C, BASIS_S, BivarPoly, CurveError, basis_through_degree,
                       curve_new, poly_from_records)
from .sets import (
    AbsV1V2Torus,
    BidiskTrace,
    PointCloud,
    SampleTooSmall,
    SamplingError,
    Z1Disk,
    Z2Interval,
    read_point_cloud,
    sample,
    write_point_cloud,
)
from .chebyshev import MQ, Mz1jVk, SolverOptions, TildeMl, Zk, chebyshev_sequence, solves_on
from .transfinite import transfinite_diameter
from .extremal import PROBE_COUNT, PROBE_RADII, probe_points, robin_constants, vk_max
from .verify import verify_report

CONFIG_SCHEMA = "curvecheb.config/1"

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3


class ConfigError(ValueError):
    pass


# Config keys.  A reader takes one JSON value and the key's name, and returns
# the value or raises a ConfigError naming the key.  Numbers are JSON numbers
# (true and false are not one) and must be finite.
REQUIRED = object()   # the default of a key that has none


def _real(positive=False):
    """A finite number, above 0 when positive."""
    def read(value, name):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, not {value!r}")
        if not (abs(value) <= sys.float_info.max and (value > 0 or not positive)):
            raise ConfigError(f"{name} must be {'positive and ' * positive}finite, not {value!r}")
        return float(value)
    return read


def _count(least, most=math.inf):
    """An integer in least..most, which JSON may give as an integral float (512.0)."""
    def read(value, name):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            kind = "positive" if least else "non-negative"
            raise ConfigError(f"{name} must be a {kind} integer, not {value!r}")
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, not {value!r}")
        if value > most:
            raise ConfigError(f"{name} must be <= {most}, not {value!r}")
        return value
    return read


def _exact(kind, *allowed):
    """A JSON string or boolean (kind), one of allowed when that is given."""
    def read(value, name):
        if not isinstance(value, kind) or (allowed and value not in allowed):
            want = " or ".join(map(json.dumps, allowed)) or "a string"
            raise ConfigError(f"{name} must be {want}, not {value!r}")
        return value
    return read


def _labels(value, name):
    """Direction labels: a list of [re, im] pairs or nulls, read as complex."""
    if isinstance(value, list) and all(v is None or (isinstance(v, list) and len(v) == 2)
                                       for v in value):
        return [None if v is None else complex(*(_real()(x, name) for x in v)) for v in value]
    raise ConfigError(f"{name} must be a list of [re, im] pairs or nulls, not {value!r}")


def _terms(value, name):
    if not (isinstance(value, list) and value and all(isinstance(t, dict) for t in value)):
        raise ConfigError(f"{name} must be a non-empty list of term objects, not {value!r}")
    return [_read(TERM_KEYS, term, "curve term ") for term in value]


# upper bounds on counts, far above any value in use, so that a huge value
# (a term power of 10**400) exits 2 instead of running for ever
MAX_POWER = 100             # of z1 or z2 in a curve term
MAX_RESOLUTION = 1 << 20
MAX_N = 1000
_RESOLUTION = _count(sets.MIN_RESOLUTION, MAX_RESOLUTION)
_RADIUS = (_real(positive=True), REQUIRED)
# set kind -> (descriptor class, its keys besides kind and resolution)
SET_KINDS = {
    "z1disk": (Z1Disk, {"r": _RADIUS}),
    "z2interval": (Z2Interval, {"lo": (_real(), REQUIRED), "hi": (_real(), REQUIRED)}),
    "absv1v2torus": (AbsV1V2Torus, {"r1": _RADIUS, "r2": _RADIUS}),
    "bidisktrace": (BidiskTrace, {"r1": _RADIUS, "r2": _RADIUS}),
    "pointcloud": (PointCloud, {"path": (_exact(str), REQUIRED)}),   # relative to the config
}
# key path -> (reader, default); the reader states the type and the range
KEYS = {
    "schema": (_exact(str, CONFIG_SCHEMA), REQUIRED),
    "curve.terms": (_terms, None),           # one of terms and path is required
    "curve.path": (_exact(str), None),       # a curve file, relative to the config
    "set.kind": (_exact(str, *SET_KINDS), REQUIRED),
    "set.resolution": (_RESOLUTION, None),   # None: the top-level one
    "resolution": (_RESOLUTION, 1024),
    "n_max": (_count(1, MAX_N), 8),
    "solver.max_iter": (_count(1), SolverOptions.max_iter),
    "solver.tol": (_real(positive=True), SolverOptions.tol),
    "out_dir": (_exact(str), None),
    "relaxed": (_exact(bool, True, False), False),
    "directions": (_labels, None),           # labels for relaxed-mode Robin constants
}
TERM_KEYS = {"a": (_count(0, MAX_POWER), REQUIRED), "b": (_count(0, MAX_POWER), REQUIRED),
             "re": (_real(), REQUIRED), "im": (_real(), REQUIRED)}


def _read(keys, doc, where=""):
    """{path: value} for every key of the table, read from the JSON object
    doc.  A key that is absent or null takes its default."""
    values = {}
    for path, (read, default) in keys.items():
        parent, _, key = path.rpartition(".")
        if not isinstance(node := doc.get(parent, {}) if parent else doc, dict):
            raise ConfigError(f"{where}{parent} must be a JSON object, not {node!r}")
        name = where + path.replace(".", " ")
        if (value := node.get(key)) is None and default is REQUIRED:
            raise ConfigError(f"{name} is missing")
        values[path] = default if value is None else read(value, name)
    return values


def _load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
    return doc


@dataclass
class RunConfig:
    curve_terms: list
    set_spec: dict          # the set entry as read: kind, its keys and resolution
    resolution: int
    n_max: int
    solver: SolverOptions
    out_dir: str | None
    relaxed: bool
    directions: list | None     # complex labels (None where unlabelled)

    @classmethod
    def from_file(cls, path):
        return cls.from_document(_load(path), Path(path).parent)

    @classmethod
    def from_document(cls, doc, base_dir):
        """The config a parsed JSON document holds; curve.path and a point
        cloud's set.path are relative to base_dir."""
        v = _read(KEYS, doc)
        terms = v["curve.terms"]
        if v["curve.path"] is not None:
            try:
                terms = polyring.curve_records(
                    polyring.read_curve(Path(base_dir) / v["curve.path"]))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read curve path: {exc}") from exc
            terms = _terms(terms, "curve path terms")
        elif terms is None:
            raise ConfigError("curve terms or curve path is required")
        kind = v["set.kind"]
        set_keys = _read(SET_KINDS[kind][1], doc["set"], "set ")
        if "path" in set_keys:
            set_keys["path"] = str(Path(base_dir) / set_keys["path"])
        return cls(curve_terms=terms,
                   set_spec={"kind": kind, "resolution": v["set.resolution"], **set_keys},
                   resolution=v["resolution"], n_max=v["n_max"],
                   solver=SolverOptions(max_iter=v["solver.max_iter"], tol=v["solver.tol"]),
                   out_dir=v["out_dir"], relaxed=v["relaxed"], directions=v["directions"])

    def build_curve(self):
        return curve_new(poly_from_records(self.curve_terms), relaxed=self.relaxed)

    def build_descriptor(self):
        spec = dict(self.set_spec)
        make, keys = SET_KINDS[spec.pop("kind")]
        spec["resolution"] = spec["resolution"] or self.resolution
        try:
            if make is PointCloud:
                spec["points"] = tuple(read_point_cloud(spec.pop("path")))
            return make(**spec)
        except (ValueError, OSError) as exc:   # a check the descriptor makes, or the cloud file
            raise ConfigError(f"{', '.join('set ' + k for k in keys)}: {exc}") from exc


def _fmt(x):
    if x is None:
        return "nan"
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def parse_class_spec(curve, text):
    """Parse a class spec string.

    Grammar: mv:K (powers of v_K), zk:K, mz1j:J,K, mtilde:L,J, mz1
    (powers of z1).  Every index is checked against the curve's degree d.
    """
    name, _, args = text.partition(":")
    name = name.strip().lower()
    if name == "mz1":
        return MQ(BivarPoly.monomial(1, 0))
    d = curve.d
    # constructor and the allowed range of each index
    forms = {
        "mv": (lambda k: MQ(curve.dirbasis[k - 1]), [(1, d)]),
        "zk": (Zk, [(0, d - 1)]),
        "mz1j": (Mz1jVk, [(0, d - 2), (1, d)]),
        "mtilde": (TildeMl, [(0, d - 2), (1, d)]),
    }
    if name not in forms:
        raise ConfigError(f"unknown class spec {text!r}")
    if name == "mv":
        curve.require_directional("directional classes")
    make, ranges = forms[name]
    try:
        idx = [int(x) for x in args.split(",")]
        if len(idx) != len(ranges):
            raise ValueError(f"expected {len(ranges)} indices")
        for i, (lo, hi) in zip(idx, ranges):
            if not lo <= i <= hi:
                raise ValueError(f"index {i} is outside {lo}..{hi} on a degree-{d} curve")
        return make(*idx)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad class spec {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_curve_info(cfg, out):
    curve = cfg.build_curve()
    lines = ["curve degree\t" + str(curve.d),
             "lead coeff\t" + _fmt(curve.lead_coeff),
             "relaxed\t" + str(curve.relaxed).lower()]
    for i, lam in enumerate(curve.directions, start=1):
        lines.append(f"direction {i}\t{_fmt(complex(lam))}")
    if curve.dirbasis is not None:
        for i, v in enumerate(curve.dirbasis, start=1):
            recs = polyring.curve_records(v)
            body = " ".join(f"({r['a']},{r['b']})={_fmt(complex(r['re'], r['im']))}" for r in recs)
            lines.append(f"v{i}\t{body}")
        table = polyring.cjk_table(curve)
        for j in range(curve.d):
            row = " ".join(_fmt(complex(c)) for c in table.entries[j])
            lines.append(f"cjk row {j}\t{row}")
    print("\n".join(lines))
    if out:
        _write_lines(Path(out) / "curve_info.txt", lines)
    return EXIT_OK


def cmd_sample(cfg, out):
    curve = cfg.build_curve()
    K = sample(curve, cfg.build_descriptor())
    print(f"sampled {len(K)} points, max residual {K.max_residual:.3e}")
    if out:
        write_point_cloud(Path(out) / "sample.txt", [tuple(p) for p in K.points])
    return EXIT_OK


def cmd_cheb(cfg, out, class_text, n_min, allow_unconverged):
    curve = cfg.build_curve()
    spec = parse_class_spec(curve, class_text)
    if n_min > cfg.n_max:
        raise ConfigError("empty parameter range")
    K = sample(curve, cfg.build_descriptor())
    seq = chebyshev_sequence(curve, spec, K, range(n_min, cfg.n_max + 1), cfg.solver)
    lines = ["class\tn\tnorm\ttn\titers\tgap\tconverged\tdropped"]
    for s in seq:
        lines.append(f"{spec.describe()}\t{s.n}\t{_fmt(s.norm)}\t{_fmt(s.tn)}\t{s.iterations}"
                     f"\t{_fmt(s.gap)}\t{str(s.converged).lower()}\t{str(s.ridge_used).lower()}")
    print("\n".join(lines))
    if out:
        _write_lines(Path(out) / "cheb_table.tsv", lines)
    if not allow_unconverged and any(not s.converged for s in seq):
        print("non-convergence in at least one solve", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_robin(cfg, out):
    curve = cfg.build_curve()
    K = sample(curve, cfg.build_descriptor())
    rep = robin_constants(curve, K, cfg.n_max, cfg.solver,
                          directions=cfg.directions)
    lines = ["direction\trho\tT\tvia\tdiscrepancy\treliable"]
    for e in rep.per_direction:
        lam = _fmt(complex(e.lam)) if e.lam is not None else "-"
        lines.append(f"{lam}\t{_fmt(e.rho)}\t{_fmt(e.t_estimate)}\t{e.via}"
                     f"\t{_fmt(e.discrepancy)}\t{str(e.reliable).lower()}")
    lines.append("ordering\t" + " ".join(str(i + 1) for i in rep.ordering))
    lines.append("strictly increasing\t" + str(rep.strict).lower())
    print("\n".join(lines))
    if out:
        _write_lines(Path(out) / "robin.tsv", lines)
    return EXIT_OK


def cmd_tfd(cfg, out, basis):
    curve = cfg.build_curve()
    K = sample(curve, cfg.build_descriptor())
    est, run = transfinite_diameter(curve, K, basis, cfg.n_max)
    lines = ["step\tre_z1\tim_z1\tre_z2\tim_z2\tincrement\tdegree\testimate"]
    ests = dict(run.diam_estimates)
    # pick m closes its degree block when m is the length of the prefix through it
    ends = {len(basis_through_degree(curve, basis, n)) for n in range(cfg.n_max + 1)}
    elems = basis_through_degree(curve, basis, cfg.n_max)
    # one format per row; the floats as _fmt writes them
    row = "{}\t{:.12g}\t{:.12g}\t{:.12g}\t{:.12g}\t{:.12g}\t{}\t{}".format
    for i, (el, (z1, z2), inc) in enumerate(zip(elems, run.points, run.increments), start=1):
        dest = _fmt(ests.get(el.degree)) if i in ends else ""
        lines.append(row(i, z1.real, z1.imag, z2.real, z2.imag, inc, el.degree, dest))
    lines.append(f"diameter estimate\t{_fmt(est)}")
    print(f"basis {basis} degree {cfg.n_max}: diameter estimate {est:.6g}")
    if out:
        _write_lines(Path(out) / f"tfd_{basis}.tsv", lines)
    return EXIT_OK


def cmd_extremal(cfg, out, n):
    if n is None:
        n = cfg.n_max
    if n < 1:
        raise ConfigError(f"--n must be a positive integer, not {n}")
    curve = cfg.build_curve()
    K = sample(curve, cfg.build_descriptor())
    pts = probe_points(curve, PROBE_RADII, PROBE_COUNT)
    rep = vk_max(curve, K, n, pts, cfg.solver)
    lines = ["re_z1\tim_z1\tre_z2\tim_z2\tV_max\tV_tilde_max\toracle\tgap"]
    for i in range(len(pts)):
        orac = rep.oracle[i] if rep.oracle is not None else float("nan")
        fam = rep.max_families[i]
        gap = abs(fam - orac) if rep.oracle is not None else float("nan")
        lines.append(
            f"{_fmt(pts[i, 0].real)}\t{_fmt(pts[i, 0].imag)}\t{_fmt(pts[i, 1].real)}"
            f"\t{_fmt(pts[i, 1].imag)}\t{_fmt(float(rep.max_vk[i]))}"
            f"\t{_fmt(float(rep.max_tilde[i]))}\t{_fmt(float(orac))}\t{_fmt(float(gap))}"
        )
    print("\n".join(lines[: min(6, len(lines))]))
    if rep.gap_families is not None:
        print(f"sup gap vs oracle: {rep.gap_families:.3e}")
    if out:
        _write_lines(Path(out) / "extremal_grid.tsv", lines)
    return EXIT_OK


def cmd_verify(cfg, out, tol_scale, allow_unconverged):
    if not (math.isfinite(tol_scale) and tol_scale >= 0):
        raise ConfigError(f"--tolerance-scale must be finite and >= 0, not {tol_scale!r}")
    curve = cfg.build_curve()
    K = sample(curve, cfg.build_descriptor())
    assertions, table = verify_report(curve, K, cfg.n_max, cfg.solver, tol_scale, cfg.directions)
    lines = ["name\tkind\tlhs\trhs\ttol\tverdict"]
    for a in assertions:
        lines.append(f"{a.name}\t{a.kind}\t{_fmt(a.lhs)}\t{_fmt(a.rhs)}"
                     f"\t{_fmt(a.tol)}\t{'pass' if a.passed else 'FAIL'}")
    n_fail = sum(1 for a in assertions if not a.passed)
    lines.append(f"total\t{len(assertions)}\tfailed\t{n_fail}\t\t"
                 + ("pass" if n_fail == 0 else "FAIL"))
    print("\n".join(lines))
    if out:
        _write_lines(Path(out) / "verify_report.txt", lines)
        _write_lines(Path(out) / "verify_table.tsv", ["class\tn\tnorm\ttn"] + [
            f"{label}\t{n}\t{_fmt(norm)}\t{_fmt(tn)}" for label, n, norm, tn in table])
    # the sample holds every solve, the tau solves included, once per problem
    solves = solves_on(K)
    n_unconverged = sum(not s.converged for s in solves)
    worst = max((s.gap / s.norm for s in solves if s.norm > 0), default=0.0)
    print(f"solver health: {len(solves)} solves, {n_unconverged} unconverged, "
          f"worst relative gap {worst:.3e}, "
          f"{sum(s.ridge_used for s in solves)} with dropped columns")
    if n_unconverged and not allow_unconverged:
        print(f"non-convergence in {n_unconverged} of {len(solves)} solves", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK if n_fail == 0 else EXIT_ASSERT


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON run config")
    common.add_argument("--n-max", type=int, default=None)
    common.add_argument("--resolution", type=int, default=None)
    common.add_argument("--relaxed", action="store_true", default=None)
    common.add_argument("--out", default=None, help="output directory for report files")
    common.add_argument("--allow-unconverged", action="store_true")

    p = argparse.ArgumentParser(prog="curvecheb",
                                description="Chebyshev constants and extremal "
                                            "functions on plane algebraic curves")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("curve-info", parents=[common])
    sub.add_parser("sample", parents=[common])
    c = sub.add_parser("cheb", parents=[common])
    c.add_argument("--class", dest="class_text", required=True)
    c.add_argument("--n-min", type=int, default=1)
    sub.add_parser("robin", parents=[common])
    t = sub.add_parser("tfd", parents=[common])
    t.add_argument("--basis", choices=[BASIS_S, BASIS_C], default=BASIS_S)
    e = sub.add_parser("extremal", parents=[common])
    e.add_argument("--n", type=int, default=None)
    v = sub.add_parser("verify", parents=[common])
    v.add_argument("--tolerance-scale", type=float, default=1.0)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = {"n_max": args.n_max, "resolution": args.resolution, "relaxed": args.relaxed}
    setter, getter = minimax.blas_threads() or (lambda count: None, lambda: None)
    before = getter()
    setter(1)       # the bits of every solve follow OpenBLAS's thread count
    try:
        # the flags given replace the config keys of the same name
        doc = _load(args.config) | {k: v for k, v in flags.items() if v is not None}
        cfg = RunConfig.from_document(doc, Path(args.config).parent)
        out = cfg.out_dir if args.out is None else args.out
        if out:
            Path(out).mkdir(parents=True, exist_ok=True)

        if args.command == "curve-info":
            return cmd_curve_info(cfg, out)
        if args.command == "sample":
            return cmd_sample(cfg, out)
        if args.command == "cheb":
            return cmd_cheb(cfg, out, args.class_text, args.n_min, args.allow_unconverged)
        if args.command == "robin":
            return cmd_robin(cfg, out)
        if args.command == "tfd":
            return cmd_tfd(cfg, out, args.basis)
        if args.command == "extremal":
            return cmd_extremal(cfg, out, args.n)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.tolerance_scale, args.allow_unconverged)
        raise ConfigError(f"unknown command {args.command!r}")
    except SampleTooSmall as exc:   # a degree beyond what the sample carries
        n = f"--n {args.n}" if getattr(args, "n", None) is not None else f"n_max {cfg.n_max}"
        if cfg.set_spec["kind"] == "pointcloud":
            where, fix = "the point cloud", "lower it"
        else:
            where = f"the sample at resolution {cfg.set_spec['resolution'] or cfg.resolution}"
            fix = "lower it or raise resolution"
        print(f"error: {n} is too high for {where} ({exc}): {fix}", file=sys.stderr)
        return EXIT_INVALID
    except (np.linalg.LinAlgError, RuntimeError, OverflowError) as exc:  # not invalid input
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (ConfigError, CurveError, SamplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        setter(before)


if __name__ == "__main__":
    sys.exit(main())
