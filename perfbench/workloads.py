"""The three benchmark workloads: inputs, one job, and its output check.

Every workload runs as a closed loop, one job at a time from one process.
A job calls curvecheb only through its public functions, looked up on the
module at call time so that the traced run sees them.  Each workload
writes its generated inputs into a run config before timing starts, so
the program receives nothing but generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from curvecheb import chebyshev, cli, gallery, polyring, sets

CONFIG_SCHEMA = "curvecheb.config/1"
CUBIC_RADIUS = 1.2          # closed form: T = diameter = r on the z1-disk trace
TORUS_RADIUS = 0.5          # closed form: T = diameter = 1/2 on the torus

HYPERBOLA_TERMS = [
    {"a": 2, "b": 0, "re": 1.0, "im": 0.0},
    {"a": 0, "b": 2, "re": -1.0, "im": 0.0},
    {"a": 0, "b": 0, "re": -1.0, "im": 0.0},
]


def rel_err(x, ref):
    return abs(x - ref) / abs(ref)


def cubic_terms(seed):
    """Coefficient records of the seeded valid cubic."""
    return polyring.curve_records(gallery.random_valid_curve(3, seed).defining)


def full_cubic_terms(seed):
    """The seeded cubic's leading part plus every lower-order monomial.

    random_valid_curve keeps each lower-order term with probability 0.6,
    and the cost of normal forms grows with the terms kept: over seeds
    201-210 one tfd job took from 1.25 s (constant term only) to 3.5 s.
    Keeping all six terms, with the generator's coefficient scale and its
    shifted constant, makes the cost the same for every seed.
    """
    lead = polyring.leading_part(gallery.random_valid_curve(3, seed).defining)
    rng = np.random.default_rng([3, seed])
    lower = {(n - b, b): 0.3 * complex(rng.normal(), rng.normal())
             for n in range(3) for b in range(n + 1)}
    lower[(0, 0)] += 1.0
    curve = polyring.curve_new(lead + polyring.BivarPoly(lower))
    return polyring.curve_records(curve.defining)


def write_config(path, terms, set_spec, resolution, n_max, **extra):
    doc = {"schema": CONFIG_SCHEMA, "curve": {"terms": terms}, "set": set_spec,
           "resolution": resolution, "n_max": n_max, **extra}
    path.write_text(json.dumps(doc))
    return path


def run_cli(argv):
    """cli.main with its printing captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


class VerifyTorus:
    """`curvecheb verify` on z1^2 - z2^2 = 1 with the |v1| = |v2| = 1/2 torus."""

    name = "verify-torus"
    ASSERTIONS = 53     # assertions the verify report holds for this config

    def __init__(self, workdir, seed):
        # the hyperbola and the torus are fixed: this workload has no seed
        self.config = write_config(
            workdir / "config.json", HYPERBOLA_TERMS,
            {"kind": "absv1v2torus", "r1": TORUS_RADIUS, "r2": TORUS_RADIUS},
            resolution=512, n_max=10)
        self.out = workdir / "out"
        self.first = None

    def run(self):
        rc, err = run_cli(["verify", "--config", str(self.config), "--out", str(self.out)])
        report = (self.out / "verify_report.txt").read_bytes() if rc == 0 else b""
        table = (self.out / "verify_table.tsv").read_bytes() if rc == 0 else b""
        return {"rc": rc, "stderr": err, "report": report, "table": table}

    @staticmethod
    def _rows(report):
        rows = {}
        for line in report.decode().splitlines()[1:-1]:
            name, _, lhs, rhs, _, verdict = line.split("\t")
            rows[name] = (float(lhs), float(rhs), verdict)
        return rows

    @staticmethod
    def _constants(rows):
        """(ordered and directional constants, S and C diameters)."""
        consts = []
        for name, (lhs, rhs, _) in rows.items():
            if name.startswith("S-ordering constant") and "matches direction" in name:
                consts += [lhs, rhs]
        lhs, rhs, _ = rows["diameter agrees between orderings"]
        return consts, [lhs, rhs]

    def check(self, out):
        if out["rc"] != 0:
            return [f"verify exited {out['rc']}: {out['stderr'].strip()[-300:]}"]
        problems = []
        total = out["report"].decode().splitlines()[-1].split("\t")
        if total[1:4] != [str(self.ASSERTIONS), "failed", "0"]:
            problems.append(f"report total line {total!r}, expected "
                            f"{self.ASSERTIONS} assertions and 0 failed")
        if self.first is None:
            self.first = (out["report"], out["table"])
        elif (out["report"], out["table"]) != self.first:
            problems.append("report or table bytes differ from the first job")
        consts, diams = self._constants(self._rows(out["report"]))
        if len(consts) != 4:
            problems.append(f"found {len(consts)} constants in the report, expected 4")
        for what, vals, band in (("constant", consts, 0.10), ("diameter", diams, 0.15)):
            problems += [f"{what} {v:.6g} vs the closed form {TORUS_RADIUS}"
                         for v in vals if rel_err(v, TORUS_RADIUS) >= band]
        return problems

    def quality(self, out):
        rows = self._rows(out["report"])
        consts, diams = self._constants(rows)
        return {
            "const_rel_err": max(rel_err(c, TORUS_RADIUS) for c in consts + diams),
            "extremal_gap": rows["families max matches the closed form"][0],
        }


class OrderedCubic:
    """Criterion 4 through the chebyshev API on the seeded cubic."""

    name = "ordered-cubic"
    MAX_DEG = 12
    MAX_ITER = 300

    def __init__(self, workdir, seed):
        self.terms = cubic_terms(seed)
        self.config = write_config(
            workdir / "config.json", self.terms,
            {"kind": "z1disk", "r": CUBIC_RADIUS}, resolution=1024, n_max=self.MAX_DEG,
            solver={"max_iter": self.MAX_ITER})

    def run(self):
        curve = polyring.curve_new(polyring.poly_from_records(self.terms))
        K = sets.sample(curve, sets.Z1Disk(CUBIC_RADIUS, resolution=1024))
        opts = chebyshev.SolverOptions(max_iter=self.MAX_ITER)
        d = curve.d
        ests = []
        for k in range(1, d + 1):
            seq = chebyshev.chebyshev_sequence(
                curve, chebyshev.MQ(curve.dirbasis[k - 1]), K,
                range(1, max(3, self.MAX_DEG // (d - 1)) + 1), opts)
            ests.append(chebyshev.constant_estimate(seq))
        order = chebyshev.descending_direction_order(curve, ests)
        directional = [ests[i].estimate for i in order]
        ordered = []
        for k in range(d):
            seq = chebyshev.chebyshev_sequence(curve, chebyshev.Zk(k), K,
                                               range(1, self.MAX_DEG - k + 1), opts)
            ordered.append(chebyshev.constant_estimate(seq).estimate)
        return {"directional": directional, "ordered": ordered}

    def check(self, out):
        t, z = out["directional"], out["ordered"]
        problems = []
        for k, (tk, zk) in enumerate(zip(t, z)):
            if rel_err(zk, tk) >= 0.10:
                problems.append(f"ordered constant {k} = {zk:.6g} vs directional {tk:.6g}")
            if rel_err(tk, CUBIC_RADIUS) >= 0.10:
                problems.append(f"directional constant {k} = {tk:.6g} vs {CUBIC_RADIUS}")
        for k in range(1, len(z)):
            if not z[k - 1] >= z[k] * (1 - 0.02):
                problems.append(f"ordered constants increase at {k}: {z[k - 1]:.6g} < {z[k]:.6g}")
        return problems

    def quality(self, out):
        consts = out["directional"] + out["ordered"]
        return {"const_rel_err": max(rel_err(c, CUBIC_RADIUS) for c in consts)}


class DiameterCubic:
    """`curvecheb tfd` in the C and then the S basis on the full seeded cubic."""

    name = "diameter-cubic"

    def __init__(self, workdir, seed):
        self.config = write_config(
            workdir / "config.json", full_cubic_terms(seed),
            {"kind": "z1disk", "r": CUBIC_RADIUS}, resolution=4096, n_max=40)
        self.out = workdir / "out"

    def run(self):
        out = {}
        for basis in ("C", "S"):
            rc, err = run_cli(["tfd", "--config", str(self.config), "--basis", basis,
                               "--out", str(self.out)])
            est = math.nan
            if rc == 0:
                last = (self.out / f"tfd_{basis}.tsv").read_text().splitlines()[-1]
                est = float(last.split("\t")[1])
            out[basis] = {"rc": rc, "stderr": err, "diameter": est}
        return out

    def check(self, out):
        problems = [f"tfd --basis {b} exited {r['rc']}: {r['stderr'].strip()[-300:]}"
                    for b, r in out.items() if r["rc"] != 0]
        if problems:
            return problems
        dS, dC = out["S"]["diameter"], out["C"]["diameter"]
        if rel_err(dS, dC) >= 0.10:
            problems.append(f"S diameter {dS:.6g} vs C diameter {dC:.6g}")
        for b, v in (("S", dS), ("C", dC)):
            if rel_err(v, CUBIC_RADIUS) >= 0.15:
                problems.append(f"{b} diameter {v:.6g} vs {CUBIC_RADIUS}")
        return problems

    def quality(self, out):
        return {"const_rel_err": max(rel_err(r["diameter"], CUBIC_RADIUS)
                                     for r in out.values())}


WORKLOADS = {w.name: w for w in (VerifyTorus, OrderedCubic, DiameterCubic)}
