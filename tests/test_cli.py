import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvecheb import chebyshev, cli
from curvecheb.cli import main
from curvecheb.gallery import random_valid_curve
from curvecheb.polyring import curve_records


HYPERBOLA_TERMS = [{"a": 2, "b": 0, "re": 1.0, "im": 0.0},
                   {"a": 0, "b": 2, "re": -1.0, "im": 0.0},
                   {"a": 0, "b": 0, "re": -1.0, "im": 0.0}]


def write_config(path, **overrides):
    doc = {
        "schema": "curvecheb.config/1",
        "curve": {"terms": HYPERBOLA_TERMS},
        "set": {"kind": "absv1v2torus", "r1": 0.5, "r2": 0.5},
        "resolution": 512,
        "n_max": 10,
        "seed": 0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def torus_config(tmp_path):
    return write_config(tmp_path / "torus.json")


@pytest.fixture
def axes_config(tmp_path):
    return write_config(
        tmp_path / "axes.json",
        curve={"terms": [
            {"a": 1, "b": 1, "re": 1.0, "im": 0.0},
            {"a": 0, "b": 0, "re": -0.25, "im": 0.0},
        ]},
        set={"kind": "bidisktrace", "r1": 1.0, "r2": 1.0},
        relaxed=True,
        directions=[[0.0, 0.0], None],
        n_max=8,
    )


class TestCurveInfo:
    def test_directions_listed(self, capsys, torus_config):
        assert main(["curve-info", "--config", torus_config]) == 0
        out = capsys.readouterr().out
        assert "direction 1\t-1+0j" in out
        assert "direction 2\t1+0j" in out

    def test_axes_need_relaxed_flag(self, capsys, tmp_path, axes_config):
        cfg = json.loads(Path(axes_config).read_text())
        cfg["relaxed"] = False
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(cfg))
        assert main(["curve-info", "--config", str(strict)]) == 2
        assert "horizontal asymptote" in capsys.readouterr().err

    def test_degree_one_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "lin.json",
                           curve={"terms": [{"a": 1, "b": 0, "re": 1.0, "im": 0.0},
                                            {"a": 0, "b": 1, "re": 1.0, "im": 0.0}]})
        assert main(["curve-info", "--config", cfg]) == 2
        assert "degree >= 2" in capsys.readouterr().err

    def test_duplicate_directions_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "dup.json",
                           curve={"terms": [{"a": 2, "b": 0, "re": 1.0, "im": 0.0},
                                            {"a": 1, "b": 1, "re": -2.0, "im": 0.0},
                                            {"a": 0, "b": 2, "re": 1.0, "im": 0.0},
                                            {"a": 0, "b": 0, "re": 1.0, "im": 0.0}]})
        assert main(["curve-info", "--config", cfg]) == 2
        assert "non-distinct directions" in capsys.readouterr().err


class TestCheb:
    def test_torus_table(self, capsys, torus_config):
        assert main(["cheb", "--config", torus_config, "--class", "mv:1",
                     "--n-max", "8"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("class")]
        assert len(rows) == 8
        tns = [float(r.split("\t")[3]) for r in rows]
        assert all(abs(t - 0.5) < 1e-6 for t in tns)

    def test_disk_floor(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "disk.json",
                           set={"kind": "z1disk", "r": 1.0})
        assert main(["cheb", "--config", cfg, "--class", "zk:0", "--n-max", "8"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("class")]
        tns = [float(r.split("\t")[3]) for r in rows]
        assert all(abs(t - 1.0) < 1e-6 for t in tns)

    def test_empty_range_invalid(self, capsys, torus_config):
        assert main(["cheb", "--config", torus_config, "--class", "mv:1",
                     "--n-min", "5", "--n-max", "4"]) == 2

    @pytest.mark.parametrize("class_text", ["mv:1", "zk:1", "mz1"])
    def test_interval_classes_converge(self, tmp_path, class_text):
        cfg = write_config(tmp_path / "interval.json",
                           set={"kind": "z2interval", "lo": -1.0, "hi": 1.0})
        assert main(["cheb", "--config", cfg, "--class", class_text]) == 0

    def test_numerical_failure_exits_nonconverged(self, capsys, monkeypatch, torus_config):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(chebyshev, "minimax_solve", failing)
        assert main(["cheb", "--config", torus_config, "--class", "mv:1",
                     "--n-max", "3"]) == 3
        assert "numerical failure: Singular matrix" in capsys.readouterr().err

    def test_class_index_beyond_degree_invalid(self, capsys, torus_config):
        # the hyperbola has d = 2, so zk:K needs K <= 1
        assert main(["cheb", "--config", torus_config, "--class", "zk:5"]) == 2
        assert "outside 0..1 on a degree-2 curve" in capsys.readouterr().err

    def test_every_parameter_failing_reports_the_cause(self, capsys, torus_config):
        rc = main(["cheb", "--config", torus_config, "--class", "mv:1",
                   "--n-min", "40", "--n-max", "41", "--resolution", "64"])
        assert rc == 2
        assert "must not exceed the sample" in capsys.readouterr().err

    def test_n_max_beyond_the_sample_names_n_max_and_resolution(self, capsys, torus_config):
        assert main(["cheb", "--config", torus_config, "--class", "mv:1",
                     "--resolution", "16", "--n-max", "1000"]) == 2
        err = capsys.readouterr().err
        assert "n_max 1000 is too high for the sample at resolution 16" in err
        assert "free basis (17) must not exceed the sample (16)" in err

    def test_unconverged_exit(self, tmp_path):
        # one-iteration cap cannot reach the tolerance on the interval set
        cfg = write_config(tmp_path / "hard.json",
                           set={"kind": "z2interval", "lo": -1.0, "hi": 1.0},
                           solver={"max_iter": 2, "tol": 1e-14})
        assert main(["cheb", "--config", cfg, "--class", "mv:1",
                     "--n-max", "4"]) == 3
        assert main(["cheb", "--config", cfg, "--class", "mv:1",
                     "--n-max", "4", "--allow-unconverged"]) == 0

    def test_table_reports_solver_health(self, capsys, tmp_path, torus_config):
        out = tmp_path / "out"
        assert main(["cheb", "--config", torus_config, "--class", "zk:1",
                     "--n-max", "4", "--out", str(out)]) == 0
        lines = (out / "cheb_table.tsv").read_text().splitlines()
        assert lines == capsys.readouterr().out.splitlines()
        assert lines[0].split("\t") == ["class", "n", "norm", "tn", "iters", "gap", "converged",
                                        "dropped"]
        assert len(lines) == 5
        for row in lines[1:]:
            _, _, norm, _, iters, gap, converged, dropped = row.split("\t")
            assert int(iters) >= 1
            assert 0.0 <= float(gap) <= 1e-8 * float(norm)
            assert converged == "true"
            assert dropped == "false"
        # z1^2 = 2 on the four points (+-sqrt 2, +-1): the free prefix of
        # z1 z2 drops a column
        cloud = tmp_path / "cloud.txt"
        cloud.write_text("".join(f"{a * 2 ** 0.5} 0 {b} 0\n" for a in (1, -1) for b in (1, -1)))
        cfg = write_config(tmp_path / "cloud.json", set={"kind": "pointcloud", "path": str(cloud)})
        assert main(["cheb", "--config", cfg, "--class", "zk:1", "--n-max", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[7] == "true"

    def test_table_marks_unconverged_solves(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "hard.json",
                           set={"kind": "z2interval", "lo": -1.0, "hi": 1.0},
                           solver={"max_iter": 2, "tol": 1e-14})
        assert main(["cheb", "--config", cfg, "--class", "mv:1",
                     "--n-max", "4", "--allow-unconverged"]) == 0
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4
        # every unconverged solve stopped at the cap
        assert all(r[4] == "2" for r in rows if r[6] == "false")
        assert any(r[6] == "false" for r in rows)
        # n = 1 has the bare residual as its optimum, which the signs of its
        # extremal points certify at the closed-form start
        assert (rows[0][1], rows[0][4], rows[0][5], rows[0][6]) == ("1", "1", "0", "true")

    @pytest.mark.parametrize("solver, message", [
        ({"tol": float("inf")}, "tol must be positive and finite"),
        ({"tol": float("nan")}, "tol must be positive and finite"),
        ({"max_iter": 1.7}, "max_iter must be a positive integer"),
    ])
    def test_bad_solver_settings_invalid(self, capsys, tmp_path, solver, message):
        cfg = write_config(tmp_path / "solver.json", solver=solver)
        assert main(["cheb", "--config", cfg, "--class", "mv:1", "--n-max", "3"]) == 2
        assert message in capsys.readouterr().err

    def test_integral_max_iter_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "solver.json", solver={"max_iter": 300.0})
        assert main(["cheb", "--config", cfg, "--class", "mv:1", "--n-max", "3"]) == 0

    @pytest.mark.parametrize("key, value", [("resolution", 256.9), ("n_max", 3.7)])
    def test_fractional_count_invalid(self, capsys, tmp_path, key, value):
        cfg = write_config(tmp_path / "count.json", **{key: value})
        assert main(["cheb", "--config", cfg, "--class", "mv:1"]) == 2
        assert f"{key} must be a positive integer, not {value!r}" in capsys.readouterr().err

    def test_fractional_set_resolution_invalid(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "count.json",
                           set={"kind": "absv1v2torus", "r1": 0.5, "r2": 0.5, "resolution": 256.9})
        assert main(["sample", "--config", cfg]) == 2
        assert "resolution must be a positive integer, not 256.9" in capsys.readouterr().err

    def test_integral_counts_accepted(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "count.json", resolution=512.0, n_max=3.0)
        assert main(["cheb", "--config", cfg, "--class", "mv:1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


class TestSampleAndTfd:
    def test_sample_writes_cloud(self, tmp_path, torus_config):
        out = tmp_path / "out"
        assert main(["sample", "--config", torus_config, "--out", str(out)]) == 0
        lines = (out / "sample.txt").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 500

    def test_point_cloud_round_trips_through_config(self, tmp_path, torus_config):
        out = tmp_path / "out"
        main(["sample", "--config", torus_config, "--out", str(out)])
        cfg = write_config(tmp_path / "cloud.json",
                           set={"kind": "pointcloud", "path": str(out / "sample.txt")})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0

    def test_point_cloud_path_is_relative_to_the_config(self, capsys, tmp_path, monkeypatch):
        # like curve.path, set.path names a file beside the config, whatever
        # the working directory
        (tmp_path / "cfg").mkdir()
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "cfg" / "cloud.txt").write_text(
            "".join(f"{np.cosh(t):.17g} 0 {np.sinh(t):.17g} 0\n"
                    for t in np.linspace(-1.5, 1.5, 48)))
        cfg = write_config(tmp_path / "cfg" / "cloud.json",
                           set={"kind": "pointcloud", "path": "cloud.txt"})
        for cwd in ("cfg", "elsewhere"):
            monkeypatch.chdir(tmp_path / cwd)
            assert main(["sample", "--config", cfg]) == 0
            assert capsys.readouterr().out.startswith("sampled 48 points")

    def test_tfd_estimate(self, capsys, torus_config):
        assert main(["tfd", "--config", torus_config, "--basis", "S",
                     "--n-max", "24"]) == 0
        out = capsys.readouterr().out
        est = float(out.rsplit("estimate", 1)[1])
        assert abs(est - 0.5) / 0.5 < 0.15

    def test_tfd_estimates_fill_one_row_per_degree_block(self, tmp_path, torus_config):
        # degrees 0..8 close their blocks at steps 1, 3, 5, ..., 17; degree 0
        # has no estimate and prints nan
        out = tmp_path / "out"
        assert main(["tfd", "--config", torus_config, "--basis", "S", "--n-max", "8",
                     "--out", str(out)]) == 0
        rows = [line.split("\t") for line in
                (out / "tfd_S.tsv").read_text().splitlines()[1:-1]]
        filled = [(int(r[0]), int(r[6]), r[7]) for r in rows if r[7]]
        assert [(step, deg) for step, deg, _ in filled] == [(2 * n + 1, n) for n in range(9)]
        assert filled[0][2] == "nan"

    def test_n_max_beyond_the_sample_names_n_max_and_resolution(self, capsys, torus_config):
        assert main(["tfd", "--config", torus_config, "--resolution", "16",
                     "--n-max", "1000"]) == 2
        err = capsys.readouterr().err
        assert "n_max 1000 is too high for the sample at resolution 16" in err
        assert "need 2001 for degree 1000" in err

    @pytest.mark.parametrize("command", ["sample", "cheb --class mv:1", "robin", "verify"])
    def test_non_finite_cloud_point_exits_invalid(self, capsys, tmp_path, command):
        # the 64-point cloud on |z1| = 1.3 with one z1 made nan: sample used
        # to print "max residual nan", cheb to exit 3 with nan norms, robin
        # to say "p must be nonzero" and verify to die with a traceback
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "disk.json", resolution=64, n_max=6,
                           set={"kind": "z1disk", "r": 1.3})
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sample.txt").read_text().splitlines()
        assert len(rows) == 65
        cols = rows[5].split()
        rows[5] = " ".join(["nan"] + cols[1:])
        (tmp_path / "cloud.txt").write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path / "cloud.json", n_max=6,
                           set={"kind": "pointcloud", "path": "cloud.txt"})
        capsys.readouterr()
        assert main([*command.split(), "--config", cfg]) == 2
        assert "non-finite point" in capsys.readouterr().err

    def test_degree_beyond_a_point_cloud_names_the_cloud(self, capsys, tmp_path):
        (tmp_path / "cloud.txt").write_text(
            "".join(f"{np.cosh(t):.17g} 0 {np.sinh(t):.17g} 0\n"
                    for t in np.linspace(-1.5, 1.5, 8)))
        cfg = write_config(tmp_path / "cloud.json", set={"kind": "pointcloud", "path": "cloud.txt"})
        assert main(["tfd", "--config", cfg, "--n-max", "4"]) == 2
        err = capsys.readouterr().err
        assert "n_max 4 is too high for the point cloud" in err and "resolution" not in err

    def test_huge_disk_radius_is_numerical_failure(self, capsys, tmp_path):
        # a valid radius whose lifting tolerance overflows a float
        cfg = write_config(tmp_path / "disk.json", set={"kind": "z1disk", "r": 1e300})
        assert main(["sample", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err

    def test_runtime_error_exits_nonconverged(self, capsys, monkeypatch, torus_config):
        def failing(*args, **kwargs):
            raise RuntimeError("degenerate candidate set")

        monkeypatch.setattr(cli, "transfinite_diameter", failing)
        assert main(["tfd", "--config", torus_config, "--n-max", "4"]) == 3
        assert "numerical failure: degenerate candidate set" in capsys.readouterr().err


@pytest.mark.parametrize("x, want", [
    (float("nan"), "nan"), (-float("nan"), "nan"), (np.float64("nan"), "nan"),
    (float("inf"), "inf"), (-np.inf, "-inf"), (np.float64(-np.inf), "-inf"),
    (np.float64(0.1), "0.1"), (1 / 3, "0.333333333333"), (None, "nan"),
    (complex(1.5, -2), "1.5-2j"), (3, "3"), ("x", "x")])
def test_fmt(x, want):
    assert cli._fmt(x) == want


class TestRobinCmd:
    def test_axes_trace(self, capsys, axes_config):
        assert main(["robin", "--config", axes_config]) == 0
        out = capsys.readouterr().out
        assert "strictly increasing\tfalse" in out
        rows = [l for l in out.splitlines() if l.split("\t")[0] not in
                ("direction", "ordering", "strictly increasing")]
        assert all(abs(float(r.split("\t")[1])) < 1e-9 for r in rows)


class TestVerify:
    @staticmethod
    def _health(out):
        """(solves, unconverged, worst relative gap, dropped) from the health line."""
        m = re.fullmatch(r"solver health: (\d+) solves, (\d+) unconverged, worst relative "
                         r"gap (\S+), (\d+) with dropped columns", out.splitlines()[-1])
        return int(m[1]), int(m[2]), float(m[3]), int(m[4])

    def test_symmetric_torus_passes(self, capsys, tmp_path, torus_config):
        out = tmp_path / "rep"
        assert main(["verify", "--config", torus_config, "--out", str(out)]) == 0
        report = (out / "verify_report.txt").read_text()
        assert "FAIL" not in report
        solves, unconverged, worst, _ = self._health(capsys.readouterr().out)
        # 80 distinct problems, each solved once whichever class poses it
        assert solves == 80 and unconverged == 0 and worst <= 1e-8

    # the torus config's rows and table keys (class, n), in the order verify
    # writes them; perfbench's verify-torus check finds rows by name
    TORUS_ROWS = (
        [f"S-ordering constant {k} matches direction constant rank {k + 1}" for k in (0, 1)]
        + ["first S-ordering constant equals the largest directional constant",
           "S-ordering constants non-increasing at 1"]
        + [f"v{k}-prefactor z1-power class matches direction constant {k}" for k in (1, 2)]
        + [f"monomial prefactor z1^0 z2^0 keeps direction constant {k}" for k in (1, 2)]
        + [f"prefactor scale drops out at n={n}" for n in range(1, 7)]
        + [f"base scale multiplies tn by |lambda| at n={n}" for n in range(1, 7)]
        + ["product prefactor does not increase the constant",
           "prefactor absorbed into the base keeps the constant"]
        + [f"sum prefactor bound at n={n}" for n in range(1, 7)]
        + ["diameter agrees between orderings", "diameter matches directional product (S)",
           "diameter matches directional product (C)"]
        + [f"determinant ratio bound at index {i}" for i in range(1, 18)]
        + [f"robin {row} for direction {k}" for k in (1, 2)
           for row in ("constant finite", "cross-check")]
        + ["families max matches the closed form"])
    TORUS_TABLE = [(label, n) for label, top in (
        ("M(v1)", 10), ("M(v2)", 10), ("Z(0)", 10), ("Z(1)", 9),
        ("M_0.5*z1-0.5*z2(1*z1)", 9), ("M_0.5*z1+0.5*z2(1*z1)", 9),
        ("M_1(0.5*z1-0.5*z2)", 10), ("M_1(0.5*z1+0.5*z2)", 10),
        ("M_1*z2(1*z1)", 6), ("M_3*z2(1*z1)", 6), ("M_1(1*z1)", 6), ("M_1((0+2i)*z1)", 6),
        ("M_1*z2(1*z1)", 9), ("M_1*z1z2(1*z1)", 8), ("M_1*z1z2(1*z1)", 8),
        ("M_1*z1(1*z1)", 6), ("M_1*z1+1*z2(1*z1)", 6)) for n in range(1, top + 1)]

    def test_torus_rows_and_table_keep_their_order(self, tmp_path, torus_config):
        out = tmp_path / "rep"
        assert main(["verify", "--config", torus_config, "--out", str(out)]) == 0
        report = (out / "verify_report.txt").read_text().splitlines()
        assert len(self.TORUS_ROWS) == 53
        assert [line.split("\t")[0] for line in report[1:-1]] == self.TORUS_ROWS
        table = [line.split("\t") for line in (out / "verify_table.tsv").read_text().splitlines()]
        assert [(label, int(n)) for label, n, _, _ in table[1:]] == self.TORUS_TABLE

    def test_asymmetric_torus_passes(self, capsys, tmp_path):
        # |v1| = 1, |v2| = 1/4: T = (1, 1/4), the one example whose
        # directional constants are untied, so the strict ordering is run
        cfg = write_config(tmp_path / "asym.json",
                           set={"kind": "absv1v2torus", "r1": 1.0, "r2": 0.25})
        out = tmp_path / "rep"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        total = (out / "verify_report.txt").read_text().splitlines()[-1]
        assert total.split("\t")[:4] == ["total", "53", "failed", "0"]
        assert self._health(capsys.readouterr().out)[1] == 0
        assert main(["robin", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "strictly increasing\ttrue" in lines
        rhos = [float(l.split("\t")[1]) for l in lines[1:3]]
        assert rhos == pytest.approx([0.0, np.log(4.0)], abs=1e-8)

    def test_cubic_interval_fails_only_its_truncation_rows(self, capsys, tmp_path):
        # cubic seed 7 on the z2-interval: d = 3 with untied directional
        # constants.  Three rows fail until the constants are extrapolated
        # in the degree (ROADMAP item 3); every solve converges
        cfg = write_config(tmp_path / "cubic_interval.json",
                           curve={"terms": curve_records(random_valid_curve(3, 7).defining)},
                           set={"kind": "z2interval", "lo": -1.0, "hi": 1.0},
                           resolution=1024, n_max=12, solver={"max_iter": 300})
        out = tmp_path / "rep"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = [line.split("\t") for line in
                  (out / "verify_report.txt").read_text().splitlines()]
        assert report[-1][:4] == ["total", "71", "failed", "3"]
        assert [row[0] for row in report[1:-1] if row[-1] == "FAIL"] == [
            "S-ordering constant 0 matches direction constant rank 1",
            "first S-ordering constant equals the largest directional constant",
            "S-ordering constants non-increasing at 2"]
        assert self._health(capsys.readouterr().out)[1] == 0

    def test_zero_tolerance_negative_control(self, tmp_path, torus_config):
        assert main(["verify", "--config", torus_config, "--n-max", "6",
                     "--tolerance-scale", "0"]) == 1

    def test_n_max_beyond_the_sample_names_n_max_and_resolution(self, capsys, torus_config):
        assert main(["verify", "--config", torus_config, "--resolution", "16",
                     "--n-max", "1000"]) == 2
        err = capsys.readouterr().err
        assert "n_max 1000 is too high for the sample at resolution 16" in err

    @pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
    def test_nonsensical_tolerance_scale_is_invalid(self, capsys, torus_config, scale):
        # inf would pass every assertion, nan and negatives fail them all
        assert main(["verify", "--config", torus_config, "--n-max", "6",
                     "--tolerance-scale", scale]) == 2
        assert "--tolerance-scale" in capsys.readouterr().err

    def test_unconverged_solve_exits_nonconverged(self, capsys, monkeypatch, tmp_path):
        calls = []
        real = chebyshev.minimax_solve

        def counting(*args, **kwargs):
            calls.append(kwargs["spec"])
            return real(*args, **kwargs)

        monkeypatch.setattr(chebyshev, "minimax_solve", counting)
        cfg = write_config(tmp_path / "iters.json", solver={"max_iter": 2, "tol": 1e-14})
        out = tmp_path / "rep"
        assert main(["verify", "--config", cfg]) == 3
        stdout, err = capsys.readouterr()
        # each problem is solved and counted once, the tau positions included
        solves, unconverged, _, _ = self._health(stdout)
        assert f"non-convergence in {unconverged} of {len(calls)} solves" in err
        assert solves == len(calls) and any(isinstance(spec, chebyshev.Tau) for spec in calls)
        # with the flag the exit code is the assertion verdict, and the
        # health line still shows the unconverged solves
        rc = main(["verify", "--config", cfg, "--allow-unconverged", "--out", str(out)])
        total = (out / "verify_report.txt").read_text().splitlines()[-1]
        assert rc == (0 if total.endswith("pass") else 1)
        assert self._health(capsys.readouterr().out)[1] > 0

    def test_corrupted_curve_exits_invalid(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json",
                           curve={"terms": [{"a": 2, "b": 0, "re": 1.0, "im": 0.0},
                                            {"a": 1, "b": 1, "re": -2.0, "im": 0.0},
                                            {"a": 0, "b": 2, "re": 1.0, "im": 0.0},
                                            {"a": 0, "b": 0, "re": 1.0, "im": 0.0}]})
        assert main(["verify", "--config", cfg]) == 2

    def test_reports_byte_identical(self, tmp_path, torus_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify", "--config", torus_config, "--n-max", "6",
                     "--out", str(out1)]) in (0, 1)
        assert main(["verify", "--config", torus_config, "--n-max", "6",
                     "--out", str(out2)]) in (0, 1)
        a = (out1 / "verify_report.txt").read_bytes()
        b = (out2 / "verify_report.txt").read_bytes()
        assert a == b

    def test_relaxed_suite(self, tmp_path, axes_config):
        assert main(["verify", "--config", axes_config,
                     "--out", str(tmp_path / "rep")]) == 0


class TestConfigErrors:
    def test_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        assert main(["curve-info", "--config", str(path)]) == 2

    def test_bad_set_kind(self, tmp_path):
        cfg = write_config(tmp_path / "b.json", set={"kind": "mystery"})
        assert main(["sample", "--config", cfg]) == 2

    def test_seed_key_ignored_and_flag_gone(self, tmp_path):
        # the pipeline has no randomness: a config's seed is accepted and unused
        cfg = write_config(tmp_path / "s.json", seed=-3)
        assert main(["curve-info", "--config", cfg]) == 0
        with pytest.raises(SystemExit):
            main(["curve-info", "--config", cfg, "--seed", "1"])

    def test_bad_class_spec(self, torus_config):
        assert main(["cheb", "--config", torus_config, "--class", "what:9"]) == 2

    @pytest.mark.parametrize("spec", ["mv:1", "mz1j:0,1", "mtilde:0,1"])
    def test_directional_class_on_relaxed_curve(self, capsys, axes_config, spec):
        assert main(["cheb", "--config", axes_config, "--class", spec]) == 2
        assert "directional classes unavailable on a relaxed curve" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, command, key", [
        ({"directions": [5, 6]}, "robin", "directions"),
        ({"directions": [[1]]}, "robin", "directions"),
        ({"solver": {"tol": [1]}}, "curve-info", "solver tol"),
        ({"curve": {"terms": [{"a": 2, "re": 1.0, "im": 0.0},
                              {"a": 0, "b": 2, "re": -1.0, "im": 0.0},
                              {"a": 0, "b": 0, "re": -1.0, "im": 0.0}]}},
         "curve-info", "curve term b"),
        ({"curve": {"terms": [{"a": 2.5, "b": 0, "re": 1.0, "im": 0.0},
                              {"a": 0, "b": 2, "re": -1.0, "im": 0.0},
                              {"a": 0, "b": 0, "re": -1.0, "im": 0.0}]}},
         "curve-info", "curve term a"),
        ({"set": {"kind": "z1disk", "r": [1.2]}}, "sample", "set r"),
    ], ids=["directions-not-pairs", "direction-too-short", "solver-tol-list",
            "term-without-b", "fractional-power", "set-r-list"])
    def test_malformed_value_is_invalid_input(self, capsys, tmp_path, overrides, command, key):
        cfg = write_config(tmp_path / "m.json", **overrides)
        assert main([command, "--config", cfg]) == 2
        assert key in capsys.readouterr().err


    @pytest.mark.parametrize("command, doc, key", [
        ("sample", {"out_dir": 5}, "out_dir"),
        ("curve-info", {"curve": {"path": 5}}, "curve path"),
        ("curve-info", {"curve": {"path": "missing.txt"}}, "curve path"),
        ("curve-info", [1, 2], "config must be a JSON object"),
        ("sample", {"set": {"kind": "z1disk", "r": float("nan")}}, "set r"),
        ("sample", {"set": {"kind": "z1disk", "r": "1e400"}}, "set r"),
        ("sample", {"set": {"kind": "pointcloud", "path": 5}}, "set path"),
        ("curve-info", {"curve": {"path": "list.json"}}, "curve path"),
        ("curve-info", {"curve": {"path": "no-terms.json"}}, "curve path"),
        ("curve-info", {"curve": {"path": "term-without-b.json"}}, "curve path"),
        ("curve-info", {"relaxed": "false"}, "relaxed"),
        ("cheb --class mv:1", {"n_max": True}, "n_max"),
        ("cheb --class mv:1", {"solver": {"tol": True}}, "solver tol"),
        ("curve-info", {"curve": {"terms": [{"a": 2, "b": 0, "re": float("nan"), "im": 0.0},
                                            {"a": 0, "b": 2, "re": -1.0, "im": 0.0}]}},
         "curve term re"),
        ("curve-info", {"curve": {"terms": [{"a": 2, "b": 0, "re": "1e400", "im": 0.0},
                                            {"a": 0, "b": 2, "re": -1.0, "im": 0.0}]}},
         "curve term re"),
        ("curve-info", {"curve": {"terms": [{"a": 10 ** 400, "b": 0, "re": 1.0, "im": 0.0},
                                            {"a": 0, "b": 2, "re": -1.0, "im": 0.0}]}},
         "curve term a"),
        ("cheb --class mv:1", {"n_max": 1e12}, "n_max"),
        ("sample", {"resolution": 1e12}, "resolution"),
    ], ids=["out-dir-number", "curve-path-number", "curve-file-missing", "document-list",
            "set-r-nan", "set-r-overflow", "point-cloud-path-number", "curve-file-list",
            "curve-file-without-terms", "curve-file-term-without-b", "relaxed-string",
            "n-max-bool", "solver-tol-bool", "coefficient-nan", "coefficient-overflow",
            "power-huge", "n-max-huge", "resolution-huge"])
    def test_malformed_config_exits_invalid_naming_the_key(self, capsys, tmp_path, command,
                                                           doc, key):
        # the curve files the curve-file cases name
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "no-terms.json").write_text(json.dumps({"schema": "curvecheb.curve/1"}))
        (tmp_path / "term-without-b.json").write_text(json.dumps(
            {"schema": "curvecheb.curve/1", "terms": [{"a": 2, "re": 1.0, "im": 0.0}]}))
        cfg = tmp_path / "m.json"
        if isinstance(doc, dict):
            write_config(cfg, **doc)
            # a JSON number too large for a float reads as inf
            cfg.write_text(cfg.read_text().replace('"1e400"', "1e400"))
        else:
            cfg.write_text(json.dumps(doc))
        assert main([*command.split(), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("path, most", [
        (("n_max",), cli.MAX_N),
        (("resolution",), cli.MAX_RESOLUTION),
        (("set", "resolution"), cli.MAX_RESOLUTION),
        (("curve", "terms", 0, "a"), cli.MAX_POWER),
    ])
    def test_counts_have_an_upper_bound(self, tmp_path, path, most):
        # the bound is read, one above it is refused naming the key
        doc = json.loads(Path(write_config(tmp_path / "c.json")).read_text())
        value_at(doc, path[:-1])[path[-1]] = most
        cli.RunConfig.from_document(doc, tmp_path)
        value_at(doc, path[:-1])[path[-1]] = most + 1
        with pytest.raises(cli.ConfigError, match=f"{key_name(path)} must be <= {most}"):
            cli.RunConfig.from_document(doc, tmp_path)


class TestExtremal:
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_degree_invalid(self, capsys, torus_config, n):
        assert main(["extremal", "--config", torus_config, "--n", n]) == 2
        assert "--n must be a positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzzed exit-code contract: a mutated config exits 2 naming the mutated key,
# or runs to 0, 1 or 3; main never raises and nothing prints a traceback.
# ---------------------------------------------------------------------------

FUZZ_COMMANDS = (["curve-info"], ["sample"], ["cheb", "--class", "mz1"])


def fuzz_bases(tmp):
    """Small valid configs on which every fuzzed command exits 0.

    Every key of `cli.KEYS` appears in one of them.  The sets are chosen so
    that a config still valid after one mutation (a key dropped to its
    default, a coefficient made negative) still describes a set on the
    curve: a torus meets the hyperbola only for one product of radii, and a
    point cloud only while the curve is the one in its file.
    """
    (tmp / "hyperbola.json").write_text(
        json.dumps({"schema": "curvecheb.curve/1", "terms": HYPERBOLA_TERMS}))
    (tmp / "cloud.txt").write_text(
        "".join(f"{np.cosh(t):.17g} 0 {np.sinh(t):.17g} 0\n" for t in np.linspace(-1.5, 1.5, 48)))
    schema = "curvecheb.config/1"
    return [
        {"schema": schema, "curve": {"terms": HYPERBOLA_TERMS},
         "set": {"kind": "z2interval", "lo": -1.0, "hi": 1.0}, "resolution": 64, "n_max": 3,
         "solver": {"max_iter": 60, "tol": 1e-8}, "relaxed": True,
         "directions": [[1.0, 0.0], None], "seed": 0},
        {"schema": schema, "curve": {"terms": HYPERBOLA_TERMS},
         "set": {"kind": "z1disk", "r": 1.5, "resolution": 32}, "resolution": 64, "n_max": 2,
         "out_dir": str(tmp / "out")},
        {"schema": schema, "curve": {"path": "hyperbola.json"},
         "set": {"kind": "pointcloud", "path": str(tmp / "cloud.txt")}, "n_max": 2},
    ]


def config_paths(node, path=()):
    """The path of every object member and list item below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from config_paths(child, path + (key,))


def key_name(path):
    """The key a path leads to, as error messages name it: "solver tol",
    "curve term re" for a member of a curve term, "directions" for a label."""
    words = []
    for part in path:
        if isinstance(part, str):
            words.append(part)
        elif words[-1] == "terms":
            words[-1] = "term"
    return " ".join(words)


def json_type(value):
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) \
        else type(value).__name__


# mutation kind -> the values it may put in place of old (None: drop the key)
MUTATIONS = {
    "drop": lambda old: [None],
    "type": lambda old: [v for v in (True, "x", 7, None, [1.0], {"x": 1.0})
                         if json_type(v) != json_type(old)],
    # 10 ** 400 is a JSON integer too large for a float, where a real is read
    "non-finite": lambda old: [float("nan"), float("inf"), float("-inf")]
    + [10 ** 400] * isinstance(old, float),
    "negative": lambda old: [-abs(old) - 1] if json_type(old) == "number" else [],
    "empty": lambda old: ["", [], {}],
    "shape": lambda old: [[old], {"x": old}],
}


def value_at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def mutate(doc, path, kind, value):
    doc = json.loads(json.dumps(doc))
    parent = value_at(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_commands(cfg, doc):
    """(command, exit code, stderr) for every fuzzed command run on doc."""
    cfg.write_text(json.dumps(doc))
    for command in FUZZ_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*command, "--config", str(cfg)])
        yield command, rc, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return tmp, fuzz_bases(tmp)


def test_fuzz_bases_run(fuzz_dir):
    tmp, bases = fuzz_dir
    for base in bases:
        for command, rc, err in run_commands(tmp / "config.json", base):
            assert rc == 0, (base, command, err)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_config_exits_invalid_naming_the_key_or_runs(fuzz_dir, data):
    tmp, bases = fuzz_dir
    # each key as likely as any other, whichever base holds it and how often
    places = [(base, path) for base in bases for path in config_paths(base)]
    name = data.draw(st.sampled_from(sorted({key_name(p) for _, p in places})), label="key")
    base, path = data.draw(st.sampled_from([(b, p) for b, p in places if key_name(p) == name]))
    old = value_at(base, path)
    kind = data.draw(st.sampled_from([k for k in sorted(MUTATIONS) if MUTATIONS[k](old)
                                      and (k != "drop" or isinstance(path[-1], str))]))
    value = data.draw(st.sampled_from(MUTATIONS[kind](old)), label="value")
    # another JSON type (but null, which takes the default), a non-finite
    # number or a value wrapped in a list is invalid for every key but seed
    invalid = path[0] != "seed" and (kind in ("type", "non-finite") and value is not None
                                     or kind == "shape" and isinstance(value, list))
    for command, rc, err in run_commands(tmp / "config.json", mutate(base, path, kind, value)):
        assert "Traceback" not in err, (command, err)
        named = rc == 2 and key_name(path) in err
        assert named if invalid else (named or rc in (0, 1, 3)), (command, rc, err)
