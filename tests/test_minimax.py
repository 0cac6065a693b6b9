"""The interior-point kernel on fixed (Q, f) problems.

The bank holds the hardest solves the solver sweep and the quartic verify
meet, each posed once from its design: the free columns Q and the leading
residual f.  minimax.solve on (Q, f) must reproduce the solve chebyshev
makes of the same class, bit for bit.
"""

import ast
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvecheb import AbsV1V2Torus, BivarPoly, Z1Disk, chebyshev, cli, minimax, sample
from curvecheb.chebyshev import MQ, MRQ, SolverOptions, Zk, chebyshev_solve, class_parametrize
from curvecheb.gallery import hyperbola, random_valid_curve
from curvecheb.polyring import curve_records

OPTS = SolverOptions(max_iter=300)
TOL = OPTS.tol

# (curve, set, class of the curve, n), with the relative gap and free basis
# size of the solve on a fresh design
BANK = {
    # the sweep's worst: 9.940e-9, m = 39
    "cubic7-MQ(v1)-7": (lambda: random_valid_curve(3, seed=7), Z1Disk(1.2, resolution=1024),
                        lambda c: MQ(c.dirbasis[0]), 7),
    # 2.35e-9 at n = 18 and 8.12e-9 at n = 20, m = 35 and 39
    "hyperbola-MQ(v2)-18": (hyperbola, Z1Disk(1.3, resolution=512),
                            lambda c: MQ(c.dirbasis[1]), 18),
    "hyperbola-MQ(v2)-20": (hyperbola, Z1Disk(1.3, resolution=512),
                            lambda c: MQ(c.dirbasis[1]), 20),
    # 9.891e-9, m = 50 (9.928e-9 in verify, whose design is built in
    # another order)
    "quartic7-MRQ(z1^2,v1)-4": (lambda: random_valid_curve(4, seed=7),
                                Z1Disk(1.2, resolution=1024),
                                lambda c: MRQ(BivarPoly.monomial(2, 0), c.dirbasis[0]), 4),
}


# (iterations, norm, gap) of each bank solve with one BLAS thread: none has
# its optimum at u = 0, so the bound tried at the closed-form start must leave
# every step as it was
BANK_SOLVES = {
    "cubic7-MQ(v1)-7": (14, 12.839184759464494, 1.2761987910892003e-07),
    "hyperbola-MQ(v2)-18": (9, 112.4554070350378, 2.6453808743553964e-07),
    "hyperbola-MQ(v2)-20": (9, 190.04963842542156, 1.5431204758442618e-06),
    "quartic7-MRQ(z1^2,v1)-4": (14, 12.839184674952811, 1.2699388207693119e-07),
}


def pose(curve, spec, K, n):
    """(Q, f) of the class at n: the orthonormal columns of its free basis on
    K and its leading residual, as minimax_solve reads them."""
    _, free = class_parametrize(curve, spec, n)
    Q = chebyshev._design(curve, K, free[0].basis_id).columns(len(free))
    return Q, spec.leading_residual(curve, n, K)[0]


@pytest.fixture(scope="module", params=sorted(BANK))
def bank_problem(request):
    make_curve, desc, make_spec, n = BANK[request.param]
    curve = make_curve()
    K = sample(curve, desc)
    spec = make_spec(curve)
    return request.param, (curve, spec, K, n)


def bank_solves():
    """(iterations, norm, gap) of every bank solve on a fresh design."""
    out = {}
    for name, (make_curve, desc, make_spec, n) in BANK.items():
        curve = make_curve()
        s = minimax.solve(*pose(curve, make_spec(curve), sample(curve, desc), n), OPTS)
        out[name] = (s.iterations, s.norm, s.gap)
    return out


@pytest.fixture(scope="module")
def one_thread_bank_solves():
    """bank_solves() in a child process with one BLAS thread.  The thread
    count sets OpenBLAS's summation order, and with it the trajectory (two
    threads take 15 iterations on the cubic problems instead of 14), so
    BANK_SOLVES is pinned at the one thread CI runs with."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    code = "import json, test_minimax; print(json.dumps(test_minimax.bank_solves()))"
    run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(run.stdout)


class TestBank:
    def test_solve_matches_the_class_solve(self, bank_problem):
        _, (curve, spec, K, n) = bank_problem
        Q, f = pose(curve, spec, K, n)
        s = minimax.solve(Q, f, OPTS)
        ref = chebyshev_solve(curve, spec, K, n, OPTS)
        assert (s.norm, s.gap, s.iterations, s.converged) == \
            (ref.norm, ref.gap, ref.iterations, ref.converged)
        assert s.converged
        assert s.gap <= TOL * s.norm

    def test_posed_problem_is_orthonormal(self, bank_problem):
        # the preconditions solve states: Q^H Q = I and f orthogonal to Q
        Q, f = pose(*bank_problem[1])
        m = Q.shape[1]
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(m)) <= 1e-12 * m
        assert np.linalg.norm(Q.conj().T @ f) <= 1e-12 * np.linalg.norm(f)

    def test_solve_keeps_its_iterations_norm_and_gap(self, bank_problem, one_thread_bank_solves):
        name, _ = bank_problem
        s_iterations, s_norm, s_gap = one_thread_bank_solves[name]
        iterations, norm, gap = BANK_SOLVES[name]
        assert s_iterations == iterations
        assert s_norm == pytest.approx(norm, rel=1e-12)
        assert s_gap == pytest.approx(gap, abs=1e-12 * norm)


Z1, Z2 = BivarPoly.monomial(1, 0), BivarPoly.monomial(0, 1)


@pytest.fixture(scope="module")
def torus512(hyp):
    return sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=512))


class TestClosedFormStart:
    # on the torus of verify these solves have the bare residual as their
    # optimum, which the interior-point method took 8 to 10 iterations to
    # certify
    @pytest.mark.parametrize("spec, n", [(Zk(0), 1), (Zk(1), 3), (MRQ(Z2, Z1), 3)],
                             ids=["Zk(0)-1", "Zk(1)-3", "MRQ(z2,z1)-3"])
    def test_bare_residual_optimum_certified_at_the_start(self, hyp, torus512, spec, n):
        Q, f = pose(hyp, spec, torus512, n)
        assert np.max(np.abs(f)) > 1.01 * np.sqrt(np.mean(np.abs(f) ** 2))
        s = minimax.solve(Q, f, OPTS)
        assert (s.iterations, s.converged) == (1, True)
        assert np.all(s.u == 0)
        assert s.norm == np.max(np.abs(f))
        assert s.gap <= 1e-14 * s.norm

    def test_empty_basis_certified_at_the_start(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=50) + 1j * rng.normal(size=50)
        s = minimax.solve(np.zeros((50, 0), dtype=complex), f, OPTS)
        assert (s.iterations, s.converged, s.u.shape) == (1, True, (0,))
        assert s.norm == np.max(np.abs(f))
        assert s.gap <= 1e-14 * s.norm


def test_kernel_imports_no_curvecheb_module():
    tree = ast.parse(Path(minimax.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.startswith((".", "curvecheb")) for name in imported), imported



# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def child(code, blas_threads="1", timeout=300):
    """The JSON of the last stdout line of `code` run in a child interpreter
    at that many BLAS threads, with this directory importable."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
               MKL_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout.splitlines()[-1])


needs_workers = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="worker processes run on Linux with at least 2 usable CPUs")


def fingerprint(u, norm, lb, iterations, converged):
    """The bits of a solve."""
    return [u.tobytes().hex(), float(norm).hex(), float(lb).hex(), int(iterations),
            bool(converged)]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_dispatch_keeps_the_smallest_problem_here(monkeypatch, count):
    # however many workers there are, this process solves the smallest
    # uncertified problem itself, so a lone problem is never sent
    rng = np.random.default_rng(count)
    starts = []
    for m in range(count, 0, -1):
        Q, _ = np.linalg.qr(rng.normal(size=(200, m)) + 1j * rng.normal(size=(200, m)))
        f = rng.normal(size=200) + 1j * rng.normal(size=200)
        starts.append(minimax.Start(Q, f - Q @ (Q.conj().T @ f), OPTS))
    assert not any(s.converged for s in starts)
    monkeypatch.setattr(minimax, "workers", lambda: 8)
    monkeypatch.setattr(minimax, "_submit", lambda start, workers: ("sent", start))
    jobs = minimax.dispatch(starts)
    assert jobs[-1] is starts[-1]
    assert jobs[:-1] == [("sent", s) for s in starts[:-1]]


def sequence_cases():
    """(name, curve, set, class, parameters) of the sequences compared."""
    hyp, cubic = hyperbola(), random_valid_curve(3, seed=7)
    torus, disk = AbsV1V2Torus(0.5, 0.5, resolution=512), Z1Disk(1.2, resolution=1024)
    return [("torus-Z(0)", hyp, torus, Zk(0), range(1, 11)),
            ("cubic7-Z(0)", cubic, disk, Zk(0), range(1, 13)),
            ("cubic7-Z(1)", cubic, disk, Zk(1), range(1, 12)),
            ("cubic7-M(v1)", cubic, disk, MQ(cubic.dirbasis[0]), range(1, 7))]


def pose_sequence(curve, spec, desc, n_range):
    """The (Q, f) of each parameter on a fresh sample, posed in ascending n as
    a sequence poses them."""
    K = sample(curve, desc)
    return [pose(curve, spec, K, n) for n in n_range]


def worker_solves(one_cpu=False):
    """What a process makes of the bank and of the sequence_cases, in and out
    of the worker pool: the number of workers, whether a pool started, how
    many solves went to it, and the bits of each solve

    - bank: minimax.solve, and a pool worker's solve where there is one;
    - dispatch: every sequence's problems through minimax.dispatch, and
      through minimax.solve;
    - sequence: chebyshev_sequence on a fresh sample, and minimax.solve of
      its problems (with its gap in place of lb).
    one_cpu leaves the process one usable CPU first."""
    if one_cpu:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    out = {"workers": minimax.workers(), "remote": 0, "bank": {}, "dispatch": {},
           "sequence": {}}
    for name, (make_curve, desc, make_spec, n) in BANK.items():
        curve = make_curve()
        Q, f = pose(curve, make_spec(curve), sample(curve, desc), n)
        solves = [minimax.solve(Q, f, OPTS)]
        if out["workers"]:
            solves.append(minimax._submit(minimax.Start(Q, f, OPTS), out["workers"]).result())
        out["bank"][name] = [[fingerprint(*s) for s in solves]]
    for name, curve, desc, spec, n_range in sequence_cases():
        problems = pose_sequence(curve, spec, desc, n_range)
        jobs = minimax.dispatch([minimax.Start(Q, f, OPTS) for Q, f in problems])
        out["remote"] += sum(not isinstance(job, minimax.Start) for job in jobs)
        out["dispatch"][name] = [
            [fingerprint(*job.result()), fingerprint(*minimax.solve(Q, f, OPTS))]
            for job, (Q, f) in zip(jobs, problems)]
        seq = chebyshev.chebyshev_sequence(curve, spec, sample(curve, desc), n_range, OPTS)
        out["sequence"][name] = [
            [fingerprint(s.parts[2], s.norm, s.gap, s.iterations, s.converged),
             fingerprint(r.u, r.norm, r.gap, r.iterations, r.converged)]
            for s, r in zip(seq, (minimax.solve(Q, f, OPTS) for Q, f in problems))]
    out["pool"] = minimax._POOL is not None
    return out


def worker_solves_in_child(blas_threads="1", one_cpu=False):
    return child(f"import json, test_minimax; "
                 f"print(json.dumps(test_minimax.worker_solves({one_cpu})))", blas_threads)


@pytest.fixture(scope="module")
def pooled():
    return worker_solves_in_child()


def assert_pairs_equal(out):
    """Every pair of solves of the same problem has the same bits."""
    for part in ("bank", "dispatch", "sequence"):
        for name, pairs in out[part].items():
            for i, pair in enumerate(pairs):
                assert all(p == pair[0] for p in pair), (part, name, i)


@needs_workers
class TestWorkers:
    def test_pooled_solves_are_bit_identical(self, pooled):
        assert pooled["workers"] == len(os.sched_getaffinity(0)) - 1
        assert pooled["pool"] and pooled["remote"] > 0
        assert all(len(pair) == 2 for [pair] in pooled["bank"].values())
        assert_pairs_equal(pooled)

    def test_one_cpu_starts_no_pool_and_solves_the_same(self, pooled):
        alone = worker_solves_in_child(one_cpu=True)
        assert (alone["workers"], alone["pool"], alone["remote"]) == (0, False, 0)
        assert_pairs_equal(alone)
        # one BLAS thread either way: the same bits as the pooled solves
        assert alone["sequence"] == pooled["sequence"]
        assert alone["dispatch"] == pooled["dispatch"]

    def test_multi_thread_blas_starts_no_pool(self):
        # a BLAS thread count sets the summation order, so these bits are
        # compared with the same process's own solves only
        out = worker_solves_in_child(blas_threads="2")
        assert (out["workers"], out["pool"], out["remote"]) == (0, False, 0)
        assert_pairs_equal(out)


def write_config(path, curve, set_spec, **extra):
    path.write_text(json.dumps({"schema": "curvecheb.config/1",
                                "curve": {"terms": curve_records(curve.defining)},
                                "set": set_spec, **extra}))
    return str(path)


def failing_worker(kind, cubic_config):
    """chebyshev_sequence of Zk(1), n = 1..11, on the cubic of seed 7, with
    _minimax patched before the pool forks to fail in a worker: raise
    LinAlgError ("raise") or die by SIGKILL ("kill").

    Returns the parameters minimax_solve was called at, those whose
    problems went to the workers, the error raised, the parameters of the
    solves on K, and what `curvecheb cheb` on cubic_config exits with.
    Then, the patch gone, whether the sequence solves as minimax.solve."""
    parent, real = os.getpid(), minimax._minimax

    def failing(*args):
        if os.getpid() != parent:
            if kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise np.linalg.LinAlgError("failed in a worker")
        return real(*args)

    calls, remote = [], []
    real_solve, real_submit = chebyshev.minimax_solve, minimax._submit

    def counting(*args, **kwargs):
        calls.append(kwargs["n"])
        return real_solve(*args, **kwargs)

    def submitting(start, workers):
        remote.append(start.Q.shape[1])
        return real_submit(start, workers)

    minimax._minimax, chebyshev.minimax_solve, minimax._submit = failing, counting, submitting
    curve, spec, n_range = random_valid_curve(3, seed=7), Zk(1), range(1, 12)
    desc = Z1Disk(1.2, resolution=1024)
    by_m = {len(class_parametrize(curve, spec, n)[1]): n for n in n_range}
    K = sample(curve, desc)
    out = {"error": None}
    try:
        chebyshev.chebyshev_sequence(curve, spec, K, n_range, OPTS)
    except Exception as exc:
        out["error"] = [type(exc).__name__, isinstance(exc, RuntimeError)]
    out.update(calls=list(calls), remote=sorted(by_m[m] for m in remote),
               solves=[s.n for s in chebyshev.solves_on(K)])
    out["cli"] = cli.main(["cheb", "--config", cubic_config, "--class", "zk:1", "--n-max", "11"])

    # the workers forked with the patch keep it: the next ones fork without
    minimax._minimax, chebyshev.minimax_solve = real, real_solve
    minimax._shutdown()
    seq = chebyshev.chebyshev_sequence(curve, spec, sample(curve, desc), n_range, OPTS)
    out["recovered"] = [
        fingerprint(s.parts[2], s.norm, s.gap, s.iterations, s.converged)
        == fingerprint(r.u, r.norm, r.gap, r.iterations, r.converged)
        for s, r in zip(seq, (minimax.solve(Q, f, OPTS)
                              for Q, f in pose_sequence(curve, spec, desc, n_range)))]
    return out


@pytest.fixture
def cubic_config(tmp_path):
    return write_config(tmp_path / "cubic.json", random_valid_curve(3, seed=7),
                        {"kind": "z1disk", "r": 1.2}, resolution=1024, n_max=12,
                        solver={"max_iter": 300})


def failing_worker_in_child(kind, cubic_config):
    # bounded: a sequence whose worker died must raise, not wait for it
    return child(f"import json, test_minimax; print(json.dumps("
                 f"test_minimax.failing_worker({kind!r}, {cubic_config!r})))", timeout=120)


@needs_workers
class TestWorkerFailures:
    def test_worker_error_is_raised_at_its_parameter(self, cubic_config):
        out = failing_worker_in_child("raise", cubic_config)
        first = out["remote"][0]
        # the solves before it are made and kept, in ascending n
        assert out["error"] == ["LinAlgError", False]
        assert out["calls"] == list(range(1, first + 1))
        assert out["solves"] == list(range(1, first))
        assert out["cli"] == 3
        assert out["recovered"] == [True] * 11

    def test_killed_worker_raises_instead_of_hanging(self, cubic_config):
        out = failing_worker_in_child("kill", cubic_config)
        first = out["remote"][0]
        # BrokenProcessPool is a RuntimeError: the CLI exits 3 on it
        assert out["error"] == ["BrokenProcessPool", True]
        assert out["calls"] == list(range(1, first + 1))
        assert out["solves"] == list(range(1, first))
        assert out["cli"] == 3
        # a new pool serves the sequences after it
        assert out["recovered"] == [True] * 11


@needs_workers
def test_no_worker_outlives_its_interpreter(tmp_path):
    config = write_config(tmp_path / "torus.json", hyperbola(),
                          {"kind": "absv1v2torus", "r1": 0.5, "r2": 0.5},
                          resolution=512, n_max=10)
    out = child("import json, multiprocessing; from curvecheb import cli; "
                f"rc = cli.main(['verify', '--config', {config!r}]); "
                "print(json.dumps({'rc': rc, "
                "'pids': [p.pid for p in multiprocessing.active_children()]}))")
    assert out["rc"] == 0 and out["pids"]
    for pid in out["pids"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
