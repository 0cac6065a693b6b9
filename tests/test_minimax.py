"""The interior-point kernel on fixed (Q, f) problems.

The bank holds the hardest solves the solver sweep and the quartic verify
meet, each posed once from its design: the free columns Q and the leading
residual f.  minimax.solve on (Q, f) must reproduce the solve chebyshev
makes of the same class, bit for bit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvecheb import AbsV1V2Torus, BivarPoly, Z1Disk, chebyshev, minimax, sample
from curvecheb.chebyshev import MQ, MRQ, SolverOptions, Zk, chebyshev_solve, class_parametrize
from curvecheb.gallery import hyperbola, random_valid_curve

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

