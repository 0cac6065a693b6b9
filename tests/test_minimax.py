"""The interior-point kernel on fixed (Q, f) problems.

The bank holds the hardest solves the solver sweep and the quartic verify
meet, each posed once from its design: the free columns Q and the leading
residual f.  minimax.solve on (Q, f) must reproduce the solve chebyshev
makes of the same class, bit for bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from curvecheb import BivarPoly, Z1Disk, chebyshev, minimax, sample
from curvecheb.chebyshev import MQ, MRQ, SolverOptions, chebyshev_solve, class_parametrize
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
    return curve, spec, K, n


class TestBank:
    def test_solve_matches_the_class_solve(self, bank_problem):
        curve, spec, K, n = bank_problem
        Q, f = pose(curve, spec, K, n)
        s = minimax.solve(Q, f, OPTS)
        ref = chebyshev_solve(curve, spec, K, n, OPTS)
        assert (s.norm, s.gap, s.iterations, s.converged) == \
            (ref.norm, ref.gap, ref.iterations, ref.converged)
        assert s.converged
        assert s.gap <= TOL * s.norm

    def test_posed_problem_is_orthonormal(self, bank_problem):
        # the preconditions solve states: Q^H Q = I and f orthogonal to Q
        Q, f = pose(*bank_problem)
        m = Q.shape[1]
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(m)) <= 1e-12 * m
        assert np.linalg.norm(Q.conj().T @ f) <= 1e-12 * np.linalg.norm(f)


def test_kernel_imports_no_curvecheb_module():
    tree = ast.parse(Path(minimax.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.startswith((".", "curvecheb")) for name in imported), imported

