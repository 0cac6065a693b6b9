import numpy as np
import pytest

from curvecheb import AbsV1V2Torus, BidiskTrace, Z1Disk, Z2Interval, chebyshev, polyring, sample
from curvecheb.gallery import coordinate_hyperbola, hyperbola, random_valid_curve

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def hyp():
    return hyperbola()


@pytest.fixture(scope="session")
def aeps():
    return coordinate_hyperbola(0.25)


@pytest.fixture(scope="session")
def cubic7():
    return random_valid_curve(3, seed=7)


@pytest.fixture(scope="session")
def torus_set(hyp):
    return sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=1024))


@pytest.fixture(scope="session")
def torus_set_small(hyp):
    return sample(hyp, AbsV1V2Torus(0.5, 0.5, resolution=256))


@pytest.fixture(scope="session")
def interval_set(hyp):
    return sample(hyp, Z2Interval(-1.0, 1.0, resolution=1024))


@pytest.fixture(scope="session")
def disk1_set(hyp):
    return sample(hyp, Z1Disk(1.0, resolution=1024))


@pytest.fixture(scope="session")
def disk07_set(hyp):
    return sample(hyp, Z1Disk(0.7, resolution=1024))


@pytest.fixture(scope="session")
def bidisk_set(aeps):
    return sample(aeps, BidiskTrace(1.0, 1.0, resolution=1024))


@pytest.fixture
def ring_calls(monkeypatch):
    """Names of the polyring.normal_form and pow_mod calls made while the
    test runs, in call order, from polyring or from chebyshev, which
    imports them."""
    calls = []
    for name in ("normal_form", "pow_mod"):
        def counted(*args, _name=name, _real=getattr(polyring, name)):
            calls.append(_name)
            return _real(*args)
        for module in (polyring, chebyshev):
            monkeypatch.setattr(module, name, counted)
    return calls


def inverse_joukowski_oracle(z):
    """Independent copy of the interval closed form for cross-checks."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z * z - 1.0)
    h = z + s
    return np.where(np.abs(h) >= 1.0, h, z - s)
