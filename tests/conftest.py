import os
import socket
import sys

import numpy as np
import pytest

from parsvd import linalg
from parsvd.datagen import BurgersConfig, burgers_matrix
from parsvd.linalg import svd_full

# make `import oracles` work no matter where pytest is invoked from
sys.path.insert(0, os.path.dirname(__file__))

_acceptance_lines = []


@pytest.fixture
def acceptance():
    """Report one acceptance criterion: records a PASS/FAIL line for the
    end-of-run summary, prints it, and asserts."""

    def report(name, ok, detail):
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        _acceptance_lines.append(line)
        print(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def burgers_snapshots():
    """Burgers snapshot matrix at the reduced benchmark size (2048 x 800)."""
    config = BurgersConfig(grid_points=2048, n_snapshots=800)
    return burgers_matrix(config)


@pytest.fixture(scope="session")
def burgers_direct_svd(burgers_snapshots):
    return svd_full(burgers_snapshots)


def free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.fixture
def subprocess_env():
    """Environment for CLI subprocesses; points PYTHONPATH at src so the
    tests do not depend on an installed package."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def fallback_qr(monkeypatch):
    """Hides every LAPACK routine that linalg looks up, so qr_factor and the
    APMOS local step's eigensolve take the routes that a numpy whose
    library exports neither dgeqrt nor dsyevr gets."""
    monkeypatch.setattr(linalg, "_lapack", lambda routine: None)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))
