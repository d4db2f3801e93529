import os
import shutil
import tempfile

import numpy as np
import pytest

import pcsim
from pcsim import _compiled
from pcsim.graph import random_network  # noqa: F401  (the tests import it from here)


def pytest_configure(config):
    """Build the compiled loops into a cache of this test run, not under $HOME.

    Set in the environment, so child processes (the CLI and benchmark
    runs that the tests start) share it.
    """
    cache = tempfile.mkdtemp(prefix="pcsim-test-cache-")
    os.environ["XDG_CACHE_HOME"] = cache
    config.add_cleanup(lambda: shutil.rmtree(cache, ignore_errors=True))


def two_agent_doubly_stochastic():
    return pcsim.build_network(2, [(1, 2, 0.5), (2, 1, 0.5)])


@pytest.fixture(scope="session")
def ring25():
    return pcsim.ring_lattice(25, 1, "uniform")


@pytest.fixture(scope="session")
def spectral25(ring25):
    return pcsim.spectral_analysis(ring25)


@pytest.fixture(scope="session")
def x0_ring(ring25):
    return np.random.default_rng(2024).uniform(4, 6, ring25.n)


@pytest.fixture
def library():
    """The compiled library of both C loops; skips where no compiler can build it."""
    if _compiled.function("bicc_steps") is None:
        assert shutil.which("cc") is None, "cc is on PATH, yet the library was not built"
        pytest.skip("no C compiler: only the numpy loops can run")
    return _compiled.library
