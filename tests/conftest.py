import os
import shutil
import tempfile

import numpy as np
import pytest

import pcsim
from pcsim import protocols
from pcsim.graph import random_network  # noqa: F401  (the tests import it from here)


def pytest_configure(config):
    """Build the compiled Monte Carlo loop into a cache of this session, not under $HOME.

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
def reruns(monkeypatch):
    """(lo, hi) of each block that run_bicc reruns through the codec kernels."""
    blocks = []
    exact_block = protocols._exact_block

    def counted(*args):
        blocks.append(args[-2:])
        return exact_block(*args)

    monkeypatch.setattr(protocols, "_exact_block", counted)
    return blocks
