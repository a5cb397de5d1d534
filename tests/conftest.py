"""Shared pytest fixtures for the BLTC reproduction test suite."""

import os
import sys

# Fallback so the suite runs even without an installed package (this
# environment lacks the `wheel` package needed for pip editable installs).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np
import pytest
from hypothesis import settings

from repro import (
    CoulombKernel,
    TreecodeParams,
    YukawaKernel,
    random_cube,
)

# Every property test draws the same examples on every run: the seed is
# derived from the test itself and no example database is read or
# written, so a failure found once cannot replay from `.hypothesis/` and
# make one checkout red while a fresh clone is green.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def coulomb():
    return CoulombKernel()


@pytest.fixture(scope="session")
def yukawa():
    return YukawaKernel(kappa=0.5)


@pytest.fixture(scope="session")
def small_cube():
    """1000 uniform particles in [-1,1]^3 -- the paper's distribution."""
    return random_cube(1000, seed=42)


@pytest.fixture(scope="session")
def tiny_cube():
    return random_cube(200, seed=7)


@pytest.fixture(scope="session")
def fast_params():
    """Cheap parameters for integration tests."""
    return TreecodeParams(
        theta=0.7, degree=4, max_leaf_size=100, max_batch_size=100
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123)
