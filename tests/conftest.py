"""Shared pytest fixtures for the BLTC reproduction test suite."""

import contextlib
import math
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
from repro.core.backends import fused as plan_evaluator

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


#: Values of the plan evaluator's cut that force one path on any plan.
PATH_CUTS = {"stacked": math.inf, "per-group": 0}


def _resolve(patch, backend):
    """Pin ``backend``'s path through ``patch`` if it names one
    (``"stacked"`` / ``"per-group"``) and return the registry name."""
    if backend not in PATH_CUTS:
        return backend
    patch.setattr(plan_evaluator, "STACKED_MAX_MEAN_ROWS", PATH_CUTS[backend])
    return "fused"


@pytest.fixture
def use_backend(monkeypatch):
    """Registry name for a test's backend id.  ``"stacked"`` and
    ``"per-group"`` select the plan evaluator (``"fused"``) and force
    that path for the rest of the test by moving its module-constant
    cut; any other id is a registry name already."""
    return lambda backend: _resolve(monkeypatch, backend)


@contextlib.contextmanager
def _evaluator_path(backend):
    with pytest.MonkeyPatch.context() as patch:
        yield _resolve(patch, backend)


@pytest.fixture(scope="session")
def evaluator_path():
    """``with evaluator_path(id) as name:`` -- :func:`use_backend` for
    fixtures wider than one test: the pin holds inside the block."""
    return _evaluator_path
