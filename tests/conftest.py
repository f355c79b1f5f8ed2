import os
from pathlib import Path

import numpy as np
import pytest

from pnedge.grid import build_grid
from pnedge.params import PhysParams
from pnedge.potential import frenkel
from pnedge.profile import analytic_profile, tanh_profile
from pnedge.static import solve_static


@pytest.fixture(scope="session")
def params():
    return PhysParams()


@pytest.fixture(scope="session")
def grid(params):
    return build_grid(200.0 * params.zeta, 4096)


@pytest.fixture(scope="session")
def spec(params):
    return frenkel(params)


@pytest.fixture(scope="session")
def analytic(grid, params):
    return analytic_profile(grid, params)


@pytest.fixture(scope="session")
def solved(grid, params, spec):
    """Static profile solved once from the tanh initial guess."""
    return solve_static(tanh_profile(grid, params), spec).profile


@pytest.fixture(scope="session")
def pnedge_env():
    """``pnedge_env(**extra)``: this process's environment plus ``extra``,
    with the imported package's source directory first on PYTHONPATH, so
    a subprocess imports the same pnedge."""
    import pnedge

    src = str(Path(pnedge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return lambda **extra: {**os.environ, **extra, "PYTHONPATH": path}


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
