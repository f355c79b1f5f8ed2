"""Profile representation: background split, tails, disregistry."""

import warnings

import numpy as np
import pytest

from pnedge.errors import TailWarning
from pnedge.grid import build_grid
from pnedge.params import PhysParams
from pnedge.profile import TAIL_TOL, Profile, analytic_profile, background, tanh_profile


def test_analytic_profile_far_field(analytic, params, grid):
    u1 = analytic.u1
    budget = params.b * (TAIL_TOL + analytic.zeta_bg / grid.L / np.pi)
    assert abs(u1[0] - params.b / 4.0) <= budget
    assert abs(u1[-1] + params.b / 4.0) <= budget


def test_tanh_profile_tails_within_tolerance(grid, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error", TailWarning)
        p = tanh_profile(grid, params)
    assert max(abs(p.v[0]), abs(p.v[-1])) <= TAIL_TOL * params.b


def test_tail_warning_fires(grid, params):
    v = np.full(grid.N, 0.01 * params.b)
    with pytest.warns(TailWarning):
        Profile(grid=grid, params=params, zeta_bg=params.zeta, v=v)


def test_disregistry_limits(analytic, params):
    # shear displacement jump across the slip plane
    phi = 2.0 * analytic.u1 + params.b / 2.0
    # phi interpolates from b (far left) to 0 (far right)
    assert phi[0] == pytest.approx(params.b, abs=5e-3 * params.b)
    assert phi[-1] == pytest.approx(0.0, abs=5e-3 * params.b)
    z = params.zeta
    j = analytic.grid.N // 2
    assert phi[j] == pytest.approx(params.b / 2.0, abs=1e-12)


def test_profile_validation():
    prm = PhysParams()
    g = build_grid(10.0, 64)
    with pytest.raises(ValueError):
        Profile(grid=g, params=prm, zeta_bg=-1.0)
    with pytest.raises(ValueError):
        Profile(grid=g, params=prm, zeta_bg=1.0, v=np.zeros(32))


@pytest.mark.parametrize("key", ["zeta_bg", "x0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_profile_rejects_nonfinite_background(params, key, value):
    # a NaN passes every ordered guard of the solve, and zeta_bg = inf is the
    # flat u1 = 0, which solve_static would return as converged
    g = build_grid(200.0 * params.zeta, 512)
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        Profile(grid=g, params=params, **{"zeta_bg": params.zeta, key: value})


def test_background_shift(params):
    g = build_grid(50.0, 256)
    p = Profile(grid=g, params=params, zeta_bg=params.zeta, x0=2.5)
    expected = background(g.x - 0.0, params.b, params.zeta, 2.5)
    np.testing.assert_allclose(p.u1, expected)
    assert p.background_at(2.5) == pytest.approx(0.0, abs=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(nu=0.5)
    with pytest.raises(ValueError):
        PhysParams(nu=0.0)
    with pytest.raises(ValueError):
        PhysParams(G=-1.0)
    p = PhysParams(nu=0.25, d=1.0)
    assert p.zeta == pytest.approx(1.0 / 1.5)
    assert p.c0 == pytest.approx(8.0 / 3.0)


@pytest.mark.parametrize("key, value", [
    ("G", float("nan")),
    ("b", float("inf")),
    ("d", float("nan")),
])
def test_params_reject_nonfinite(key, value):
    with pytest.raises(ValueError, match=f" {key} must be positive and finite"):
        PhysParams(**{key: value})


def test_normalized_preset():
    from pnedge.params import NORMALIZED_PARAMS

    assert NORMALIZED_PARAMS.G / (1 - NORMALIZED_PARAMS.nu) == pytest.approx(1.0)
    assert NORMALIZED_PARAMS.c0 == pytest.approx(2.0)
