"""Elastic extension, stresses and traction map."""

import numpy as np
import pytest

from pnedge.extension import (
    PARITY,
    YLevels,
    _analytic_displacement,
    _analytic_stress,
    analytic_fields,
    dtn_traction,
    extend_to_half_planes,
    extend_trace_displacement,
    extend_trace_strains,
    strains_to_stresses,
    stress_field,
    trace_of_extension,
)
from pnedge.grid import build_grid
from pnedge.potential import eval_potential
from pnedge.profile import Profile, analytic_profile, background


# ---------------------------------------------------------------------------
# closed-form fields
# ---------------------------------------------------------------------------

def test_analytic_displacement_point(params):
    z = params.zeta
    out = analytic_fields(params, [(z, z)])
    # (1/2pi)(-arctan(1/2) + 1/7.5)
    expected = (1 / (2 * np.pi)) * (-np.arctan(0.5) + 1.0 / 7.5)
    assert out["u1"][0] == pytest.approx(expected, abs=1e-15)
    assert out["u1"][0] == pytest.approx(-0.05257114974629726, abs=1e-14)


def test_analytic_u1_odd_in_x(params):
    ys = [0.2, 1.0, -0.7]
    for y in ys:
        out = analytic_fields(params, [(0.0, y)])
        assert abs(out["u1"][0]) < 1e-15


def test_analytic_trace_consistency(params):
    xs = np.linspace(-3, 3, 7)
    out = analytic_fields(params, [(x, 0.0) for x in xs], side=+1)
    np.testing.assert_allclose(
        out["u1"], background(xs, params.b, params.zeta), atol=1e-15)


def test_analytic_stress_values(params):
    z = params.zeta
    out = analytic_fields(params, [(0.0, z)])
    assert out["s22"][0] == pytest.approx(-1.0 / (4 * np.pi), rel=1e-12)
    on_plane = analytic_fields(params, [(z, 0.0)], side=+1)
    assert on_plane["s12"][0] == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)
    assert on_plane["s22"][0] == pytest.approx(0.0, abs=1e-15)


def test_analytic_fields_requires_side_on_plane(params):
    with pytest.raises(ValueError):
        analytic_fields(params, [(1.0, 0.0)])


def test_analytic_mirror_symmetry(params):
    pts_up = [(0.5, 0.8), (-1.2, 2.0)]
    up = analytic_fields(params, pts_up)
    down = analytic_fields(params, [(x, -y) for x, y in pts_up])
    np.testing.assert_allclose(down["u1"], -up["u1"], rtol=1e-14)
    np.testing.assert_allclose(down["u2"], up["u2"], rtol=1e-14)
    np.testing.assert_allclose(down["s12"], up["s12"], rtol=1e-14)
    np.testing.assert_allclose(down["s22"], -up["s22"], rtol=1e-14)


# ---------------------------------------------------------------------------
# spectral extension
# ---------------------------------------------------------------------------

def test_extension_trace_is_identity(solved):
    np.testing.assert_allclose(trace_of_extension(solved), solved.u1, atol=1e-13)


def test_extension_factor_root(grid, params):
    # the u1 factor (1 - |xi| y /(2-2nu)) vanishes at y = (2-2nu)/xi1
    k1 = grid.xi_r[40]
    v = np.cos(k1 * grid.x)
    y_root = (2 - 2 * params.nu) / k1
    u1c, _ = extend_trace_displacement(grid, v, params.nu, y_root)
    assert np.max(np.abs(u1c)) < 1e-12


def test_extension_matches_closed_form_difference(grid, params):
    b, nu, z = params.b, params.nu, params.zeta
    z1, z2 = z, 2 * z
    trace = background(grid.x, b, z1) - background(grid.x, b, z2)
    mask = np.abs(grid.x) <= 10 * z
    worst = 0.0
    scale = 0.0
    for y in np.geomspace(z / 10, 10 * z, 8):
        got, _ = extend_trace_displacement(grid, trace, nu, y)
        a1, _ = _analytic_displacement(grid.x[mask], y, b, nu, z1, +1.0)
        a2, _ = _analytic_displacement(grid.x[mask], y, b, nu, z2, +1.0)
        worst = max(worst, np.max(np.abs(got[mask] - (a1 - a2))))
        scale = max(scale, np.max(np.abs(a1 - a2)))
    assert worst / scale < 1e-3


@pytest.mark.parametrize("comp, parity", [("u1", -1), ("u2", 1), ("s11", -1), ("s12", 1),
                                          ("s22", -1), ("s33", -1)])
def test_lower_half_is_derived_from_the_upper(analytic, params, comp, parity):
    # only the upper half is stored; PARITY, the writer's mirror sign, maps
    # it onto the closed form's lower branch at heights -y exactly
    assert PARITY[comp] == parity
    yl = YLevels.geometric(params.zeta / 5, 5 * params.zeta, 3)
    container = (extend_to_half_planes if comp[0] == "u" else stress_field)(analytic, yl)
    assert not hasattr(container, f"{comp}_minus")
    xs, y = analytic.grid.x - analytic.x0, -yl.values[:, None]
    b, nu, G, z = params.b, params.nu, params.G, analytic.zeta_bg
    lower = dict(zip(PARITY, (*_analytic_displacement(xs, y, b, nu, z, -1.0),
                              *_analytic_stress(xs, y, G, b, nu, z, -1.0))))
    upper = getattr(container, f"{comp}_plus")
    assert np.array_equal(lower[comp], parity * upper)


def test_stress_field_plane_strain_identity(solved, params, rng):
    yl = YLevels.geometric(params.zeta / 5, 5 * params.zeta, 5)
    sf = stress_field(solved, yl)
    idx = rng.integers(0, sf.s11_plus.size, size=20)
    flat = lambda a: a.reshape(-1)[idx]
    np.testing.assert_allclose(
        flat(sf.s33_plus),
        params.nu * (flat(sf.s11_plus) + flat(sf.s22_plus)),
        atol=1e-14,
    )


def test_stress_field_odd_in_x(analytic, params):
    yl = YLevels.geometric(params.zeta / 5, 5 * params.zeta, 5)
    sf = stress_field(analytic, yl)
    # sigma12 is odd in x: vanishes at x = 0 (node N/2)
    assert np.max(np.abs(sf.s12_plus[:, analytic.grid.N // 2])) < 1e-14


def test_stress_strains_inverse(solved, params):
    yl = YLevels.geometric(params.zeta / 5, 5 * params.zeta, 4)
    sf = stress_field(solved, yl)
    # strains by the inverse plane-strain relation
    G, nu = params.G, params.nu
    s11, s22 = sf.s11_plus, sf.s22_plus
    e11 = (s11 - nu * (s11 + s22)) / (2.0 * G)
    e22 = (s22 - nu * (s11 + s22)) / (2.0 * G)
    e12 = sf.s12_plus / (2.0 * G)
    s11, s12, s22, s33 = strains_to_stresses(e11, e22, e12, params.G, params.nu)
    np.testing.assert_allclose(s11, sf.s11_plus, atol=1e-12)
    np.testing.assert_allclose(s22, sf.s22_plus, atol=1e-12)
    np.testing.assert_allclose(s33, sf.s33_plus, atol=1e-12)


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann traction
# ---------------------------------------------------------------------------

def test_dtn_sigma22_is_zero(solved):
    _, s22 = dtn_traction(solved)
    assert np.max(np.abs(s22)) == 0.0


def test_dtn_sigma12_background_value(analytic, params):
    s12, _ = dtn_traction(analytic)
    # closed form (G b /(2 pi (1-nu))) x/(x^2+zeta^2); odd so zero at center
    x = analytic.grid.x
    expected = (params.G * params.b / (2 * np.pi * (1 - params.nu))) * x / (
        x**2 + params.zeta**2)
    np.testing.assert_allclose(s12, expected, atol=1e-14)
    assert abs(s12[analytic.grid.N // 2]) < 1e-15


def test_dtn_balances_potential_force(solved, spec):
    s12, _ = dtn_traction(solved)
    balance = 2 * s12 - eval_potential(spec, solved.u1, 1)
    assert np.max(np.abs(balance)) <= 1e-6


def test_sigma22_spectral_zero_on_plane(grid, params):
    trace = background(grid.x, params.b, params.zeta) - background(
        grid.x, params.b, 2 * params.zeta)
    strains = extend_trace_strains(grid, trace, params.nu, 0.0)
    s = strains_to_stresses(*strains, params.G, params.nu)
    assert np.max(np.abs(s[2])) <= 1e-13 * np.max(np.abs(s[1]))


def test_ylevels_validation():
    with pytest.raises(ValueError):
        YLevels(values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        YLevels(values=np.array([2.0, 1.0]))
    yl = YLevels.geometric(0.1, 10.0, 5)
    assert len(yl.values) == 5
    assert yl.values[0] == pytest.approx(0.1)


def test_interior_equilibrium_under_refinement(params):
    # finite-difference divergence of the stress field vanishes with
    # refinement (interior force balance)
    from pnedge.operators import spectral_derivative

    def divergence_linf(n_y):
        import warnings

        from pnedge.errors import TailWarning

        g = build_grid(100 * params.zeta, 2048)
        v = background(g.x, params.b, params.zeta) - background(
            g.x, params.b, 2 * params.zeta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailWarning)
            p = Profile(grid=g, params=params, zeta_bg=params.zeta, v=v)
        ys = np.linspace(params.zeta, 3 * params.zeta, n_y)
        yl = YLevels(values=ys)
        sf = stress_field(p, yl)
        dy = ys[1] - ys[0]
        worst = 0.0
        mask = np.abs(g.x) <= 10 * params.zeta
        for i in range(1, n_y - 1):
            ds11_dx = spectral_derivative(g, sf.s11_plus[i])
            ds12_dx = spectral_derivative(g, sf.s12_plus[i])
            ds12_dy = (sf.s12_plus[i + 1] - sf.s12_plus[i - 1]) / (2 * dy)
            ds22_dy = (sf.s22_plus[i + 1] - sf.s22_plus[i - 1]) / (2 * dy)
            div1 = ds11_dx + ds12_dy
            div2 = ds12_dx + ds22_dy
            worst = max(worst, np.max(np.abs(div1[mask])), np.max(np.abs(div2[mask])))
        return worst

    coarse = divergence_linf(9)
    fine = divergence_linf(33)
    assert fine < coarse
    assert fine < 5e-3
    # central differences in y are second order
    assert np.log2(coarse / fine) >= 2.0
