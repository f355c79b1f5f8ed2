"""Energy functionals: misfit, perturbed energies, cross terms, box energy."""

import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from pnedge import energy
from pnedge.energy import (
    BoxQuadrature,
    HalfPlaneTables,
    Perturbation,
    competitor_energy,
    cross_term_elastic,
    cross_term_gamma,
    elastic_energy_box,
    elastic_energy_of_trace,
    energy_breakdown,
    log_divergence_fit,
    misfit_energy,
    reduced_perturbed_energy,
    seeded_perturbations,
)
from pnedge.errors import DivergenceError, TailWarning
from pnedge.extension import (
    _analytic_plane_stress,
    _analytic_stress,
    extend_trace_strains,
    strains_to_stresses,
)
from pnedge.operators import hs_seminorm_grid, inner_h
from pnedge.potential import eval_potential
from pnedge.profile import Profile, background
from pnedge import static
from pnedge.static import StaticState, half_laplacian_profile


@pytest.fixture(scope="module")
def quadq(params):
    return BoxQuadrature(params.zeta / 50.0, 400.0 * params.zeta, 160)


@pytest.mark.parametrize("y_min, y_max, n_levels", [
    (1.0, 0.5, 8), (1.0, 1.0, 8), (0.0, 1.0, 8), (-0.1, 1.0, 8), (0.1, 1.0, 0),
])
def test_box_quadrature_rejects_levels_with_negative_weights(y_min, y_max, n_levels):
    with pytest.raises(ValueError, match="y_min|n_levels"):
        BoxQuadrature(y_min, y_max, n_levels)


def test_energy_quadrature_levels(params):
    # the perturbed energies' quadrature: 192 levels from zeta/50 to 400 zeta
    quad = BoxQuadrature.for_params(params)
    assert quad == BoxQuadrature(params.zeta / 50.0, 400.0 * params.zeta, 192)


def gaussian_pert(grid, params, amp=0.05, center=0.9, width=2.0):
    z = params.zeta
    phi = amp * params.b * np.exp(-((grid.x - center * z) ** 2) / (2 * (width * z) ** 2))
    return Perturbation(grid=grid, phi1=phi)


# ---------------------------------------------------------------------------
# misfit energy
# ---------------------------------------------------------------------------

def test_misfit_perfect_lattice(grid, params, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        flat = Profile(grid=grid, params=params, zeta_bg=params.zeta,
                       v=params.b / 4.0 - background(grid.x, params.b, params.zeta))
    assert misfit_energy(StaticState(flat, spec)) == pytest.approx(0.0, abs=1e-12)


def test_misfit_closed_form(analytic, spec, params):
    target = params.G * params.b**2 * params.zeta / (2 * np.pi * params.d)
    got = misfit_energy(StaticState(analytic, spec))
    assert got == pytest.approx(target, rel=5e-3)
    assert got == pytest.approx(1.0 / (3.0 * np.pi), rel=5e-3)


def test_misfit_divergence_for_constant_zero(grid, params, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        zero = Profile(grid=grid, params=params, zeta_bg=params.zeta,
                       v=-background(grid.x, params.b, params.zeta))
    with pytest.raises(DivergenceError):
        misfit_energy(StaticState(zero, spec))


# ---------------------------------------------------------------------------
# reduced perturbed energy
# ---------------------------------------------------------------------------

def test_reduced_energy_zero_perturbation(grid, solved, spec):
    phi = Perturbation(grid=grid, phi1=np.zeros(grid.N))
    assert reduced_perturbed_energy(phi, StaticState(solved, spec)) == 0.0


def test_reduced_energy_translation_difference(grid, solved, spec, params):
    a = 3 * grid.h
    phi1 = (solved.background_at(grid.x - a)
            + np.interp(grid.x - a, grid.x, solved.v, period=2 * grid.L)
            - solved.u1)
    phi = Perturbation(grid=grid, phi1=phi1)
    value = reduced_perturbed_energy(phi, StaticState(solved, spec))
    scale = params.G * params.b**2 / params.d
    assert abs(value) <= 1e-6 * scale


def test_reduced_energy_dense_quadrature_oracle(grid, analytic, spec, params):
    # independent continuum route: closed-form transform of the gaussian,
    # adaptive quadrature for every term
    amp, w = 0.05 * params.b, params.zeta
    phi1 = amp * np.exp(-grid.x**2 / (2 * w * w))
    phi = Perturbation(grid=grid, phi1=phi1)
    got = reduced_perturbed_energy(phi, StaticState(analytic, spec))
    assert got > 0

    c0, z, b = params.c0, params.zeta, params.b
    # |phihat(xi)|^2 = (amp w)^2 2 pi e^{-xi^2 w^2};  (1/2pi) int = (1/pi) int_0^inf
    quad_term = (c0 / 2) * (1 / np.pi) * quad(
        lambda xi: xi * (amp * w) ** 2 * 2 * np.pi * np.exp(-(xi * w) ** 2),
        0, np.inf)[0]
    cross_term = c0 * quad(
        lambda x: amp * np.exp(-x**2 / (2 * w * w))
        * (-(b / (2 * np.pi)) * x / (x * x + z * z)),
        -np.inf, np.inf)[0]
    def wdiff(x):
        u = background(x, b, z)
        return (eval_potential(spec, u + amp * np.exp(-x**2 / (2 * w * w)), 0)
                - eval_potential(spec, u, 0))
    mis_term = quad(wdiff, -np.inf, np.inf, limit=200)[0]
    oracle = quad_term + cross_term + mis_term
    assert got == pytest.approx(oracle, rel=1e-3)


# ---------------------------------------------------------------------------
# half-plane route and the energy relation
# ---------------------------------------------------------------------------

def test_elastic_energy_matches_trace_seminorm(grid, params, quadq):
    # E_els of the extension equals (c0/2) |phi|^2_{H^1/2}
    phi = gaussian_pert(grid, params)
    e2d = elastic_energy_of_trace(grid, phi.phi1, params, quadq)
    egamma = 0.5 * params.c0 * hs_seminorm_grid(grid, phi.phi1, 0.5)
    assert e2d == pytest.approx(egamma, rel=2e-3)


@pytest.fixture(scope="module")
def tables(solved, quadq):
    return HalfPlaneTables.build(solved, quadq)


def test_total_energy_zero_perturbation(grid, solved, spec, tables):
    phi = Perturbation(grid=grid, phi1=np.zeros(grid.N))
    total = energy_breakdown(phi, StaticState(solved, spec), tables).E_hat_total
    assert total == pytest.approx(0.0, abs=1e-15)


def test_energy_relation_gaussian(grid, solved, spec, params, tables):
    phi = gaussian_pert(grid, params)
    eg = reduced_perturbed_energy(phi, StaticState(solved, spec))
    et = energy_breakdown(phi, StaticState(solved, spec), tables).E_hat_total
    assert et == pytest.approx(eg, rel=1e-2)


def test_elastic_scaling_split(grid, solved, params, quadq):
    # doubling the perturbation: quadratic part x4, cross part x2
    phi = gaussian_pert(grid, params)
    phi2 = Perturbation(grid=grid, phi1=2 * phi.phi1)
    e1 = elastic_energy_of_trace(grid, phi.phi1, params, quadq)
    e2 = elastic_energy_of_trace(grid, phi2.phi1, params, quadq)
    assert e2 == pytest.approx(4 * e1, rel=1e-12)
    c1 = cross_term_elastic(solved, phi, quadq)
    c2 = cross_term_elastic(solved, phi2, quadq)
    assert c2 == pytest.approx(2 * c1, rel=1e-12)


def test_cross_terms_zero_and_linear(grid, solved, spec, quadq, params):
    zero = Perturbation(grid=grid, phi1=np.zeros(grid.N))
    assert cross_term_elastic(solved, zero, quadq) == 0.0
    assert cross_term_gamma(StaticState(solved, spec), zero) == 0.0
    phi = gaussian_pert(grid, params, center=1.3)
    assert cross_term_elastic(solved, phi, quadq) == pytest.approx(
        cross_term_gamma(StaticState(solved, spec), phi), rel=1e-2)


def test_cross_term_gamma_transforms_profile_once(grid, solved, spec, params, monkeypatch):
    s = StaticState(solved, spec)  # a new state, nothing kept yet
    calls = []
    monkeypatch.setattr(static, "half_laplacian_profile",
                        lambda q: calls.append(q) or half_laplacian_profile(q))
    perts = seeded_perturbations(grid, params, 3, seed=4)
    got = [cross_term_gamma(s, ph) for ph in perts]
    assert calls == [solved]
    lam = half_laplacian_profile(solved)
    assert got == [params.c0 * inner_h(grid, ph.phi1, lam) for ph in perts]
    other = StaticState(solved.with_correction(0.5 * solved.v), spec)
    cross_term_gamma(other, perts[0])
    assert calls == [solved, other.profile]


def test_energy_breakdown_consistency(grid, solved, spec, params, tables):
    phi = gaussian_pert(grid, params)
    bd = energy_breakdown(phi, StaticState(solved, spec), tables)
    assert bd.E_hat_gamma == reduced_perturbed_energy(phi, StaticState(solved, spec))
    assert bd.E_hat_total == bd.E_els_pert + bd.cross_els + bd.misfit_difference
    assert bd.E_hat_total == pytest.approx(bd.E_hat_gamma,
                                           rel=1e-2, abs=1e-5)
    assert misfit_energy(StaticState(solved, spec)) == pytest.approx(1.0 / (3.0 * np.pi), rel=1e-2)


def test_breakdown_evaluates_w_of_the_state_once(grid, solved, spec, params, tables,
                                                 monkeypatch):
    # W(u1 + phi1) per perturbation, and the state's W(u1) once for all
    calls = []

    def counting(spec_, u, order=0):
        if order == 0:
            calls.append(order)
        return eval_potential(spec_, u, order)

    monkeypatch.setattr(energy, "eval_potential", counting)
    monkeypatch.setattr(static, "eval_potential", counting)
    s = StaticState(solved, spec)
    for ph in seeded_perturbations(grid, params, 10, seed=3):
        energy_breakdown(ph, s, tables)
    assert len(calls) == 11


def test_breakdown_warns_on_undecayed_perturbation(grid, solved, spec, params, tables):
    phi = Perturbation(grid=grid, phi1=np.full(grid.N, 1e-3 * params.b))
    with pytest.warns(UserWarning, match="decay threshold"):
        energy_breakdown(phi, StaticState(solved, spec), tables)


# ---------------------------------------------------------------------------
# Parseval tables against the level-wise quadrature
# ---------------------------------------------------------------------------

def _level_quadrature(grid, params, quad, strains, stress=None):
    """Reference route: strains (and the profile's stress) sampled on the
    grid at every quadrature level by inverse FFTs, then summed in x."""
    G, nu = params.G, params.nu
    lame = 2.0 * nu * G / (1.0 - 2.0 * nu)
    total = 0.0
    for y, wt in zip(*quad.nodes_weights()):
        e11, e22, e12 = strains(y)
        if stress is None:
            dens = G * (e11**2 + e22**2 + 2.0 * e12**2) + 0.5 * lame * (e11 + e22) ** 2
        else:
            s11, s12, s22 = stress(y)
            dens = e11 * s11 + e22 * s22 + 2.0 * e12 * s12
        total += wt * grid.h * float(np.sum(dens))
    return 2.0 * total


def _profile_stress(p):
    def stress(y):
        prm = p.params
        s11, s12, s22, _ = _analytic_stress(p.grid.x - p.x0, y, prm.G, prm.b, prm.nu,
                                            p.zeta_bg, +1.0)
        if np.any(p.v):
            c11, c12, c22, _ = strains_to_stresses(
                *extend_trace_strains(p.grid, p.v, prm.nu, y), prm.G, prm.nu)
            s11, s12, s22 = s11 + c11, s12 + c12, s22 + c22
        return s11, s12, s22
    return stress


def _competitor_strains(grid, phi1, f_pair, g_pair):
    (f, fp), (g, gp) = f_pair, g_pair
    th = np.fft.fft(phi1)
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)  # all N modes, FFT order
    q = np.abs(xi)

    def strains(y):
        t = q * y
        m11 = 1j * xi * f(t)
        m22 = 1j * np.sign(xi) * q * gp(t)
        m12 = 0.5 * (q * fp(t) - q * g(t))
        m11[grid.N // 2] = 0.0  # the Nyquist mode
        m22[grid.N // 2] = 0.0
        return tuple(np.fft.ifft(m * th).real for m in (m11, m22, m12))
    return strains


@pytest.mark.parametrize("which", ["solved", "background2"])
def test_tables_match_level_quadrature(which, grid, solved, params, quadq):
    p = solved if which == "solved" else Profile(grid=grid, params=params,
                                                 zeta_bg=2.0 * params.zeta)
    assert bool(np.any(p.v)) == (which == "solved")
    tables = HalfPlaneTables.build(p, quadq)
    beta = 1 / (2 - 2 * params.nu)
    competitor = ((lambda t: (1 - beta * t) * np.exp(-t),
                   lambda t: (-1 - beta + beta * t) * np.exp(-t)),
                  (lambda t: -0.5 * t * np.exp(-t), lambda t: (0.5 * t - 0.5) * np.exp(-t)))

    def family(t):
        e = np.exp(-t)
        return (1 - beta * t) * e, (-1 - beta + beta * t) * e, -0.5 * t * e, (0.5 * t - 0.5) * e
    for ph in seeded_perturbations(grid, params, 3, seed=5):
        def ext_strains(y):
            return extend_trace_strains(grid, ph.phi1, params.nu, y)

        e_ref = _level_quadrature(grid, params, quadq, ext_strains)
        c_ref = _level_quadrature(grid, params, quadq, ext_strains, _profile_stress(p))
        k_ref = _level_quadrature(grid, params, quadq,
                                  _competitor_strains(grid, ph.phi1, *competitor))
        assert tables.elastic_energy(ph.phi1) == pytest.approx(e_ref, rel=1e-12, abs=0)
        assert tables.cross_term(ph.phi1) == pytest.approx(c_ref, rel=1e-12, abs=0)
        assert elastic_energy_of_trace(grid, ph.phi1, params, quadq) == pytest.approx(
            e_ref, rel=1e-12, abs=0)
        assert cross_term_elastic(p, ph, quadq) == pytest.approx(c_ref, rel=1e-12, abs=0)
        assert competitor_energy(grid, ph.phi1, params, family, quadq) == pytest.approx(
            k_ref, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# minimizer property and extension optimality
# ---------------------------------------------------------------------------

def test_minimizer_nonnegative_seeded(grid, solved, spec, params):
    perts = seeded_perturbations(grid, params, 8, seed=7, out_of_range=3)
    floor = -1e-8 * params.G * params.b**2 / params.d
    for ph in perts:
        assert reduced_perturbed_energy(ph, StaticState(solved, spec)) >= floor


def test_extension_minimizes_elastic_energy(grid, params, quadq):
    beta = 1 / (2 - 2 * params.nu)
    nu = params.nu
    phi = gaussian_pert(grid, params, amp=0.06, center=-0.4, width=1.5)
    e_opt = elastic_energy_of_trace(grid, phi.phi1, params, quadq)
    # the extension itself through the competitor machinery: sanity identity
    def extension(t):
        e = np.exp(-t)
        return ((1 - beta * t) * e, (-1 - beta + beta * t) * e,
                -beta * ((1 - 2 * nu) + t) * e, -beta * (2 * nu - t) * e)

    same = competitor_energy(grid, phi.phi1, params, extension, quadq)
    assert same == pytest.approx(e_opt, rel=1e-12)
    # competitors with the same trace cost more
    harmonic = competitor_energy(grid, phi.phi1, params,
                                 lambda t: (np.exp(-t), -np.exp(-t)), quadq)
    fast = competitor_energy(grid, phi.phi1, params,
                             lambda t: (np.exp(-2 * t), -2 * np.exp(-2 * t)), quadq)
    assert harmonic > e_opt
    assert fast > e_opt


# ---------------------------------------------------------------------------
# boxed elastic energy
# ---------------------------------------------------------------------------

def test_box_energy_monotone_in_radius(analytic, params):
    z = params.zeta
    e1, e2 = elastic_energy_box(analytic, [5 * z, 10 * z])
    assert e2 > e1 > 0


def test_box_energy_log_divergence(analytic, params):
    radii = np.array([5, 10, 20, 40]) * params.zeta
    _, slope, _, r2 = log_divergence_fit(analytic, radii)
    assert r2 >= 0.999
    assert slope > 0


def test_box_energy_radius_bound(analytic, params):
    with pytest.raises(ValueError):
        elastic_energy_box(analytic, [0.6 * analytic.grid.L])
    # any radius beyond L/2 is rejected, wherever it is listed
    with pytest.raises(ValueError, match="exceeds L/2"):
        elastic_energy_box(analytic, [5.0 * params.zeta, 0.6 * analytic.grid.L])


def test_box_correction_nodes_of_one_radius(params):
    # one radius walks exactly the nodes of its own box quadrature
    y0 = params.zeta / 50.0
    for R, n_levels in ((5.0 * params.zeta, 192), (40.0 * params.zeta, 96)):
        ys = energy._box_correction_nodes(y0, [R], n_levels)
        np.testing.assert_array_equal(ys, BoxQuadrature(y0, R, n_levels).nodes_weights()[0])


@pytest.mark.parametrize("n_levels", [192, 96])
def test_box_correction_nodes_below_every_radius(params, n_levels):
    # 264 shared geometric levels at the defaults and 132 at 96 levels,
    # each radius a node, and at least n_levels positive nodes below it
    y0 = params.zeta / 50.0
    radii = [r * params.zeta for r in (5.0, 10.0, 20.0, 40.0)]
    ys = energy._box_correction_nodes(y0, radii, n_levels)
    assert len(ys) == 1 + {192: 264, 96: 132}[n_levels] + 3
    for R in radii:
        assert R in ys
        assert np.count_nonzero((ys >= y0) & (ys < R)) >= n_levels


def test_box_correction_nodes_every_other(params):
    # check 09's coarse nodes: a subset of the walk's, with every other of
    # its 264 geometric levels (132, the top one a radius), each radius a
    # node, and at least 96 positive nodes below each radius
    y0 = params.zeta / 50.0
    radii = [r * params.zeta for r in (5.0, 10.0, 20.0, 40.0)]
    ys = energy._box_correction_nodes(y0, radii, 192)
    sub = energy._box_correction_nodes(y0, radii, 192, every=2)
    assert len(sub) == 1 + 132 + 4
    assert set(sub.tolist()) <= set(ys.tolist())
    for R in radii:
        assert R in sub
        assert np.count_nonzero((sub >= y0) & (sub < R)) >= 96


@pytest.mark.parametrize("y_over_zeta", [0.0, 0.02, 0.5, 5.0, 40.0])
def test_box_density_change_against_exact_arithmetic(solved, params, y_over_zeta):
    """A level's sum ``h sum [dens(b + c) - dens(b)]`` of the box
    correction over |x| <= 40 zeta at the solved profile, where the
    correction's stress c is about 1e-11 of the core's b: the expanded
    form against the exact rational value for the same float b and c.
    Measured relative errors 1.2e-11 (y = 0) down to 1.5e-14 (40 zeta),
    against a sum about 2e5 times smaller than its terms' magnitudes; the
    difference of the two densities was off by 8e-3 to 7e-2."""
    grid, prm = solved.grid, params
    G, nu, y = prm.G, prm.nu, y_over_zeta * prm.zeta
    window = np.abs(grid.x) <= 40.0 * prm.zeta
    core = _analytic_plane_stress(grid.x[window] - solved.x0, y, G, prm.b, nu,
                                  solved.zeta_bg, +1.0)
    strains = (e[window] for e in extend_trace_strains(grid, solved.v, nu, y))
    corr = np.stack(strains_to_stresses(*strains, G, nu)[:3])
    got = float(np.sum((grid.h / (4.0 * G)) * energy._density_change(core, corr, nu)))

    def dens(s11, s12, s22):
        return (s11 * s11 + s22 * s22 - Fraction(nu) * (s11 + s22) ** 2
                + 2 * s12 * s12) / (4 * Fraction(G))

    exact = Fraction(0)
    for b, c in zip(core.T.tolist(), corr.T.tolist()):
        b, c = [Fraction(v) for v in b], [Fraction(v) for v in c]
        exact += dens(*(bi + ci for bi, ci in zip(b, c))) - dens(*b)
    exact *= Fraction(grid.h)
    assert abs(got - float(exact)) <= 1e-10 * abs(float(exact))


@pytest.mark.parametrize("x0_over_zeta, zeta_bg_over_zeta", [(0.0, 1.0), (0.3, 0.8)],
                         ids=["centred", "off_centre"])
@pytest.mark.parametrize("y_over_zeta", [0.0, 0.02, 1.0, 40.0])
def test_core_density_integral_against_quad(params, x0_over_zeta, zeta_bg_over_zeta,
                                            y_over_zeta):
    """A box background's closed-form x-integral at one node against
    adaptive quadrature of the core's density ``(1/2) sigma : eps`` over
    the largest default box's window ``|x| <= R = 40 zeta``, at heights 0,
    zeta/50, zeta and R, for a centred background and an off-centre,
    narrower one: measured 1.4-3.1e-16 relative, bound the quadrature's
    requested 1e-13."""
    z, G, nu = params.zeta, params.G, params.nu
    R, y = 40.0 * z, y_over_zeta * z
    x0, zeta_bg = x0_over_zeta * z, zeta_bg_over_zeta * z

    def density(x):
        (s11, s12, s22), = _analytic_plane_stress(np.array([x]), y, G, params.b, nu,
                                                  zeta_bg, +1.0).T
        return (s11**2 + s22**2 - nu * (s11 + s22) ** 2 + 2.0 * s12**2) / (4.0 * G)

    want, _ = quad(density, -R - x0, R - x0, points=[0.0], epsabs=0.0, epsrel=1e-13,
                   limit=200)
    got = energy._core_density_integral(-R - x0, R - x0, y, G, params.b, nu, zeta_bg)
    assert abs(got - want) <= 1e-13 * want


def test_box_energy_unsorted_radii_in_input_order(solved, params):
    radii = [r * params.zeta for r in (5.0, 10.0, 20.0, 40.0)]
    shuffled = [radii[i] for i in (2, 0, 3, 1)]
    want = elastic_energy_box(solved, radii)
    assert elastic_energy_box(solved, shuffled) == [want[i] for i in (2, 0, 3, 1)]


def test_log_divergence_script_runs(pnedge_env):
    script = Path(__file__).resolve().parents[1] / "scripts" / "energy_log_divergence.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=pnedge_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    slope = re.search(r"slope = (\S+),", proc.stdout)
    assert slope is not None, proc.stdout
    assert float(slope.group(1)) > 0


def test_seeded_perturbations_reproducible(grid, params):
    a = seeded_perturbations(grid, params, 4, seed=11, out_of_range=1)
    b = seeded_perturbations(grid, params, 4, seed=11, out_of_range=1)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.phi1, pb.phi1)
        assert pa.check_decay(params.b)
