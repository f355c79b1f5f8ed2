"""Static solver: residual oracles, recovery, diagnostics."""

import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import pnedge.static as static
from pnedge import operators
from pnedge.errors import TailWarning
from pnedge.grid import build_grid
from pnedge.operators import (
    apply_half_laplacian,
    apply_symbol,
    fourier_interpolant,
    fourier_shift,
)
from pnedge.params import PhysParams
from pnedge.potential import eval_potential, from_table, frenkel
from pnedge.profile import Profile, analytic_profile, background, tanh_profile
from pnedge.static import (
    StaticState,
    burgers_density,
    center_profile,
    decay_coefficients,
    is_monotone_decreasing,
    monotonicity_violation,
    residual,
    solve_static,
    zero_crossing,
)


def test_residual_vanishes_for_arctan_core(analytic, spec, params):
    # zeta = d/(2(1-nu)) forces exact pointwise cancellation
    r = residual(analytic, spec)
    assert r.linf <= 1e-10 * params.G * params.b / params.d
    assert r.linf <= 1e-13


@pytest.mark.parametrize("L_over,N", [(50, 512), (200, 4096), (100, 1024)])
def test_residual_cancellation_grid_independent(L_over, N):
    prm = PhysParams()
    g = build_grid(L_over * prm.zeta, N)
    r = residual(analytic_profile(g, prm), frenkel(prm))
    assert r.linf <= 1e-13


def test_residual_wide_background(grid, params, spec):
    # zeta_bg = 2 zeta leaves R = (G b / (pi (1-nu))) x / (x^2 + 4 zeta^2)
    p = Profile(grid=grid, params=params, zeta_bg=2 * params.zeta)
    r = residual(p, spec).samples
    z = params.zeta
    expected = (params.G * params.b / (np.pi * (1 - params.nu))) * grid.x / (
        grid.x**2 + 4 * z * z)
    np.testing.assert_allclose(r, expected, atol=1e-12)
    # value at x = zeta is 2/(5 pi)
    r_at_zeta = (params.G * params.b / (np.pi * (1 - params.nu))) * z / (5 * z * z)
    assert r_at_zeta == pytest.approx(2.0 / (5.0 * np.pi), rel=1e-12)
    # odd in x
    assert np.max(np.abs(r[1:] + r[1:][::-1])) < 1e-12


def test_residual_zero_potential(grid, params):
    # with W = 0 the residual is pure elastic: -c0 (b/2pi) x/(x^2+zbg^2)
    zbg = 1.7
    u = np.linspace(0, params.b / 2, 16, endpoint=False)
    zero_spec = from_table(params, np.column_stack([u, np.zeros_like(u)]))
    p = Profile(grid=grid, params=params, zeta_bg=zbg)
    r = residual(p, zero_spec).samples
    expected = -params.c0 * (params.b / (2 * np.pi)) * grid.x / (grid.x**2 + zbg**2)
    np.testing.assert_allclose(r, expected, atol=1e-12)
    assert abs(r[grid.N // 2]) < 1e-14  # x = 0


def test_solve_analytic_is_fixed_point(analytic, spec):
    result = solve_static(analytic, spec)
    assert isinstance(result, StaticState)
    assert result.profile is analytic  # the start is returned as its own state
    assert result.iterations == 0
    assert result.newton_steps == 0
    assert result.residual.linf <= 1e-13
    by_hand = StaticState(analytic, spec)
    assert ((result.iterations, result.newton_steps, result.monotone)
            == (by_hand.iterations, by_hand.newton_steps, by_hand.monotone))


def test_solve_recovers_core_from_tanh(solved, analytic, grid, params):
    shift, centered = center_profile(solved)
    mask = np.abs(grid.x) <= 20 * params.zeta
    assert np.max(np.abs(centered.u1 - analytic.u1)[mask]) <= 1e-3 * params.b
    assert is_monotone_decreasing(centered)
    u1 = centered.u1
    assert np.max(np.abs(u1[1:] + u1[1:][::-1])) <= 1e-8 * params.b


def test_solve_translation_equivariance(grid, params, spec):
    a = 3.5 * grid.h
    base = solve_static(tanh_profile(grid, params), spec).profile
    shifted_init = Profile(grid=grid, params=params, zeta_bg=params.zeta, x0=a,
                           v=fourier_shift(grid, tanh_profile(grid, params).v, -a))
    moved = solve_static(shifted_init, spec).profile
    # u1_moved(x) should equal u1_base(x - a)
    expected = base.background_at(grid.x - a) + fourier_shift(grid, base.v, -a)
    np.testing.assert_allclose(moved.u1, expected, atol=1e-8 * params.b)


@pytest.mark.parametrize("G", [0.01, 0.1, 10.0])
def test_solve_does_not_depend_on_the_unit_of_G(grid, params, solved, G):
    """The sweep steps at its cap 1.8/max|W''|, which scales with d/G as the
    residual does, so a solve at any G takes the G = 1 record (12 sweep
    steps, 2 Newton steps) to the same centred core.  The largest u1 gap
    measured is 5.6e-15 b, at G = 0.01; the bound is about four times it."""
    prm = PhysParams(G=G, nu=params.nu, b=params.b, d=params.d)
    res = solve_static(tanh_profile(grid, prm), frenkel(prm))
    assert (res.iterations, res.newton_steps) == (12, 2)
    _, centred = center_profile(res.profile)
    _, reference = center_profile(solved)
    assert np.max(np.abs(centred.u1 - reference.u1)) <= 2e-14 * params.b


def test_solve_grid_refinement():
    prm = PhysParams()
    z = prm.zeta
    spec = frenkel(prm)

    def err(L_over, N):
        g = build_grid(L_over * z, N)
        init = Profile(grid=g, params=prm, zeta_bg=2 * z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve_static(init, spec)
            _, cent = center_profile(res.profile)
        ana = analytic_profile(g, prm)
        m = np.abs(g.x) <= 20 * z
        return np.max(np.abs(cent.u1 - ana.u1)[m])

    # N-refinement at fixed L until the truncation floor
    e_n = [err(100, N) for N in (256, 512)]
    assert e_n[0] > 2 * e_n[1]
    # L-refinement at matched resolution: observed order >= 1 in zeta/L
    e_l = [err(Lo, N) for Lo, N in ((50, 1024), (100, 2048), (200, 4096))]
    orders = np.log2(np.asarray(e_l[:-1]) / np.asarray(e_l[1:]))
    assert np.min(orders) >= 1.0


def test_monotone_path_from_monotone_init(grid, params, spec):
    from pnedge.errors import MonotonicityWarning

    # tanh init shares the solution's background; the solve stays monotone
    # and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", MonotonicityWarning)
        result = solve_static(tanh_profile(grid, params), spec)
    assert result.monotone
    assert is_monotone_decreasing(result.profile)


def test_solve_with_mismatched_background_width(grid, params, spec):
    # with zeta_bg != zeta the correction carries 1/x tails whose periodic
    # wrap rings at the boundary; the solve still converges and u1 is
    # monotone on |x| <= 0.9 L, which is all this test asserts (at x = -L
    # the ringing is an uphill step of about 5e-5 b; see ROADMAP item 1)
    init = Profile(grid=grid, params=params, zeta_bg=1.5 * params.zeta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = solve_static(init, spec)
    assert result.residual.linf <= 1e-10
    interior = np.abs(grid.x) <= 0.9 * grid.L
    du = np.diff(result.profile.u1)
    assert np.max(du[interior[:-1]]) <= 1e-10 * params.b


def test_monotonicity_violation_of_samples(solved):
    # is_monotone_decreasing reads the samples of u1 through it
    assert monotonicity_violation(np.array([0.3, 0.1, 0.15, -0.2])) == pytest.approx(0.05)
    assert monotonicity_violation(np.array([0.3, 0.1, 0.1, -0.2])) == 0.0
    assert monotonicity_violation(solved.u1) == 0.0
    assert is_monotone_decreasing(solved)


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------

def test_center_analytic_profile(analytic):
    shift, centered = center_profile(analytic)
    assert abs(shift) <= 1e-12
    assert abs(centered.u1[centered.grid.N // 2]) <= 1e-12


def test_center_translated_profile(grid, params):
    a = 1.5 * grid.h
    p = Profile(grid=grid, params=params, zeta_bg=params.zeta, x0=a)
    shift, centered = center_profile(p)
    assert shift == pytest.approx(a, abs=1e-6 * grid.h)
    assert abs(centered.background_at(0.0)) <= 1e-10 * params.b


def _reference_root(p):
    """The zero crossing by scipy's Brent root finder on the band-limited
    interpolant of u1, to half the centring's step tolerance."""
    assert np.all(p.u1 != 0.0)
    j = np.flatnonzero(np.diff(np.sign(p.u1)) != 0)[0]
    v_cont = fourier_interpolant(p.grid, p.v)
    return brentq(lambda xq: float(p.background_at(xq)) + v_cont(xq),
                  p.grid.x[j], p.grid.x[j + 1], xtol=0.5e-14 * max(1.0, p.grid.h))


def test_center_profile_transforms_v_once_and_keeps_its_shift(solved, monkeypatch):
    shifted = Profile(grid=solved.grid, params=solved.params, zeta_bg=solved.zeta_bg,
                      x0=solved.x0 + 0.37 * solved.grid.h,
                      v=fourier_shift(solved.grid, solved.v, -0.37 * solved.grid.h))
    for p in (solved, shifted):
        expected = _reference_root(p)
        calls = []

        def counted(f):
            calls.append(f)
            return np.fft.rfft(f)

        monkeypatch.setattr(operators, "rfft", counted)
        shift, _ = center_profile(p)
        monkeypatch.undo()
        assert abs(shift - expected) <= 1e-14 * max(1.0, p.grid.h)
        assert len(calls) == 2  # the interpolant's coefficients and the Fourier shift


@pytest.mark.parametrize("frac", [0.01, 0.3, 0.97])
def test_zero_crossing_of_a_core_narrower_than_a_cell(grid, params, frac):
    # the secant start lands on the flat part, where Newton leaves the
    # bracket: the steps fall back on bisection until they close in
    x0 = grid.x[grid.N // 2] + frac * grid.h
    p = Profile(grid=grid, params=params, zeta_bg=1e-3 * grid.h, x0=x0)
    assert zero_crossing(p) == pytest.approx(x0, abs=1e-14)


def test_center_rejects_nonmonotone(grid, params):
    v = 0.4 * params.b * np.sin(2 * np.pi * grid.x / params.zeta) * np.exp(
        -grid.x**2 / (3 * params.zeta) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        p = Profile(grid=grid, params=params, zeta_bg=params.zeta, v=v)
    with pytest.raises(ValueError):
        center_profile(p)


# ---------------------------------------------------------------------------
# tail diagnostics
# ---------------------------------------------------------------------------

def test_decay_coefficients_analytic(analytic, params):
    target = params.b * params.zeta / (2 * np.pi)
    cp, cm = decay_coefficients(analytic)
    assert cp == pytest.approx(target, rel=0.05)
    assert cm == pytest.approx(target, rel=0.05)
    # symmetric to fit tolerance (window node sets differ at float edges)
    assert cp == pytest.approx(cm, rel=1e-4)


def test_decay_coefficients_wide_background(grid, params):
    p = Profile(grid=grid, params=params, zeta_bg=2 * params.zeta)
    cp, _ = decay_coefficients(p)
    assert cp == pytest.approx(params.b * 2 * params.zeta / (2 * np.pi), rel=0.01)


def test_decay_fit_window_requires_nodes(params):
    g = build_grid(2.0, 16)
    p = Profile(grid=g, params=params, zeta_bg=params.zeta)
    cp, cm = decay_coefficients(p)  # window exists even on a tiny grid
    assert np.isfinite(cp) and np.isfinite(cm)


def test_burgers_density(analytic, params, grid):
    rho, total = burgers_density(analytic)
    assert rho[grid.N // 2] == pytest.approx(params.b / (np.pi * params.zeta), rel=1e-12)
    assert total == pytest.approx(params.b, abs=1e-3 * params.b)
    # even density for the odd displacement
    assert np.max(np.abs(rho[1:] - rho[1:][::-1])) < 1e-12


def test_solver_rejects_bad_potential(grid, params):
    u = np.linspace(0, params.b / 2, 64, endpoint=False)
    bad = from_table(params, np.column_stack(
        [u, 1.0 - np.cos(4 * np.pi * u / params.b)]))
    with pytest.raises(ValueError):
        solve_static(analytic_profile(grid, params), bad)


def test_max_iters_exhaustion(grid, params, spec, monkeypatch):
    from pnedge.errors import ConvergenceError

    init = tanh_profile(grid, params)
    monkeypatch.setattr(static, "MAX_SWEEP_ITERS", 1)
    with pytest.raises(ConvergenceError) as exc:
        solve_static(init, spec)
    assert exc.value.linf > 0
    assert exc.value.iterations == 1


def test_nan_correction_raises(params, spec, monkeypatch):
    """A NaN in the start's residual raises before any step: the sweep's
    and the polish's ordered guards would let it through to MINRES."""
    from pnedge.errors import ConvergenceError

    krylov, minres = [], static.minres

    def recording(*args, **kwargs):
        krylov.append(args)
        return minres(*args, **kwargs)

    monkeypatch.setattr(static, "minres", recording)
    g = build_grid(200.0 * params.zeta, 512)
    v = tanh_profile(g, params).v.copy()
    v[g.N // 4] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="start residual is not finite") as exc:
            solve_static(Profile(grid=g, params=params, zeta_bg=params.zeta, v=v), spec)
    assert np.isnan(exc.value.linf)
    assert krylov == []
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("entry", [solve_static, StaticState, residual])
def test_potential_of_other_parameters_rejected(grid, params, entry):
    """A potential made for G = 2 does not pose the G = 1 profile's problem."""
    with pytest.raises(ValueError, match=r"the potential's parameters PhysParams\(G=2\.0.* "
                                         r"are not the profile's PhysParams\(G=1\.0"):
        entry(tanh_profile(grid, params), frenkel(PhysParams(G=2.0)))


@pytest.mark.parametrize("start, potential, counts", [
    ("tanh", "frenkel", (12, 2, 0)),
    # a background of the wrong width rings across the wrap (ROADMAP item 1)
    ("background:2", "frenkel", (12, 3, 1)),
    ("tanh", "table", (12, 3, 1)),
])
def test_result_residual_is_the_residual_of_the_result(grid, params, spec, eps_table,
                                                       start, potential, counts):
    """The solved state's residual is the one its profile has, bit for bit,
    though the solve evaluates it no more after the polish, and so are the
    W'(u1) and ``(-d_xx)^{1/2} u1`` the polish made and the W''(u1) it
    makes."""
    init = (tanh_profile(grid, params) if start == "tanh"
            else Profile(grid=grid, params=params, zeta_bg=2.0 * params.zeta))
    pot = spec if potential == "frenkel" else eps_table
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = solve_static(init, pot)
    assert isinstance(res, StaticState)
    ref = residual(res.profile, pot).samples
    assert res.residual.samples.tobytes() == ref.tobytes()
    fresh = StaticState(res.profile, pot)
    assert res.residual.samples.tobytes() == fresh.residual.samples.tobytes()
    assert {"wp", "lam"} <= vars(res).keys()  # made by the solve, not by these reads
    assert res.wp.tobytes() == fresh.wp.tobytes()
    assert res.lam.tobytes() == fresh.lam.tobytes()
    assert res.wpp.tobytes() == eval_potential(pot, res.profile.u1, 2).tobytes()
    assert all(issubclass(w.category, static.MonotonicityWarning) for w in caught)
    assert (res.iterations, res.newton_steps, len(caught)) == counts
    assert res.monotone == (len(caught) == 0)


# ---------------------------------------------------------------------------
# failure paths of solve_static
# ---------------------------------------------------------------------------

def test_sweep_divergence_guard_underflows(grid, params, spec, monkeypatch):
    """A step whose residual more than doubles is halved, and a step halved
    below 1e-12 of the cap raises."""
    from pnedge.errors import ConvergenceError

    trials = []

    def diverging(spec_, u_bg, v, v_new, dt, wp):
        trials.append(dt)
        return np.full_like(v, 1e6), wp

    monkeypatch.setattr(static, "_residual_after_step", diverging)
    with pytest.raises(ConvergenceError, match="pseudo-time step underflow") as exc:
        solve_static(tanh_profile(grid, params), spec)
    assert exc.value.iterations == 0
    # 2**-40 is the first halving below 1e-12
    assert trials == [trials[0] * 0.5**k for k in range(40)]


def _polish_with(monkeypatch, scale, info=0):
    """Make each Newton step ``scale`` times MINRES's solution, with ``info``."""
    minres = static.minres

    def scaled(matvec, b, psolve, rtol, **kwargs):
        x, _ = minres(matvec, b, psolve, rtol, **kwargs)
        return scale * x, info

    monkeypatch.setattr(static, "minres", scaled)


def test_newton_without_improvement_stalls(grid, params, spec, monkeypatch):
    """A Newton direction no step length improves is backtracked 8 times,
    the polish stops, and the solve raises above tolerance."""
    from pnedge.errors import ConvergenceError

    residuals = []
    original = static.residual

    def counted(*args, **kwargs):
        residuals.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(static, "residual", counted)
    _polish_with(monkeypatch, 0.0)
    with pytest.raises(ConvergenceError, match="solver stalled above tolerance") as exc:
        solve_static(tanh_profile(grid, params), spec)
    # the start's and the polish start's residuals, then the 8 trials'
    assert len(residuals) == 2 + 8
    assert exc.value.linf > static.RES_TOL
    assert exc.value.iterations == 12


def test_newton_polish_exhaustion(grid, params, spec, monkeypatch):
    """Newton steps that each shrink the residual by only about 10% run out
    after 30 steps."""
    from pnedge.errors import ConvergenceError

    _polish_with(monkeypatch, 0.1)
    with pytest.raises(ConvergenceError, match="Newton polish did not converge") as exc:
        solve_static(tanh_profile(grid, params), spec)
    assert exc.value.iterations == 30
    assert exc.value.linf > static.RES_TOL


def test_minres_info_is_warned(grid, params, spec, monkeypatch):
    _polish_with(monkeypatch, 1.0, info=5)
    with pytest.warns(UserWarning, match="inner minres returned info=5"):
        res = solve_static(tanh_profile(grid, params), spec)
    assert res.residual.linf <= static.RES_TOL
    assert (res.iterations, res.newton_steps) == (12, 2)


def test_polish_floor_on_a_weak_well(params, monkeypatch):
    """A Frenkel-shaped table with W''(b/4) = 0.05 G/d passes
    validate_potential, so the polish's ``w0 = max(W''(b/4), 0.1 G/d)``
    acts on it: the far-field MINRES shift W''(u1) - w0 read -0.0501 G/d
    (0 without the floor).  From a background 0.7 zeta_W wide (zeta_W =
    c0 / W''(b/4), the well's arctan width) on L = 20 zeta_W, N = 1024, the
    solve met RES_TOL in 4 Newton steps, monotone, with its core within
    9.1e-5 b of that arctan; the bound is check 02's 1e-3 b."""
    curvature = 0.05 * params.G / params.d
    u = np.arange(256) * (params.b / 512.0)
    a = curvature * params.b**2 / (16.0 * np.pi**2)
    spec = from_table(params, np.column_stack([u, a * (1.0 + np.cos(4.0 * np.pi * u / params.b))]))
    zeta_w = params.c0 / curvature
    shifts, minres = [], static.minres

    def recording(*args, shift=None, **kwargs):
        shifts.append(shift[0])
        return minres(*args, shift=shift, **kwargs)

    monkeypatch.setattr(static, "minres", recording)
    grid = build_grid(20.0 * zeta_w, 1024)
    res = solve_static(Profile(grid=grid, params=params, zeta_bg=0.7 * zeta_w), spec)
    assert res.residual.linf <= static.RES_TOL
    assert res.monotone and res.newton_steps > 0
    assert shifts[0] == pytest.approx(curvature - 0.1 * params.G / params.d, abs=2e-3)
    core = np.abs(grid.x) <= 5.0 * zeta_w
    assert np.max(np.abs(res.profile.u1 - background(grid.x, params.b, zeta_w))[core]) \
        <= 1e-3 * params.b


def test_polish_keeps_the_split_when_rebase_fails(grid, params, spec, monkeypatch):
    def no_crossing(p):
        raise ValueError("profile must cross zero exactly once")

    monkeypatch.setattr(static, "rebase_center", no_crossing)
    res = solve_static(tanh_profile(grid, params), spec)
    assert res.residual.linf <= static.RES_TOL
    assert res.profile.x0 == 0.0 and res.profile.zeta_bg == params.zeta
    assert res.monotone


# ---------------------------------------------------------------------------
# the polish's states against a polish on bare arrays
# ---------------------------------------------------------------------------

def _array_polish(p, spec, tol):
    """The Newton polish on bare arrays that ``solve_static`` ran before its
    iterates were states: returns the profile, the residual samples, W'(u1)
    and ``(-d_xx)^{1/2} u1`` of its last accepted iterate."""
    grid, params = p.grid, p.params
    c0 = params.c0
    w0 = max(eval_potential(spec, params.b / 4.0, 2), 0.1 * params.G / params.d)
    precon_symbol = 1.0 / (c0 * grid.xi_r + w0)

    def precon(z):
        return apply_symbol(grid, z, precon_symbol)

    u_bg = p.background_on_grid()
    lam_bg = p.half_laplacian_background()

    def force_balance(v):
        wp = eval_potential(spec, u_bg + v, 1)
        lam = lam_bg + apply_half_laplacian(grid, v)
        r = c0 * lam
        r += wp
        return r, wp, lam

    v = p.v.copy()
    r, wp, lam = force_balance(v)
    for _ in range(30):
        if np.max(np.abs(r)) <= tol:
            break
        shift = eval_potential(spec, u_bg + v, 2) - w0
        dv, _ = static.minres(None, -r, precon, rtol=static.NEWTON_TOL, shift=shift)
        step = 1.0
        base = np.max(np.abs(r))
        improved = False
        for _ in range(8):
            r_try, wp_try, lam_try = force_balance(v + step * dv)
            if np.max(np.abs(r_try)) < base:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        v = v + step * dv
        r, wp, lam = r_try, wp_try, lam_try
    return p.with_correction(v), r, wp, lam


def _polish_start(init, spec):
    """The profile ``solve_static`` hands its polish: swept, then re-split."""
    p, _ = static._semi_implicit_sweep(StaticState(init, spec))
    return static.rebase_center(p)


@pytest.mark.parametrize("L_over, N", [(200, 4096), (800, 16384)])
@pytest.mark.parametrize("start, potential", [
    ("tanh", "frenkel"), ("background:2", "frenkel"), ("tanh", "table")])
def test_solved_state_is_the_array_polish_result(params, spec, eps_table, L_over, N,
                                                 start, potential):
    """The polish's last accepted state has the profile, residual, W'(u1)
    and ``(-d_xx)^{1/2} u1`` of the polish on bare arrays, bit for bit."""
    grid = build_grid(L_over * params.zeta, N)
    init = (tanh_profile(grid, params) if start == "tanh"
            else Profile(grid=grid, params=params, zeta_bg=2.0 * params.zeta))
    pot = spec if potential == "frenkel" else eps_table
    tol = static.RES_TOL * params.G * params.b / params.d
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = solve_static(init, pot)
    assert all(issubclass(w.category, static.MonotonicityWarning) for w in caught)
    p, r, wp, lam = _array_polish(_polish_start(init, pot), pot, tol)
    assert (res.profile.zeta_bg, res.profile.x0) == (p.zeta_bg, p.x0)
    assert res.profile.v.tobytes() == p.v.tobytes()
    assert res.residual.samples.tobytes() == r.tobytes()
    assert res.wp.tobytes() == wp.tobytes()
    assert res.lam.tobytes() == lam.tobytes()


def test_stalled_polish_is_the_array_polish_result(grid, params, spec, monkeypatch):
    """A polish that no step length improves stops at its start, with the
    residual of the polish on bare arrays."""
    from pnedge.errors import ConvergenceError

    _polish_with(monkeypatch, 0.0)
    init = tanh_profile(grid, params)
    with pytest.raises(ConvergenceError, match="solver stalled above tolerance") as exc:
        solve_static(init, spec)
    tol = static.RES_TOL * params.G * params.b / params.d
    start = _polish_start(init, spec)
    p, r, _, _ = _array_polish(start, spec, tol)
    assert p.v.tobytes() == start.v.tobytes()
    rf = static.ResidualField(grid, r)
    assert (exc.value.linf, exc.value.l2) == (rf.linf, rf.l2)
    solved, steps = static._newton_polish(StaticState(start, spec), tol)
    assert steps == 0 and solved.profile is start
    assert solved.residual.samples.tobytes() == r.tobytes()


# ---------------------------------------------------------------------------
# transforms per solver phase
# ---------------------------------------------------------------------------

def _count_transforms(monkeypatch):
    """Count the ``numpy.fft`` real transforms made from here on."""
    count = [0]
    for name in ("rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            count[0] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return count


def test_transform_budget_of_the_default_solve(grid, params, spec, monkeypatch):
    """Two transforms per sweep trial step and per MINRES iteration, plus
    a fixed few per phase, in the N = 4096 tanh solve."""
    count = _count_transforms(monkeypatch)
    phases = {}  # name -> [calls, transforms made inside them]

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            before = count[0]
            out = fn(*args, **kwargs)
            rec = phases.setdefault(name, [0, 0])
            rec[0] += 1
            rec[1] += count[0] - before
            return out

        return wrapped

    psolves = []
    minres = static.minres

    def minres_counting_psolve(matvec, b, psolve, rtol, **kwargs):
        # the preconditioner runs once up front and once per iteration
        calls = [0]

        def counted(z):
            calls[0] += 1
            return psolve(z)

        out = minres(matvec, b, counted, rtol, **kwargs)
        psolves.append(calls[0])
        return out

    monkeypatch.setattr(static, "minres", counting("minres", minres_counting_psolve))
    for name in ("_semi_implicit_sweep", "semi_implicit_step", "_newton_polish",
                 "residual", "rebase_center"):
        monkeypatch.setattr(static, name, counting(name, getattr(static, name)))

    res = solve_static(tanh_profile(grid, params), spec)
    total = count[0]
    trials, step_transforms = phases["semi_implicit_step"]
    # the start's and the polish start's residuals, then the backtracking trials'
    balances = phases["residual"][0] - 2
    krylov = sum(psolves) - len(psolves)
    assert (res.iterations, res.newton_steps, trials, krylov) == (12, 2, 12, 20)
    assert step_transforms == 2 * trials
    # the sweep: its trial steps alone, from the solve's residual
    assert phases["_semi_implicit_sweep"][1] == 2 * trials
    # MINRES: one preconditioner up front, then one per iteration
    assert phases["minres"][1] == 2 * len(psolves) + 2 * krylov
    # the polish: a residual, its MINRES solves and the backtracking trials
    assert phases["_newton_polish"][1] == 2 + phases["minres"][1] + 2 * balances
    # the solve: a residual up front and the centre crossing; the result
    # carries the polish's last residual
    assert phases["rebase_center"][1] == 1
    assert total == phases["_semi_implicit_sweep"][1] + phases["_newton_polish"][1] + 3
    assert total == 77


@pytest.mark.parametrize("L_over, N", [(200, 4096), (800, 16384)])
def test_sweep_residual_from_the_update_matches_the_transform(params, spec, monkeypatch,
                                                              L_over, N):
    """The sweep's residual from the step's equation agrees with the
    transformed one on every trial of a solve, and on steps of the
    stability cap ``1.8 / max|W''|`` halved up to 8 times by the
    divergence guard, within the stated bound."""
    grid = build_grid(L_over * params.zeta, N)
    init = tanh_profile(grid, params)
    c0, lam_bg = params.c0, init.half_laplacian_background()
    eps = np.finfo(float).eps
    ratios = []

    def compare(r, wp_new, u_bg, v, v_new, dt, wp):
        p_new = init.with_correction(v_new)
        r_ref = residual(p_new, spec).samples
        assert np.array_equal(wp_new, eval_potential(spec, p_new.u1, 1))
        bound = eps * (np.max(np.abs(v)) * (1.0 / dt + c0 * grid.xi_r[-1])
                       + np.max(np.abs(wp)))
        ratios.append(np.max(np.abs(r - r_ref)) / bound)

    from_update = static._residual_after_step

    def checked(spec_, u_bg, v, v_new, dt, wp):
        r, wp_new = from_update(spec_, u_bg, v, v_new, dt, wp)
        compare(r, wp_new, u_bg, v, v_new, dt, wp)
        return r, wp_new

    monkeypatch.setattr(static, "_residual_after_step", checked)
    res = solve_static(init, spec)
    assert len(ratios) >= res.iterations > 0

    u_bg = init.background_on_grid()
    wp = StaticState(init, spec).wp
    g = wp + c0 * lam_bg
    probe = np.linspace(-params.b / 4.0, params.b / 4.0, 512)
    dt_cap = 1.8 / np.max(np.abs(eval_potential(spec, probe, 2)))
    for k in range(9):
        dt = dt_cap * 0.5**k
        v_new = static.semi_implicit_step(grid, init.v, g, dt, c0)
        compare(*from_update(spec, u_bg, init.v, v_new, dt, wp), u_bg, init.v, v_new, dt, wp)
    assert max(ratios) <= 4.0


def test_static_state_keeps_read_only_arrays(solved, spec):
    s = StaticState(solved, spec)
    for name, want in (("w", eval_potential(spec, solved.u1, 0)),
                       ("wp", eval_potential(spec, solved.u1, 1)),
                       ("lam", static.half_laplacian_profile(solved))):
        got = getattr(s, name)
        assert getattr(s, name) is got  # made once
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    assert s.residual is s.residual and not s.residual.samples.flags.writeable
    assert s.residual.samples.tobytes() == residual(solved, spec).samples.tobytes()


def test_static_refinement_study_script_runs(pnedge_env):
    script = Path(__file__).resolve().parents[1] / "scripts" / "static_refinement_study.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=pnedge_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the L-refinement rows that carry an order: L/zeta, N, err, order, warnings
    orders = re.findall(r"^ +\d+ +\d+ +\S+ +(\d+\.\d+) +\d+$", proc.stdout, re.M)
    assert len(orders) == 3, proc.stdout
    assert min(float(o) for o in orders) >= 2.9
