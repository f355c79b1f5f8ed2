"""Gradient-flow dynamics: kernels, fixed points, dissipation, parity."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pnedge import dynamics
from pnedge.dynamics import (
    DynamicsState,
    dissipation_rate,
    etd_update,
    free_energy,
    run_dynamics,
    semi_implicit_update,
    step_etd,
    step_semi_implicit,
)
from pnedge.errors import TimeStepUnderflowError
from pnedge.grid import build_grid
from pnedge.params import PhysParams
from pnedge.static import StaticState, center_profile, residual


@pytest.fixture()
def bump_state(grid, params, analytic, spec):
    v0 = 0.1 * params.b * np.exp(-grid.x**2 / params.zeta**2)
    return DynamicsState(t=0.0, p=analytic.with_correction(v0),
                         reference=StaticState(analytic, spec))


# ---------------------------------------------------------------------------
# update kernels (exact linear behavior)
# ---------------------------------------------------------------------------

def test_semi_implicit_kernel_single_mode():
    # with the potential force disabled a single mode is scaled by
    # 1/(1 + dt c0 |xi1|)
    g = build_grid(10.0, 128)
    c0, dt = 8.0 / 3.0, 0.2
    k1 = g.xi_r[5]
    v = np.cos(k1 * g.x)
    v_hat = semi_implicit_update(np.fft.rfft(v), np.zeros(g.N // 2 + 1, complex), dt, c0,
                                 g.xi_r)
    out = np.fft.irfft(v_hat, g.N)
    np.testing.assert_allclose(out, v / (1 + dt * c0 * abs(k1)), atol=1e-13)


def test_etd_kernel_pure_decay():
    # with g = v (remainder T = v - g = 0) each mode decays exactly by
    # e^{-a_k t}, a_k = c0|xi_k| + 1
    g = build_grid(10.0, 128)
    c0, dt = 8.0 / 3.0, 0.37
    k1 = g.xi_r[9]
    v = np.sin(k1 * g.x)
    v_hat = etd_update(np.fft.rfft(v), np.fft.rfft(v), dt, c0, g.xi_r)
    out = np.fft.irfft(v_hat, g.N)
    np.testing.assert_allclose(out, v * np.exp(-(c0 * abs(k1) + 1) * dt), atol=1e-13)


def test_etd_kernel_constant_forcing():
    # v' = -a v + T with constant T = v - g: v(dt) = e^{-a dt} v0 + (1-e^{-a dt}) T/a;
    # at v0 = 0 the force is g = -T
    g = build_grid(10.0, 64)
    c0, dt = 2.0, 0.5
    T = np.full(64, 0.3)
    v_hat = etd_update(np.zeros(33, complex), -np.fft.rfft(T), dt, c0, g.xi_r)
    out = np.fft.irfft(v_hat, g.N)
    np.testing.assert_allclose(out, 0.3 * (1 - np.exp(-dt)), atol=1e-13)


# ---------------------------------------------------------------------------
# fixed points and basic stepping
# ---------------------------------------------------------------------------

def test_static_profile_is_fixed_point(analytic, spec):
    s0 = DynamicsState(t=0.0, p=analytic, reference=StaticState(analytic, spec))
    s1 = step_semi_implicit(s0, 0.1)
    assert np.max(np.abs(s1.p.v)) < 1e-15
    s2 = step_etd(s0, 0.1)
    assert np.max(np.abs(s2.p.v)) < 1e-15
    assert s1.t == pytest.approx(0.1)


def test_zero_deviation_stays_zero(analytic, spec):
    s = DynamicsState(t=0.0, p=analytic, reference=StaticState(analytic, spec))
    for _ in range(5):
        s = step_etd(s, 0.2)
    assert np.max(np.abs(s.p.v)) < 1e-14


def test_state_requires_a_reference(analytic, spec):
    # F needs the reference profile and the flow its potential: a state has one
    with pytest.raises(ValueError, match="reference"):
        DynamicsState(t=0.0, p=analytic, reference=None)
    with pytest.raises(TypeError):
        DynamicsState(t=0.0, p=analytic)


def test_step_rejects_nonpositive_dt(bump_state):
    with pytest.raises(ValueError):
        step_semi_implicit(bump_state, 0.0)
    with pytest.raises(ValueError):
        step_etd(bump_state, -0.1)


def test_single_step_decreases_free_energy(bump_state):
    f0 = free_energy(bump_state)
    s1 = step_semi_implicit(bump_state, 0.05)
    assert free_energy(s1) < f0


# ---------------------------------------------------------------------------
# monitored runs
# ---------------------------------------------------------------------------

def test_run_trace_constant_for_static_start(analytic, spec, params, monkeypatch):
    s0 = DynamicsState(t=0.0, p=analytic, reference=StaticState(analytic, spec))
    monkeypatch.setattr(dynamics, "DT", 0.25)
    _, trace = run_dynamics(s0, 1.0, step_semi_implicit)
    arr = trace.as_arrays()
    assert np.max(np.abs(arr["F_values"])) < 1e-14
    assert np.max(arr["Q_values"]) < 1e-25


def test_trace_records_free_energy_of_each_accepted_state(bump_state):
    made = []

    def recording(s, dt):
        made.append(step_semi_implicit(s, dt))
        return made[-1]

    _, trace = run_dynamics(bump_state, 1.0, recording)
    counts = trace.step_counts
    assert counts["error_rejected"] > 0 and counts["F_halved"] == 0
    assert len(made) == counts["accepted"] + counts["error_rejected"]
    # the accepted candidate at each recorded time is the last one made at it
    accepted = {s.t: s for s in made}
    assert trace.F_values[0] == free_energy(bump_state)
    for t, F in zip(trace.times[1:], trace.F_values[1:]):
        assert F == free_energy(accepted[t])


def test_one_free_energy_per_accepted_step(bump_state, monkeypatch):
    calls = []

    def counting(s):
        calls.append(s.t)
        return free_energy(s)

    monkeypatch.setattr(dynamics, "free_energy", counting)
    _, trace = run_dynamics(bump_state, 1.0, step_semi_implicit)
    counts = trace.step_counts
    assert counts["error_rejected"] > 0 and counts["F_halved"] == 0
    # initial state plus one per accepted step: an attempt whose local
    # error is rejected never reads F
    assert len(calls) == len(trace.times) == 1 + counts["accepted"]


def test_bump_relaxes_to_core(bump_state, analytic, grid, params):
    send, trace = run_dynamics(bump_state, 50.0, step_semi_implicit)
    arr = trace.as_arrays()
    f_tol = 1e-10 * params.G * params.b**2 / params.d
    assert np.all(np.diff(arr["F_values"]) <= f_tol)
    _, cent = center_profile(send.p)
    mask = np.abs(grid.x) <= 20 * params.zeta
    assert np.max(np.abs(cent.u1 - analytic.u1)[mask]) <= 1e-3 * params.b


def test_dissipation_identity(bump_state, params):
    # Q equals the squared L2 norm of the force-balance residual
    q = dissipation_rate(bump_state)
    r = residual(bump_state.p, bump_state.reference.spec)
    assert q == pytest.approx(r.l2**2, rel=1e-12)
    assert q >= 0
    # -dF/dt matches Q to first order in dt
    dt = 1e-3
    s1 = step_semi_implicit(bump_state, dt)
    df = (free_energy(s1) - free_energy(bump_state)) / dt
    assert -df == pytest.approx(q, rel=0.05)


def test_dissipation_zero_at_static(analytic, spec, params):
    s = DynamicsState(t=0.0, p=analytic, reference=StaticState(analytic, spec))
    scale = (params.G * params.b / params.d) ** 2 * analytic.grid.L
    assert dissipation_rate(s) <= 1e-18 * scale


def test_parity_preserved_for_odd_data(grid, params, analytic, spec):
    # odd initial deviation with the even potential stays odd
    z = params.zeta
    v0 = 0.08 * params.b * (grid.x / z) * np.exp(-grid.x**2 / z**2)
    s0 = DynamicsState(t=0.0, p=analytic.with_correction(v0),
                       reference=StaticState(analytic, spec))
    send, _ = run_dynamics(s0, 5.0, step_semi_implicit)
    u1 = send.p.u1
    assert np.max(np.abs(u1[1:] + u1[1:][::-1])) <= 1e-8 * params.b


def test_steady_state_equivalence(bump_state, params):
    # the relaxation limit satisfies the static force balance: the endpoint
    # sits in the Newton basin and polishes to the static tolerance with
    # negligible further movement
    from pnedge.static import solve_static

    send, _ = run_dynamics(bump_state, 50.0, step_semi_implicit)
    end_res = residual(send.p, send.reference.spec)
    assert end_res.linf <= 1e-4 * params.G * params.b / params.d
    polished = solve_static(send.p, send.reference.spec)
    assert polished.residual.linf <= 1e-10 * params.G * params.b / params.d
    assert polished.iterations == 0  # already below the Newton switch
    moved = np.max(np.abs(polished.profile.u1 - send.p.u1))
    assert moved <= 1e-4 * params.b


def test_integrators_consistent(bump_state):
    from pnedge.validation import _steps

    gaps = []
    for dt in (0.05, 0.025):
        n = round(1.0 / dt)
        sa = _steps(bump_state, n, dt, step_semi_implicit)
        sb = _steps(bump_state, n, dt, step_etd)
        gaps.append(np.max(np.abs(sa.p.v - sb.p.v)))
    assert np.log2(gaps[0] / gaps[1]) >= 0.9


@pytest.mark.parametrize("method,step", [("semi_implicit", step_semi_implicit),
                                         ("etd", step_etd)])
@pytest.mark.parametrize("dt", [0.05, 0.025, 0.3])
def test_march_matches_run_dynamics(bump_state, monkeypatch, method, step, dt):
    """Check 10's fixed-step march (``validation._steps``), taken over the
    run's accepted steps, reaches the run's end state and Q bit for bit,
    whatever the first trial step dt: the attempts the run rejected leave
    nothing in the states it accepts.  On the plateau the run's steps sit
    at the cap, a fixed-step march of its own."""
    from itertools import groupby

    from pnedge.validation import _steps

    assert dynamics._STEPPERS[method] is step  # the name a config gives it
    monkeypatch.setattr(dynamics, "DT", dt)
    ref, trace = run_dynamics(bump_state, 6.0, step)
    assert trace.error_rejections > 0
    cap = dynamics.STEP_CAP / bump_state.reference.spec.max_curvature
    assert trace.dt_history[-2] == cap  # the step before the one clipped to T_end
    got = bump_state
    for step_dt, run in groupby(trace.dt_history[1:]):
        got = _steps(got, len(list(run)), step_dt, step)
    assert got.t == ref.t
    np.testing.assert_array_equal(got.p.v, ref.p.v)
    assert dissipation_rate(got) == trace.Q_values[-1]


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_a_stop_at_t_end_changes_no_step(bump_state, step):
    """A run whose only stop is T_end takes the steps of a run without
    stops, bit for bit, and snapshots its end state."""
    end, trace = run_dynamics(bump_state, 2.0, step)
    end_stopped, stopped = run_dynamics(bump_state, 2.0, step, stops=[2.0])
    assert trace.snapshots == {}
    for key, values in trace.as_arrays().items():
        np.testing.assert_array_equal(stopped.as_arrays()[key], values)
    assert stopped.step_counts == trace.step_counts
    np.testing.assert_array_equal(end_stopped.p.v, end.p.v)
    assert list(stopped.snapshots) == [2.0]
    assert stopped.snapshots[2.0] is end_stopped.p


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_run_lands_on_each_stop_and_resumes_with_the_cut_trial(bump_state, step):
    """One run passes through its stops: the trial step that would pass a
    stop is clipped to land on it, its profile is kept, and the next
    trial is the one the clip cut short.  Up to the first stop the run
    takes the steps of a run to that stop."""
    attempts = {"unbroken": [], "stopped": []}

    def recording(name):
        def stepper(s, dt):
            attempts[name].append((s.t, dt))
            return step(s, dt)
        return stepper

    stops = [0.5, 1.0]
    _, unbroken = run_dynamics(bump_state, 2.0, recording("unbroken"))
    _, trace = run_dynamics(bump_state, 2.0, recording("stopped"), stops=stops)
    assert list(trace.snapshots) == stops
    for t_stop in stops:
        assert np.min(np.abs(np.array(trace.times) - t_stop)) <= 1e-12
        assert t_stop not in unbroken.times
    a, b = attempts["unbroken"], attempts["stopped"]
    i = next(i for i, (t, dt) in enumerate(a) if t + dt > stops[0])
    assert b[:i] == a[:i]
    assert b[i] == (a[i][0], stops[0] - a[i][0])  # clipped to land on the stop
    assert b[i + 1][1] == a[i][1]  # the trial the clip cut short
    to_stop, _ = run_dynamics(bump_state, stops[0], step)
    np.testing.assert_array_equal(trace.snapshots[stops[0]].v, to_stop.p.v)


@pytest.mark.parametrize("stops", [[0.0], [-1.0, 0.5], [0.5, 1.5]])
def test_stops_outside_the_run_are_rejected(bump_state, stops):
    with pytest.raises(ValueError, match="stop times"):
        run_dynamics(bump_state, 1.0, step_semi_implicit, stops=stops)


def test_underflow_carries_trace(bump_state, monkeypatch):
    # force halving to exhaust by demanding a strictly decreasing F with an
    # impossible negative tolerance
    monkeypatch.setattr(dynamics, "F_INCREASE_TOL", -1.0)
    monkeypatch.setattr(dynamics, "MAX_HALVINGS", 3)
    with pytest.raises(TimeStepUnderflowError) as exc:
        run_dynamics(bump_state, 1.0, step_semi_implicit)
    assert exc.value.trace is not None
    assert len(exc.value.trace.times) >= 1


# ---------------------------------------------------------------------------
# step control
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step, other", [(step_semi_implicit, step_etd),
                                         (step_etd, step_semi_implicit)])
def test_local_error_is_the_gap_of_the_pair(bump_state, grid, step, other):
    """A step's local error is the h-weighted L2 norm of the other
    stepper's v+ minus its own, from the same state, and it is O(dt^2)."""
    errors = []
    for dt in (0.004, 0.002, 0.001):
        new = step(bump_state, dt)
        gap = other(bump_state, dt).p.v - new.p.v
        want = np.sqrt(grid.h * np.sum(gap**2))
        assert new.local_error() == pytest.approx(want, rel=1e-9)
        assert new.local_error() == new.local_error()  # kept once read
        errors.append(want)
    assert np.all(np.log2(np.asarray(errors[:-1]) / errors[1:]) >= 1.9)


def test_local_error_of_a_state_no_step_made_raises(bump_state):
    with pytest.raises(ValueError, match="no step"):
        bump_state.local_error()


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
@pytest.mark.parametrize("potential", ["frenkel", "eps_table"])
def test_one_step_at_the_cap_preserves_order(request, analytic, grid, params, step,
                                             potential):
    """The flow preserves order (ROADMAP item 13): the semi-implicit step
    is a positive kernel applied to ``u - dt W'(u)``, which is monotone in
    u while dt max W'' <= 1, and the cap of ``run_dynamics`` is
    ``STEP_CAP / max|W''|`` = 0.8 / max|W''|.  One step at the cap keeps
    two ordered starts (0.05 b and 0.1 b bumps on the arctan core) ordered
    and the larger one monotone.  Under the eps = 0.05 table the arctan
    core is not static, and one step at the cap leaves u1 rising by up to
    2e-5 b (1.6e-5 semi-implicit, 1.8e-5 ETD) within 3.4 zeta of the wrap
    (ROADMAP item 1); the monotone test reads |x| < L/2 there."""
    from pnedge.static import monotonicity_violation

    spec = request.getfixturevalue("spec" if potential == "frenkel" else potential)
    ref = StaticState(analytic, spec)
    cap = dynamics.STEP_CAP / spec.max_curvature
    assert cap * spec.max_curvature < 1.0
    bump = params.b * np.exp(-grid.x**2 / params.zeta**2)
    lo, hi = (step(DynamicsState(t=0.0, p=analytic.with_correction(a * bump), reference=ref),
                   cap).p.u1 for a in (0.05, 0.1))
    assert np.min(hi - lo) >= 0.0
    if potential == "frenkel":
        assert monotonicity_violation(hi) == 0.0
    else:
        assert 0.0 < monotonicity_violation(hi) <= 2e-5 * params.b
    interior = np.abs(grid.x[:-1]) < grid.L / 2.0
    assert np.max(np.diff(hi)[interior]) <= 0.0


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_stiff_table_run_retries_few_steps(step):
    """Under a stiff table (W''(b/4) = 38.9 G/d: 64 samples u = k b/128 of
    ``a (1 + cos 4 pi u/b) - 0.6 a exp(-((u - b/4)/(0.03 b))^2)``,
    a = G b^2 / (4 pi^2 d)) a run at N = 512, L = 100 zeta to T = 2 steps
    at the cap 0.8 / 38.9 = 0.021 once past the start.  It took 168
    (semi-implicit) and 166 (ETD) accepted steps for 2 rejected attempts
    each.  The former fixed step DT = 0.1 made 79 attempts for 40 accepted
    steps: the F guard halved every step from 0.1 to 0.05 and each regrew
    to 0.1."""
    from pnedge.config import dynamics_start, parse_config, run_setup
    from pnedge.errors import MonotonicityWarning, TailWarning
    from pnedge.potential import eval_potential, from_table

    cfg = parse_config(None, {"N": "512", "L_over_zeta": "100"})
    params, grid, _ = run_setup(cfg)
    a = params.G * params.b**2 / (4.0 * np.pi**2 * params.d)
    u = np.arange(64) * params.b / 128.0
    w = a * (1.0 + np.cos(4.0 * np.pi * u / params.b)) - 0.6 * a * np.exp(
        -((u - params.b / 4.0) / (0.03 * params.b)) ** 2)
    spec = from_table(params, np.column_stack([u, w]))
    assert eval_potential(spec, params.b / 4.0, 2) == pytest.approx(38.9, abs=0.1)
    # the core solved under the table is not monotone, and on a box of
    # 100 zeta its correction and those of the run reach the box's ends
    with pytest.warns(TailWarning), pytest.warns(MonotonicityWarning):
        s0 = dynamics_start(cfg, grid, params, spec)
    with pytest.warns(TailWarning):
        _, trace = run_dynamics(s0, 2.0, step)
    counts = trace.step_counts
    assert counts["F_halved"] == 0
    assert counts["error_rejected"] <= 4
    assert trace.dt_history[-2] == dynamics.STEP_CAP / spec.max_curvature


# ---------------------------------------------------------------------------
# per-run and per-state caches
# ---------------------------------------------------------------------------

def _fresh(s):
    """The same state built anew, with no cached invariants."""
    return DynamicsState(t=s.t, p=s.p, reference=s.reference)


def _assert_same_as_fresh(s, steppers=(step_etd,)):
    fresh = _fresh(s)
    assert free_energy(s) == free_energy(fresh)
    for step in steppers:
        assert np.array_equal(step(s, 0.1).p.v, step(fresh, 0.1).p.v)
    assert dissipation_rate(s) == dissipation_rate(fresh)


def _warm(s):
    """Fill the run record and the state's W'(u1) cache."""
    free_energy(s)
    step_etd(s, 0.1)
    step_semi_implicit(s, 0.1)
    dissipation_rate(s)
    return s


def test_cache_rebuilt_for_another_reference(bump_state, grid, params):
    from dataclasses import replace

    ref = bump_state.reference
    other = StaticState(ref.profile.with_correction(
        0.02 * params.b * np.exp(-grid.x**2 / params.zeta**2)), ref.spec)
    s = replace(_warm(bump_state), reference=other)
    _assert_same_as_fresh(s)
    assert free_energy(replace(s, p=other.profile)) == 0.0


def test_cache_rebuilt_for_another_background_or_params(bump_state, params):
    from dataclasses import replace

    from pnedge.params import PhysParams
    from pnedge.potential import frenkel

    s = _warm(bump_state)
    for change in ({"zeta_bg": 1.5 * params.zeta}, {"x0": 0.3}, {"params": PhysParams(G=2.0)}):
        # the potential follows the parameters
        spec = frenkel(change["params"]) if "params" in change else s.reference.spec
        moved = replace(s, p=replace(s.p, **change), reference=StaticState(
            replace(s.reference.profile, **change), spec))
        _assert_same_as_fresh(moved, steppers=(step_etd, step_semi_implicit))


def test_cache_rebuilt_for_another_potential(bump_state, params):
    from dataclasses import replace

    from pnedge.potential import eval_potential, from_table, frenkel

    u = np.linspace(0.0, params.b / 2.0, 64, endpoint=False)
    table = from_table(params, np.column_stack([u, 2.0 * eval_potential(frenkel(params), u, 0)]))
    s = replace(_warm(bump_state), reference=StaticState(bump_state.reference.profile, table))
    _assert_same_as_fresh(s, steppers=(step_etd, step_semi_implicit))
    assert free_energy(replace(s, p=s.reference.profile)) == 0.0


@pytest.mark.parametrize("method", ["semi_implicit", "etd"])
def test_one_potential_evaluation_per_accepted_step(bump_state, monkeypatch, method):
    from pnedge import static

    calls = []
    original = dynamics.eval_potential

    def counting(spec, u, order=0):
        calls.append(order)
        return original(spec, u, order)

    monkeypatch.setattr(dynamics, "eval_potential", counting)
    monkeypatch.setattr(static, "eval_potential", counting)
    _, trace = run_dynamics(bump_state, 1.0, dynamics._STEPPERS[method])
    counts = trace.step_counts
    assert counts["error_rejected"] > 0 and counts["F_halved"] == 0
    # W(u1) and W'(u1) of each accepted state in one call, and W(u1*) once,
    # when the start's F first reads it; the local error needs no potential,
    # so an attempt it rejects evaluates none
    assert calls == [(0, 1), 0] + [(0, 1)] * counts["accepted"]


def test_free_energy_leaves_w_prime_and_no_w(bump_state):
    """F evaluates W and W' at the state's u1 in one call and leaves the
    state W'(u1), with the bits of its own evaluation; a second F, with
    W'(u1) made, evaluates W alone and gives the same bits."""
    from pnedge.potential import eval_potential

    s = step_etd(bump_state, 0.1)
    before = set(vars(s))
    F = free_energy(s)
    assert set(vars(s)) - before == {"_wp_u1"}
    u1 = s._run.bg + s.p.v
    assert np.array_equal(s._wp_u1, eval_potential(s.reference.spec, u1, 1))
    assert free_energy(s) == F
    fresh = _fresh(s)
    vars(fresh)["_v_hat"] = s._v_hat  # the step's spectrum, not rfft(irfft(v_hat))
    assert np.array_equal(fresh._wp_u1, s._wp_u1)  # W'(u1) made before F
    assert free_energy(fresh) == F


def _assert_free_energy_is_the_perturbed_energy(ref, method):
    from pnedge.energy import Perturbation, reduced_perturbed_energy

    grid, params = ref.profile.grid, ref.profile.params
    assert free_energy(DynamicsState(t=0.0, p=ref.profile, reference=ref)) == 0.0
    eps, h = np.finfo(float).eps, grid.h
    v0 = 0.1 * params.b * np.exp(-grid.x**2 / params.zeta**2)
    s = DynamicsState(t=0.0, p=ref.profile.with_correction(ref.profile.v + v0), reference=ref)
    for _ in range(21):
        E = reduced_perturbed_energy(Perturbation(grid, s.p.v - ref.profile.v), ref)
        assert abs(free_energy(s) - E) <= eps * (h * np.sum(np.abs(ref.w)) + abs(E))
        s = dynamics._STEPPERS[method](s, 0.1)


@pytest.mark.parametrize("method", ["semi_implicit", "etd"])
def test_free_energy_at_a_solved_reference(grid, params, spec, method):
    """F is the energy difference E(u1) - E(u1*): the slip-plane energy of
    the perturbation v - v* about the reference
    (:func:`pnedge.energy.reduced_perturbed_energy`), and 0.0 at the
    reference.  The reference is a solved one with a correction v* (solved
    from a background of width 0.8 zeta, max|v*| = 0.018 b) under Frenkel.
    Over 20 steps of each stepper from a 0.1 b bump, the two differ by at
    most 0.33 eps (h sum|W(u1*)| + |E|) in these runs; the bound is 1."""
    from pnedge.profile import Profile
    from pnedge.static import solve_static

    ref = solve_static(Profile(grid=grid, params=params, zeta_bg=0.8 * params.zeta), spec)
    assert np.max(np.abs(ref.profile.v)) > 0.01 * params.b
    _assert_free_energy_is_the_perturbed_energy(ref, method)


@pytest.mark.parametrize("method", ["semi_implicit", "etd"])
def test_free_energy_at_a_reference_that_is_not_static(grid, params, eps_table, method):
    """F is the same energy difference for a reference with the state's
    background that is not static: the arctan core under the eps = 0.05
    table.  The two differ by at most 0.13 eps (h sum|W(u1*)| + |E|) over
    20 steps of each stepper in these runs; the bound is 1."""
    from pnedge.profile import analytic_profile

    ref = StaticState(analytic_profile(grid, params), eps_table)
    assert ref.residual.linf > 1e-3 * params.G * params.b / params.d  # not static
    _assert_free_energy_is_the_perturbed_energy(ref, method)


# ---------------------------------------------------------------------------
# the box's translation energy F = -pi c0 b^2 s^2 / (96 L^2)
# ---------------------------------------------------------------------------

def _translation_run(step, L_over=200.0, N=4096, bump=0.1, nu=0.25, shifts=None):
    """A T = 50 run from ``config.dynamics_start``; returns its start, end
    and trace.  With ``shifts`` given, it maps the time of each state the
    stepper makes to the state's zero crossing minus the reference's."""
    from pnedge.config import dynamics_start, parse_config, run_setup
    from pnedge.static import zero_crossing

    cfg = parse_config(None, {"L_over_zeta": str(L_over), "N": str(N),
                              "dynamics_bump_amp": str(bump), "nu": str(nu)})
    params, grid, spec = run_setup(cfg)
    s0 = dynamics_start(cfg, grid, params, spec)
    x_ref = zero_crossing(s0.reference.profile)

    def recording(s, dt):
        new = step(s, dt)
        shifts[new.t] = zero_crossing(new.p) - x_ref
        return new

    if shifts is not None:
        shifts[s0.t] = zero_crossing(s0.p) - x_ref
    end, trace = run_dynamics(s0, 50.0, step if shifts is None else recording)
    return s0, end, trace


def _translation_law(s0, shift):
    """``-pi c0 b^2 s^2 / (96 L^2)`` for a shift s of the reference, L = ``Grid1D.L``."""
    params, grid = s0.p.params, s0.p.grid
    return -np.pi * params.c0 * params.b**2 * np.square(shift) / (96.0 * grid.L**2)


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
@pytest.mark.parametrize("L_over, N, bump, nu", [(200, 4096, 0.1, 0.25),
                                                 (400, 8192, 0.05, 0.25),
                                                 (400, 8192, 0.15, 0.3)])
def test_end_state_has_the_translation_energy(step, L_over, N, bump, nu):
    """Under Frenkel the relaxed state is the reference translated by s,
    and its F is the box's translation energy ``-pi c0 b^2 s^2 / (96 L^2)``.
    The relative gap (F - law)/law read 7.70e-6 / 5.06e-6 (semi-implicit /
    ETD) at (200 zeta, 4096), 1.85e-6 / 1.19e-6 at (400 zeta, 8192) and
    2.07e-6 / 1.41e-6 there at nu = 0.3: 0.19 to 0.33 (zeta/L)^2, falling
    as L^-2 as a next image term would.  The bound is 0.5 (zeta/L)^2."""
    from pnedge.static import zero_crossing

    s0, end, trace = _translation_run(step, L_over, N, bump, nu)
    law = _translation_law(s0, zero_crossing(end.p) - zero_crossing(s0.reference.profile))
    assert abs((trace.F_values[-1] - law) / law) <= 0.5 / L_over**2


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_free_energy_stays_above_the_translation_energy(step):
    """Along the default run F(t) is the translation energy of the state's
    offset s(t) plus a part that decays to zero: F(t) >= law(s(t)) - tol at
    every accepted step.  The least F - law read -4.46e-12 (semi-implicit)
    and -2.87e-12 (ETD) G b^2 / d, both at t = 50, where the law's L^-2
    remainder is largest; tol is 1e-11 G b^2 / d."""
    shifts = {}
    s0, _, trace = _translation_run(step, shifts=shifts)
    params = s0.p.params
    law = _translation_law(s0, np.array([shifts[t] for t in trace.times]))
    tol = 1e-11 * params.G * params.b**2 / params.d
    assert np.min(np.asarray(trace.F_values) - law) >= -tol


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_end_offset_of_the_default_run(step):
    """The default run's end offset s (its zero crossing minus the
    reference's, at T = 50) against a fixed-step reference.  The
    reference, 0.336448 b, is a two-level Richardson extrapolation of
    fixed-step marches to T = 50 over dt = 0.025, 0.0125 and 0.00625 (one
    level: ``2 s(dt/2) - s(dt)``, two: ``(4 R(dt/2) - R(dt)) / 3``): it
    reads 0.3364488 (semi-implicit) and 0.3364480 (ETD), and over dt =
    0.05 to 0.0125 0.3364539 and 0.3364482.  The controlled runs are off
    by +1.6e-4 and -2.0e-4 b, where fixed steps of DT = 0.1 were off by
    +7.0e-3 and +3.7e-3 b.  The bound is twice the larger, 4e-4 b."""
    from pnedge.static import zero_crossing

    s0, end, _ = _translation_run(step)
    offset = zero_crossing(end.p) - zero_crossing(s0.reference.profile)
    assert abs(offset - 0.336448 * s0.p.params.b) <= 4e-4 * s0.p.params.b


# ---------------------------------------------------------------------------
# spectral state and run record
# ---------------------------------------------------------------------------

def _count_transforms(monkeypatch):
    """Calls of ``operators.rfft`` and ``operators.irfft``, counted under
    every name a pnedge module binds them to."""
    from pnedge import operators

    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        fn = getattr(operators, name)
        counted = _counted(calls, name, fn)
        for mod in list(sys.modules.values()):
            if mod.__name__.split(".")[0] == "pnedge" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("method, rows", [("semi_implicit", 1), ("etd", 2)])
def test_transforms_per_accepted_step(bump_state, monkeypatch, method, rows):
    calls = _count_transforms(monkeypatch)
    inverted = []
    irfft = dynamics.irfft

    def counted_rows(grid, f_hat):
        inverted.append(1 if f_hat.ndim == 1 else len(f_hat))
        return irfft(grid, f_hat)

    monkeypatch.setattr(dynamics, "irfft", counted_rows)
    _, trace = run_dynamics(bump_state, 1.0, dynamics._STEPPERS[method])
    attempts = sum(trace.step_counts.values())
    assert attempts > trace.step_counts["accepted"]  # the run retried some steps
    # per step attempt, accepted or not: the rfft of the force and one
    # irfft, of v_hat+ and for ETD also of |xi| v_hat+ for the residual,
    # and none for the local error; rfft(v) of the start, rfft(v*) of the
    # run record, the start's residual once and F's (-d_xx)^{1/2} u1* (the
    # reference's, through pnedge.static)
    assert calls == {"rfft": attempts + 3, "irfft": attempts + 2}
    assert sum(inverted) == attempts * rows + 1


@pytest.mark.parametrize("method", ["semi_implicit", "etd"])
def test_three_transforms_per_accepted_step(bump_state, monkeypatch, method):
    calls = []

    def counting(transform):
        def counted(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)
        return counted

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    _, trace = run_dynamics(bump_state, 1.0, dynamics._STEPPERS[method])
    attempts = sum(trace.step_counts.values())
    assert attempts > trace.step_counts["accepted"]  # the run retried some steps
    # at most three per step attempt (test_transforms_per_accepted_step
    # pins them) and three for the start, and no complex transform
    assert len(calls) <= 3 * attempts + 3
    assert set(calls) <= {"rfft", "irfft"}


@pytest.mark.parametrize("N", [4096, 16384])
@pytest.mark.parametrize("potential", ["frenkel", "eps_table"])
@pytest.mark.parametrize("dt", [0.1, 0.05])
def test_residual_off_the_step_equation_within_its_bound(request, params, N, potential, dt):
    """A semi-implicit state reads its residual off the step's equation,
    within 2 eps (max|v| (1/dt + c0 max|xi|) + max|W'|) of the transformed
    one, and keeps it in place of its handoff; an ETD state's Q keeps the
    transform route."""
    from pnedge.operators import dot
    from pnedge.profile import analytic_profile

    grid = build_grid(N / 4096 * 200.0 * params.zeta, N)  # the default spacing
    core = analytic_profile(grid, params)
    spec = request.getfixturevalue("spec" if potential == "frenkel" else potential)
    v0 = 0.1 * params.b * np.exp(-grid.x**2 / params.zeta**2)
    s = DynamicsState(t=0.0, p=core.with_correction(v0), reference=StaticState(core, spec))
    eps, c0 = np.finfo(float).eps, params.c0
    for _ in range(20):
        new = step_semi_implicit(s, dt)
        v, wp, step_dt = new._handoff  # the arrays of the state stepped from
        assert v is s.p.v and wp is s._wp_u1 and step_dt == dt
        got = new.residual()
        assert new._handoff is got  # the handoff is read once, its result kept
        assert new.residual() is got
        bound = 2.0 * eps * (np.max(np.abs(s.p.v)) * (1.0 / dt + c0 * grid.xi_r[-1])
                             + np.max(np.abs(s._wp_u1)))
        assert np.max(np.abs(got.samples - residual(new.p, spec).samples)) <= bound
        s = new

    s = step_etd(s, dt)
    lam = np.fft.irfft(grid.xi_r * s._v_hat, N) + s._run.lam_bg
    r = residual(s.p, spec, wp=s._wp_u1, lam=lam).samples
    assert dissipation_rate(s) == grid.h * dot(r, r)


@pytest.mark.parametrize("N", [512, 16384])
def test_etd_residual_reads_the_batched_row_bit_for_bit(params, spec, N):
    """An ETD state's residual reads (-d_xx)^{1/2} v off the second row of
    its step's batched irfft; it has the bits of the one-row route, and
    the first row has those of irfft(v_hat)."""
    from pnedge.profile import analytic_profile

    grid = build_grid(N / 4096 * 200.0 * params.zeta, N)  # the default spacing
    core = analytic_profile(grid, params)
    v0 = 0.1 * params.b * np.exp(-grid.x**2 / params.zeta**2)
    s = DynamicsState(t=0.0, p=core.with_correction(v0), reference=StaticState(core, spec))
    for _ in range(5):
        s = step_etd(s, 0.1)
        assert s._handoff.base is s.p.v.base  # the second row of the step's irfft
        assert np.array_equal(s.p.v, np.fft.irfft(s._v_hat, N))
        lam = np.fft.irfft(grid.xi_r * s._v_hat, N) + s._run.lam_bg
        want = residual(s.p, spec, wp=s._wp_u1, lam=lam).samples
        assert np.array_equal(s.residual().samples, want)


@pytest.mark.parametrize("made", ["hand", "semi_implicit", "etd",
                                  "chained_semi_implicit", "chained_etd"])
def test_residual_reads_repeat_bit_for_bit(bump_state, made):
    """Every route of ``DynamicsState.residual`` gives the same bits on each
    read, before and after the state starts a run: a state made by hand,
    one made by either step, and the start of a chained run, the state an
    earlier run ended in.
    Once the run has dropped the start's caches, it keeps the spectrum it
    had and its residual."""
    method = made.removeprefix("chained_")
    step = dynamics._STEPPERS.get(method, step_etd)  # a hand-made state runs by ETD
    if made == "hand":
        s = bump_state
    elif made == method:
        s = step(bump_state, 0.1)
    else:
        s, trace = run_dynamics(bump_state, 0.5, step)
        assert dissipation_rate(s) == trace.Q_values[-1]
    want = s.residual().samples.copy()
    assert np.array_equal(s.residual().samples, want)
    v_hat = s._v_hat
    _, trace = run_dynamics(s, s.t + 0.3, step)
    assert "_wp_u1" not in vars(s)  # dropped once the run stepped past it
    assert s._v_hat is v_hat
    for _ in range(2):
        assert np.array_equal(s.residual().samples, want)
    assert dissipation_rate(s) == trace.Q_values[0]


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_carried_spectrum_matches_transform_of_samples(bump_state, step):
    s = bump_state
    for _ in range(20):
        s = step(s, 0.1)
    v_hat = np.fft.rfft(s.p.v)
    assert np.max(np.abs(s._v_hat - v_hat)) <= 1e-12 * np.max(np.abs(v_hat))


def test_replace_never_carries_a_stale_spectrum(bump_state, grid, params):
    from dataclasses import replace

    s = step_etd(step_semi_implicit(bump_state, 0.1), 0.1)  # spectrum built by steps
    other = 0.05 * params.b * np.exp(-(grid.x - 2.0 * params.zeta) ** 2 / params.zeta**2)
    for moved in (replace(s, p=s.p.with_correction(other)), replace(s, p=s.p),
                  replace(s, t=3.0)):
        _assert_same_as_fresh(moved, steppers=(step_etd, step_semi_implicit))
        assert np.array_equal(moved._v_hat, np.fft.rfft(moved.p.v))


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_run_record_is_read_only(bump_state, step):
    from dataclasses import fields

    s = bump_state
    for _ in range(10):
        s = step(s, 0.1)
    inv = s._run
    arrays = [getattr(inv, f.name) for f in fields(inv)
              if isinstance(getattr(inv, f.name), np.ndarray)]
    assert inv._symbols  # the symbols of the step size taken
    arrays += list(inv._symbols.values())
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_stepped_state_matches_one_rebuilt_by_replace(bump_state, step):
    """The state that ``replace`` builds from a step's samples, spectrum
    and run record has the successor's fields, F, Q, v and v_hat."""
    from dataclasses import fields, replace

    s = step(step(bump_state, 0.1), 0.1)
    new = step(s, 0.1)
    rebuilt = replace(s, t=s.t + 0.1, p=s.p.with_correction(new.p.v))
    vars(rebuilt).update(_run=s._run, _v_hat=new._v_hat)
    if step is step_semi_implicit:  # the handoff Q is read off
        vars(rebuilt)["_handoff"] = new._handoff
    assert type(new) is DynamicsState and type(new.p) is type(s.p)
    assert new.t == rebuilt.t and new.reference is rebuilt.reference
    for f in fields(s.p):
        assert getattr(new.p, f.name) is getattr(rebuilt.p, f.name)
    assert new._run is s._run
    assert free_energy(new) == free_energy(rebuilt)
    assert dissipation_rate(new) == dissipation_rate(rebuilt)
    assert np.array_equal(new._wp_u1, rebuilt._wp_u1)
    assert np.array_equal(new._v_hat, rebuilt._v_hat)


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_step_with_large_tails_warns_once(grid, params, analytic, spec, step):
    """The successor's correction gets the tail test of a profile."""
    import warnings

    from pnedge.errors import TailWarning
    from pnedge.profile import TAIL_TOL

    # a bump on the node x = -L, so |v| there is 10 TAIL_TOL b
    v0 = 10.0 * TAIL_TOL * params.b * np.exp(-(grid.x - grid.x[0]) ** 2 / params.zeta**2)
    with pytest.warns(TailWarning):
        s = DynamicsState(t=0.0, p=analytic.with_correction(v0),
                          reference=StaticState(analytic, spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = step(s, 0.1)
    assert abs(new.p.v[0]) > TAIL_TOL * params.b
    assert [w.category for w in caught] == [TailWarning]


@pytest.mark.parametrize("method, dt", [("semi_implicit", 0.1), ("etd", 0.1),
                                        ("semi_implicit", 2.0), ("etd", 3.0)])
def test_buffers_never_alias_an_accepted_state(bump_state, monkeypatch, method, dt):
    made = []  # every candidate, with copies of its values when it was made
    step = dynamics._STEPPERS[method]

    def recording(s, step_dt):
        cand = step(s, step_dt)
        made.append((cand, cand.p.v.copy(), cand._v_hat.copy()))
        return cand

    monkeypatch.setattr(dynamics, "DT", dt)
    _, trace = run_dynamics(bump_state, 6.0, recording)
    if dt > 1.0:
        assert len(made) > len(trace.times) - 1  # the run retried some steps
    for t, F, Q in zip(trace.times[1:], trace.F_values[1:], trace.Q_values[1:]):
        s, v, v_hat = [m for m in made if m[0].t == t][-1]  # the accepted candidate
        assert np.array_equal(s.p.v, v)
        assert np.array_equal(s._v_hat, v_hat)
        assert free_energy(s) == F
        assert dissipation_rate(s) == Q


@pytest.mark.parametrize("T_end", [float("inf"), float("nan"), 0.0, -1.0])
def test_run_rejects_bad_end_time(bump_state, T_end):
    with pytest.raises(ValueError, match="T_end"):
        run_dynamics(bump_state, T_end, step_semi_implicit)


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_step_rejects_nonfinite_dt(bump_state, step, dt):
    with pytest.raises(ValueError, match="time step"):
        step(bump_state, dt)


@pytest.mark.parametrize("change", [
    {"zeta_bg": 1.5}, {"x0": 0.3},
    # the same N on half the domain, and another shear modulus
    {"grid": build_grid(100.0 * PhysParams().zeta, 4096)}, {"params": PhysParams(G=2.0)},
])
def test_state_rejects_reference_with_another_background(bump_state, change):
    from dataclasses import replace

    moved = replace(bump_state.p, **change)
    assert all(getattr(moved, k) != getattr(bump_state.p, k) for k in change)
    with pytest.raises(ValueError, match="background"):
        DynamicsState(t=0.0, p=moved, reference=bump_state.reference)
    with pytest.raises(ValueError, match="background"):
        replace(bump_state, p=moved)


def test_relaxation_demo_script_runs(pnedge_env, params):
    script = Path(__file__).resolve().parents[1] / "scripts" / "relaxation_demo.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=pnedge_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    err = re.search(r"after centering: (\S+)", proc.stdout)
    assert err is not None, proc.stdout
    assert float(err.group(1)) <= 1e-3 * params.b
    assert "energy monotone: True" in proc.stdout


# ---------------------------------------------------------------------------
# check 10: each trajectory marched once
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite():
    from pnedge.config import RunConfig
    from pnedge.validation import SuiteContext

    return SuiteContext(RunConfig())


@pytest.fixture(scope="module")
def check10_rows(suite):
    from pnedge.validation import check_dynamics

    return {r.name: r for r in check_dynamics(suite)}


def _counted(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return counted


def _marched_chain_sum(s0, dt):
    """Check 10's chain-rule sum at step dt by its own march."""
    checkpoints = (0.5, 1.0, 2.0, 3.0, 4.0)
    s = s0
    total = 0.0
    nsteps = int(round(max(checkpoints) / dt)) + 1
    for k in range(nsteps):
        tn = k * dt
        hit = any(abs(tn - tc) < 0.25 * dt for tc in checkpoints)
        if hit:
            Fb, Qb = free_energy(s), dissipation_rate(s)
        s = step_semi_implicit(s, dt)
        if hit:
            total += abs((free_energy(s) - Fb) / dt + Qb)
    return total


def test_check_dynamics_counts_its_steps(suite, check10_rows, monkeypatch):
    """The T = 50 run makes 332 step attempts (329 accepted, 3 rejected by
    their local error); the chain rule marches 41 + 81 + 161 fixed steps,
    whose dt = 0.05 and 0.025 marches stand in for the semi-implicit gap
    runs, then 80 semi-implicit and 20 + 40 + 80 ETD gap steps; F once per
    accepted run state and twice per checkpoint of three marches."""
    from pnedge import validation

    calls = {}
    for name in ("step_semi_implicit", "step_etd"):
        monkeypatch.setattr(validation, name, _counted(calls, "step", getattr(validation, name)))
    counted = _counted(calls, "free_energy", free_energy)
    monkeypatch.setattr(validation, "free_energy", counted)
    monkeypatch.setattr(dynamics, "free_energy", counted)
    rows = validation.check_dynamics(suite)
    assert calls == {"step": 332 + 503, "free_energy": 1 + 329 + 30}
    assert [(r.name, r.actual) for r in rows] == [(n, r.actual) for n, r in check10_rows.items()]


def test_check_dynamics_counts_its_transforms(suite, check10_rows, monkeypatch):
    """Check 10 reads the residual of its 329 + 15 monitored semi-implicit
    states off their steps' equations, with no transform.  Each of its 835
    step attempts takes one rfft and one irfft, and the local errors of
    the run's none; the start's spectrum (twice), the run record and the
    centring take 5 more rffts, the start's residual and the centring an
    irfft each, and the reference's (-d_xx)^{1/2} u1*, which F reads, one
    of each.  Its 140 unmonitored ETD gap steps make the (-d_xx)^{1/2} v
    row in their one irfft each and never read it."""
    from pnedge import validation

    calls = _count_transforms(monkeypatch)
    rows = validation.check_dynamics(suite)
    assert calls == {"rfft": 835 + 6, "irfft": 835 + 3}
    assert [(r.name, r.actual) for r in rows] == [(n, r.actual) for n, r in check10_rows.items()]


def test_check_dynamics_chain_sum_off_the_trace_is_the_marched_one(suite, check10_rows):
    """Check 10's dt = 0.1 chain-rule sum is that of a march of its own;
    the run's controlled steps never stand in for it."""
    from pnedge.config import dynamics_start

    s0 = dynamics_start(suite.cfg, suite.grid, suite.params, suite.spec)
    bound = check10_rows["10.dynamics.chain_rule_bound"].actual
    assert bound == _marched_chain_sum(s0, 0.1) / 0.1


@pytest.mark.parametrize("why", ["run ends at t = 2", "run halves its first step"])
def test_check_dynamics_marches_when_the_trace_cannot_stand_in(suite, check10_rows,
                                                               monkeypatch, why):
    """Check 10 marches its three chain-rule runs whatever its controlled
    run does, ending early or halving its first step, and its chain-rule
    and gap rows keep their bits."""
    from pnedge import validation
    from pnedge.config import RunConfig

    ctx = suite
    if why == "run ends at t = 2":
        ctx = validation.SuiteContext(RunConfig(dynamics_T_end=2.0))
    else:
        run_calls = []

        # the run's second F is that of its first candidate whose local
        # error is within the tolerance
        def rejects_first_candidate(s):
            run_calls.append(s.t)
            return np.inf if len(run_calls) == 2 else free_energy(s)

        monkeypatch.setattr(dynamics, "free_energy", rejects_first_candidate)
    calls = {}
    monkeypatch.setattr(validation, "free_energy",
                        _counted(calls, "free_energy", free_energy))
    rows = {r.name: r for r in validation.check_dynamics(ctx)}
    assert list(rows) == list(check10_rows)
    # three chain-rule marches of five checkpoints, not two
    assert calls == {"free_energy": 30}
    for name in ("chain_rule_order", "chain_rule_bound", "integrator_gap_order"):
        key = "10.dynamics." + name
        assert rows[key].actual == check10_rows[key].actual
    if why == "run halves its first step":
        assert run_calls[2] == 0.5 * run_calls[1]  # the run retried its first step halved


def test_check_dynamics_under_a_table(tmp_path, eps_table_rows):
    """Check 10 under the eps = 0.05 table, where the arctan core is not
    static: the start solves the core under the table and takes that as
    its reference, so F decays, the chain rule is first order and the
    semi-implicit/ETD gap halves with dt, and the run relaxes to the solved
    core (5.3e-6 b)."""
    from pnedge.config import RunConfig
    from pnedge.errors import MonotonicityWarning
    from pnedge.validation import SuiteContext, check_dynamics

    table = tmp_path / "potential.csv"
    table.write_text("u,W\n" + "".join(f"{u:.17g},{w:.17g}\n" for u, w in eps_table_rows))
    with pytest.warns(MonotonicityWarning):  # the suite's tanh solve under the table
        ctx = SuiteContext(RunConfig(potential=f"table:{table}"))
    # the start's solve under the table rings across the wrap (ROADMAP item 1)
    with pytest.warns(MonotonicityWarning):
        rows = {r.name: r for r in check_dynamics(ctx)}
    for name in ("F_nonincreasing", "relaxation", "chain_rule_order", "chain_rule_bound",
                 "integrator_gap_order"):
        assert rows["10.dynamics." + name].passed, rows["10.dynamics." + name]
