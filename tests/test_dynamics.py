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
    march,
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
    # with T = 0 each mode decays exactly by e^{-a_k t}, a_k = c0|xi_k| + 1
    g = build_grid(10.0, 128)
    c0, dt = 8.0 / 3.0, 0.37
    k1 = g.xi_r[9]
    v = np.sin(k1 * g.x)
    v_hat = etd_update(np.fft.rfft(v), np.zeros(g.N // 2 + 1, complex), dt, c0, g.xi_r)
    out = np.fft.irfft(v_hat, g.N)
    np.testing.assert_allclose(out, v * np.exp(-(c0 * abs(k1) + 1) * dt), atol=1e-13)


def test_etd_kernel_constant_forcing():
    # v' = -a v + T with constant T: v(dt) = e^{-a dt} v0 + (1-e^{-a dt}) T/a
    g = build_grid(10.0, 64)
    c0, dt = 2.0, 0.5
    T = np.full(64, 0.3)
    v_hat = etd_update(np.zeros(33, complex), np.fft.rfft(T), dt, c0, g.xi_r)
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
    # F, Q and ETD all need the reference static profile: a state has one
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
    accepted = []

    def recording(s, dt):
        accepted.append(step_semi_implicit(s, dt))
        return accepted[-1]

    _, trace = run_dynamics(bump_state, 1.0, recording)
    assert len(accepted) == 10  # no halvings: every candidate was accepted
    assert trace.F_values[0] == free_energy(bump_state)
    for F, s in zip(trace.F_values[1:], accepted):
        assert F == free_energy(s)


def test_one_free_energy_per_accepted_step(bump_state, monkeypatch):
    calls = []

    def counting(s):
        calls.append(s.t)
        return free_energy(s)

    monkeypatch.setattr(dynamics, "free_energy", counting)
    _, trace = run_dynamics(bump_state, 1.0, step_semi_implicit)
    assert len(trace.times) == 11
    assert np.all(np.asarray(trace.dt_history[1:]) == 0.1)  # no halvings
    assert len(calls) == 11  # initial state plus one per accepted step


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


def test_integrators_consistent(bump_state, monkeypatch):
    gaps = []
    for dt in (0.05, 0.025):
        monkeypatch.setattr(dynamics, "DT", dt)
        sa, _ = run_dynamics(bump_state, 1.0, step_semi_implicit)
        sb, _ = run_dynamics(bump_state, 1.0, step_etd)
        gaps.append(np.max(np.abs(sa.p.v - sb.p.v)))
    assert np.log2(gaps[0] / gaps[1]) >= 0.9


@pytest.mark.parametrize("method,step", [("semi_implicit", step_semi_implicit),
                                         ("etd", step_etd)])
@pytest.mark.parametrize("dt", [0.05, 0.025, 0.3])
def test_march_matches_run_dynamics(bump_state, monkeypatch, method, step, dt):
    assert dynamics._STEPPERS[method] is step  # the name a config gives it
    monkeypatch.setattr(dynamics, "DT", dt)
    ref, trace = run_dynamics(bump_state, 1.0, step)
    # the guard on F halves no step here, so march must take the same steps
    assert trace.dt_history[1:-1] == [dt] * (len(trace.dt_history) - 2)
    # the accumulated time leaves a last step that is not dt (dt = 0.05:
    # 0.04999999999999971); march must take the same one
    assert trace.dt_history[-1] != dt
    got = march(bump_state, 1.0, dt, step)
    assert got.t == ref.t
    np.testing.assert_array_equal(got.p.v, ref.p.v)


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
def test_two_potential_evaluations_per_accepted_step(bump_state, monkeypatch, method):
    calls = []
    original = dynamics.eval_potential

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "eval_potential", counting)
    _, trace = run_dynamics(bump_state, 1.0, dynamics._STEPPERS[method])
    assert len(trace.times) == 11
    assert np.all(np.asarray(trace.dt_history[1:]) == 0.1)  # no halvings
    # W'(u1) and W(u1) per step; W(u1*), W'(u1*), and W'(u1) and W(u1) of the start
    assert len(calls) <= 2 * 10 + 4


# ---------------------------------------------------------------------------
# spectral state and work buffers
# ---------------------------------------------------------------------------

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
    assert len(trace.times) == 11
    assert np.all(np.asarray(trace.dt_history[1:]) == 0.1)  # no halvings
    # per step: rfft of the force, irfft of v_hat+, irfft of |xi| v_hat for the
    # residual; c = 3: rfft(v) of the start, rfft(v*) of the run record, and
    # the start's residual
    assert len(calls) <= 3 * 10 + 3
    assert set(calls) <= {"rfft", "irfft"}


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_carried_spectrum_matches_transform_of_samples(bump_state, step):
    s = bump_state
    for _ in range(20):
        s = step(s, 0.1)
    v_hat = np.fft.rfft(s.p.v)
    assert np.max(np.abs(s._v_hat - v_hat)) <= 1e-12 * np.max(np.abs(v_hat))


def test_semi_implicit_step_equals_update_about_a_zero_spectrum(bump_state):
    # the step skips the subtraction and addition of a reference spectrum
    from pnedge.dynamics import _advance

    s = bump_state
    for _ in range(5):
        g = s.p.params.c0 * s._invariants().lam_bg + s._wp_u1
        want = _advance(s, 0.1, semi_implicit_update, g, np.zeros_like(s._v_hat))
        s = step_semi_implicit(s, 0.1)
        assert np.array_equal(s._v_hat, want._v_hat)
        assert np.array_equal(s.p.v, want.p.v)


def test_replace_never_carries_a_stale_spectrum(bump_state, grid, params):
    from dataclasses import replace

    s = step_etd(step_semi_implicit(bump_state, 0.1), 0.1)  # spectrum built by steps
    other = 0.05 * params.b * np.exp(-(grid.x - 2.0 * params.zeta) ** 2 / params.zeta**2)
    for moved in (replace(s, p=s.p.with_correction(other)), replace(s, p=s.p),
                  replace(s, t=3.0)):
        _assert_same_as_fresh(moved, steppers=(step_etd, step_semi_implicit))
        assert np.array_equal(moved._v_hat, np.fft.rfft(moved.p.v))


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_stepped_state_matches_one_rebuilt_by_replace(bump_state, step):
    """A step builds its successor without ``replace``; the state that
    ``replace`` builds from the same samples, spectrum and run record
    has the same fields, F, Q, v and v_hat."""
    from dataclasses import fields, replace

    s = step(step(bump_state, 0.1), 0.1)
    new = step(s, 0.1)
    rebuilt = replace(s, t=s.t + 0.1, p=s.p.with_correction(new.p.v))
    object.__setattr__(rebuilt, "_run", s._invariants())
    rebuilt.__dict__["_v_hat"] = new._v_hat
    assert type(new) is DynamicsState and type(new.p) is type(s.p)
    assert new.t == rebuilt.t and new.reference is rebuilt.reference
    for f in fields(s.p):
        assert getattr(new.p, f.name) is getattr(rebuilt.p, f.name)
    assert new._invariants() is s._invariants()
    assert free_energy(new) == free_energy(rebuilt)
    assert dissipation_rate(new) == dissipation_rate(rebuilt)
    assert np.array_equal(new._wp_u1, rebuilt._wp_u1)
    assert np.array_equal(new._v_hat, rebuilt._v_hat)


@pytest.mark.parametrize("step", [step_semi_implicit, step_etd])
def test_step_with_large_tails_warns_once(grid, params, analytic, spec, step):
    """The successor skips the checks of the fields it keeps, not the test
    of its correction's tails."""
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
        assert len(made) > len(trace.times) - 1  # the run halved some steps
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


@pytest.mark.parametrize("T_end", [float("inf"), float("nan"), 0.0, -1.0])
def test_march_rejects_bad_end_time(bump_state, T_end):
    def no_step(s, dt):
        raise AssertionError("march stepped towards a bad T_end")

    with pytest.raises(ValueError, match="T_end must be positive and finite"):
        march(bump_state, T_end, 0.1, no_step)


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
    """The T = 50 run (500 steps) stands in for the dt = 0.1 chain-rule
    march, and the dt = 0.05 and 0.025 marches for the semi-implicit gap
    runs: 500 + 81 + 161 steps, then 80 semi-implicit and 20 + 40 + 80
    ETD gap steps; F once per accepted run state and twice per checkpoint
    of two marches."""
    from pnedge import validation

    calls = {}
    for name in ("step_semi_implicit", "step_etd"):
        monkeypatch.setattr(validation, name, _counted(calls, "step", getattr(validation, name)))
    counted = _counted(calls, "free_energy", free_energy)
    monkeypatch.setattr(validation, "free_energy", counted)
    monkeypatch.setattr(dynamics, "free_energy", counted)
    rows = validation.check_dynamics(suite)
    assert calls == {"step": 962, "free_energy": 521}
    assert [(r.name, r.actual) for r in rows] == [(n, r.actual) for n, r in check10_rows.items()]


def test_check_dynamics_chain_sum_off_the_trace_is_the_marched_one(suite, check10_rows):
    from pnedge.config import dynamics_start

    s0 = dynamics_start(suite.cfg, suite.grid, suite.params, suite.spec)
    bound = check10_rows["10.dynamics.chain_rule_bound"].actual
    assert bound == _marched_chain_sum(s0, 0.1) / 0.1


@pytest.mark.parametrize("why", ["run ends at t = 2", "run halves its first step"])
def test_check_dynamics_marches_when_the_trace_cannot_stand_in(suite, check10_rows,
                                                               monkeypatch, why):
    from pnedge import validation
    from pnedge.config import RunConfig

    ctx = suite
    if why == "run ends at t = 2":
        ctx = validation.SuiteContext(RunConfig(dynamics_T_end=2.0))
    else:
        run_calls = []

        def rejects_first_candidate(s):  # the run's second F is its first candidate's
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
        assert run_calls[1:3] == [0.1, 0.05]  # the run retried its first step halved
