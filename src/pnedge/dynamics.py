"""Gradient-flow dynamics of the slip-plane displacement.

The overdamped evolution

    ``d_t u1 = -c0 (-d_xx)^{1/2} u1 - W'(u1)``

relaxes the trace toward the static core while the bulk stays slaved to
it (quasi-static half-planes: fields are re-derived from the trace on
demand).  Two integrators share the splitting ``A = c0 (-d_xx)^{1/2} + I``,
``T(v) = v - W'(v + u1*) + W'(u1*)``:

* semi-implicit: stiff linear part implicit, potential force explicit;
* ETD1: exact integrating factor ``e^{-A dt}`` with the Duhamel term
  frozen over the step.

Both have the static solution as an exact fixed point of the discrete
update.  The free energy relative to a reference static profile,

    ``F(v) = (c0/2) |v|^2_{H^1/2} - int v W'(u1*) + int [W(v+u1*) - W(u1*)]``,

decays along trajectories with rate ``Q = int R^2 dx`` (squared residual
of the force balance).  A run takes its stepper (:func:`step_semi_implicit`
or :func:`step_etd`) and steps of :data:`DT`; its guard on F is the module
constants :data:`F_INCREASE_TOL` and :data:`MAX_HALVINGS`.

Only v changes along a trajectory, so the rest is evaluated once:

* per state, the samples v (on the profile), their spectrum
  ``v_hat = rfft(v)`` and ``W'(u1)`` are each made once.  A step builds
  its successor's ``v_hat`` on the modes and hands it on with the new
  state; the monitor's residual of an accepted state and the next step's
  force read the same ``W'(u1)``.
* the successor itself is built directly, not by
  ``dataclasses.replace``: its profile and state keep the grid,
  parameters, background and reference of the state stepped from, so
  their constructors' checks have nothing new to see, and only the
  :class:`~pnedge.errors.TailWarning` test of the new v is made.
  ``replace`` keeps every check.
* per run, a private record on :class:`DynamicsState` holds the
  reference, the background u_bg on the grid and ``(-d_xx)^{1/2} u_bg``,
  ``u1*``, ``v_hat*``, the seminorm weights of F, the update symbols of
  the latest (kernel, step size), and two work buffers, one of samples
  and one of spectrum.  Steps pass it on; a state with another reference
  builds a new one.  The reference (:class:`~pnedge.static.StaticState`)
  holds the potential and keeps ``W(u1*)`` and ``W'(u1*)``, and it must
  share the state's grid, parameters, ``zeta_bg`` and ``x0``.

An accepted step thus makes 3 N-point transforms, for either method: the
rfft of the force (g, or T for ETD), the irfft of ``v_hat+``, and the
irfft of ``|xi| v_hat`` for the monitor's residual.  F's seminorm is a
Parseval sum over ``v_hat - v_hat*`` and needs none.  The step evaluates
the potential twice: ``W'(u1)`` and, in F, ``W(u1)``.

The work buffers hold what one call needs only until it returns: the
force and its spectrum, F's deviation and difference spectrum, and the
residual's ``(-d_xx)^{1/2} u1``.  Besides the arrays the new state keeps
(v, ``v_hat`` and ``W'(u1)``), an accepted step allocates only W(u1) in
F, the argument ``u_bg + v`` of ``W'(u1)``, the residual's samples and
the products summed by the three fixed-order inner products
(:func:`pnedge.operators.dot`: F's linear term and seminorm, and Q),
each freed within the step.  The buffers make one run record unfit for
use from two threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TimeStepUnderflowError
from .operators import dot, irfft, rfft, seminorm_weights
from .potential import eval_potential
from .profile import Profile
from .static import ResidualField, StaticState, residual, semi_implicit_update


@dataclass(frozen=True)
class DynamicsState:
    """Trace state at time t; the background of ``p`` is fixed, v evolves."""

    t: float
    p: Profile
    reference: StaticState  # u1* of F, Q and ETD, and the potential of the flow
    _run: _RunInvariants | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        """Reject a missing reference, or one with another grid, parameters or background."""
        if not isinstance(self.reference, StaticState):
            raise ValueError("a dynamics state needs a reference static state")
        p, q = self.p, self.reference.profile
        if (p.grid, p.params, p.zeta_bg, p.x0) != (q.grid, q.params, q.zeta_bg, q.x0):
            raise ValueError("reference grid, parameters or background is not the state's")

    def _invariants(self) -> _RunInvariants:
        """The run record, rebuilt if it was made for another reference."""
        inv = self._run
        if inv is None or inv.reference is not self.reference:
            inv = _RunInvariants.of(self.reference)
            # a cache: it changes no value the state compares or prints
            object.__setattr__(self, "_run", inv)
        return inv

    @cached_property
    def _wp_u1(self) -> np.ndarray:
        """W'(u1) on the grid."""
        return eval_potential(self.reference.spec, self._invariants().bg + self.p.v, 1)

    @cached_property
    def _v_hat(self) -> np.ndarray:
        """``rfft`` of the correction v; a step sets its successor's."""
        return rfft(self.p.v)


@dataclass(frozen=True)
class _RunInvariants:
    """What stays fixed along a trajectory, and its work buffers; see the
    module docstring."""

    reference: StaticState
    bg: np.ndarray
    lam_bg: np.ndarray
    u_star: np.ndarray
    v_hat_star: np.ndarray
    hs_weights: np.ndarray  # seminorm weights of F, one per (re, im) entry of a mode
    work: np.ndarray
    work_hat: np.ndarray
    _symbols: dict = field(default_factory=dict)  # latest (kernel, dt) -> stacked symbols

    @classmethod
    def of(cls, ref: StaticState) -> _RunInvariants:
        p = ref.profile
        return cls(ref, p.background_on_grid(), p.half_laplacian_background(), p.u1,
                   rfft(p.v), np.repeat(seminorm_weights(p.grid, 0.5), 2),
                   np.empty(p.grid.N), np.empty(p.grid.N // 2 + 1, dtype=complex))

    def symbols(self, kernel, dt: float) -> np.ndarray:
        """Symbols of v and of the force in the update ``kernel`` at step dt;
        the kernels are linear, so they are its values at unit ``v_hat`` and
        at unit force."""
        symbols = self._symbols.get((kernel, dt))
        if symbols is None:
            p = self.reference.profile
            q, c0 = p.grid.xi_r, p.params.c0
            symbols = np.stack([kernel(1.0, 0.0, dt, c0, q), kernel(0.0, 1.0, dt, c0, q)])
            self._symbols.clear()  # keep the latest step size only
            self._symbols[(kernel, dt)] = symbols
        return symbols


@dataclass
class DynamicsTrace:
    """Per-accepted-step series of the monitored quantities."""

    times: list = field(default_factory=list)
    F_values: list = field(default_factory=list)
    Q_values: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    dt_history: list = field(default_factory=list)

    def record(self, t, F, Q, res, dt):
        self.times.append(t)
        self.F_values.append(F)
        self.Q_values.append(Q)
        self.residual_norms.append(res)
        self.dt_history.append(dt)

    def as_arrays(self):
        return {k: np.asarray(getattr(self, k), dtype=float)
                for k in ("times", "F_values", "Q_values", "residual_norms", "dt_history")}


#: time step of :func:`run_dynamics`, and the most a halved step regrows to
DT = 0.1
#: rise of F, in units of ``G b^2 / d``, beyond which a step of
#: :func:`run_dynamics` is halved
F_INCREASE_TOL = 1e-10
#: halvings of a step of :func:`run_dynamics` before it raises
MAX_HALVINGS = 20


def free_energy(s: DynamicsState) -> float:
    """F relative to the reference static profile; F(u1*) = 0."""
    inv, ref = s._invariants(), s.reference
    h = s.p.grid.h
    v = np.subtract(s.p.v, ref.profile.v, out=inv.work)  # u1 - u1*, in the buffer
    lin = -h * dot(v, ref.wp)
    w = eval_potential(ref.spec, np.add(inv.u_star, v, out=v), 0)  # W(u1* + v)
    w -= ref.w
    mis = h * float(np.sum(w))
    # |v_hat - v_hat*|^2 per mode: the squares of its (re, im) pairs
    d = np.subtract(s._v_hat, inv.v_hat_star, out=inv.work_hat).view(float)
    quad = 0.5 * s.p.params.c0 * dot(inv.hs_weights, np.square(d, out=d))
    return quad + lin + mis


def _residual(s: DynamicsState) -> ResidualField:
    """:func:`pnedge.static.residual` of the state from its W'(u1) and v_hat."""
    inv, grid = s._invariants(), s.p.grid
    lam = irfft(grid, np.multiply(grid.xi_r, s._v_hat, out=inv.work_hat), out=inv.work)
    lam += inv.lam_bg
    return residual(s.p, s.reference.spec, wp=s._wp_u1, lam=lam)


def _squared_l2(r: ResidualField) -> float:
    return r.grid.h * dot(r.samples, r.samples)


def dissipation_rate(s: DynamicsState) -> float:
    """Q = squared L2 norm of the force-balance residual; nonnegative."""
    return _squared_l2(_residual(s))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def etd_update(v_hat, T_hat, dt, c0, q):
    """Kernel: exact integrating factor with T frozen over the step.

    ``v+ = e^{-a dt} v + (1 - e^{-a dt})/a T``, ``a = c0 |xi| + 1 >= 1``.
    """
    a = c0 * q + 1.0
    decay = np.exp(-a * dt)
    return decay * v_hat + (1.0 - decay) / a * T_hat


def _check_positive(what: str, value: float) -> None:
    """Reject a time step or end time ``value`` that is not positive and finite."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _advance(s: DynamicsState, dt: float, kernel, force: np.ndarray,
             v_hat_star: np.ndarray | None = None) -> DynamicsState:
    """One step of the linear update ``kernel``: ``v_hat+ = S_v (v_hat - v_hat*)
    + S_f rfft(force) + v_hat*`` with the kernel's symbols at dt, summed on
    the modes (without ``v_hat*`` unless given); one rfft and one irfft."""
    inv = s._invariants()
    s_v, s_f = inv.symbols(kernel, dt)
    if v_hat_star is None:
        v_hat = s._v_hat * s_v
    else:
        v_hat = s._v_hat - v_hat_star
        v_hat *= s_v
    f_hat = rfft(force, out=inv.work_hat)
    f_hat *= s_f
    v_hat += f_hat
    if v_hat_star is not None:
        v_hat += v_hat_star
    # built directly (module docstring), with the run record and v_hat in
    # the cache slot of the property
    new = object.__new__(DynamicsState)
    vars(new).update(t=s.t + dt, p=s.p._successor(irfft(s.p.grid, v_hat)),
                     reference=s.reference, _run=inv, _v_hat=v_hat)
    return new


def step_semi_implicit(s: DynamicsState, dt: float) -> DynamicsState:
    """One semi-implicit step (:func:`pnedge.static.semi_implicit_update`);
    first order, unconditionally stable in the linear part, static profile
    exactly stationary."""
    _check_positive("time step", dt)
    inv = s._invariants()
    g = np.multiply(s.p.params.c0, inv.lam_bg, out=inv.work)
    g += s._wp_u1
    return _advance(s, dt, semi_implicit_update, g)


def step_etd(s: DynamicsState, dt: float) -> DynamicsState:
    """One ETD1 step on the deviation from the reference static profile.

    Exact when the nonlinear remainder T is constant over the step.
    T reads W'(u1) at ``u1 = u_bg + v_state``, which equals ``u1* + v``
    up to rounding (exactly when the reference correction is zero).
    """
    _check_positive("time step", dt)
    inv = s._invariants()
    T = np.subtract(s.p.v, s.reference.profile.v, out=inv.work)  # u1 - u1*, in the buffer
    T -= s._wp_u1
    T += s.reference.wp
    return _advance(s, dt, etd_update, T, inv.v_hat_star)


_STEPPERS = {"semi_implicit": step_semi_implicit, "etd": step_etd}


def march(s0: DynamicsState, T_end: float, dt: float, step) -> DynamicsState:
    """Steps of ``dt`` by ``step`` (a stepper such as :func:`step_etd`),
    the last one what is left to ``T_end``, with no monitoring and no
    guard on F: the fixed-step path.  :func:`run_dynamics` takes the same
    steps whenever its guard halves none."""
    _check_positive("T_end", T_end)
    s = s0
    while s.t < T_end - 1e-12:
        s = step(s, min(dt, T_end - s.t))
    return s


def run_dynamics(s0: DynamicsState, T_end: float, step) -> tuple[DynamicsState, DynamicsTrace]:
    """March to T_end by ``step`` (a stepper such as :func:`step_etd`) in
    steps of :data:`DT`, recording F, Q and the residual per accepted step.

    The run guards F: a step that raises F beyond :data:`F_INCREASE_TOL`
    ``G b^2 / d`` is halved and retried (at most :data:`MAX_HALVINGS`
    times; underflow raises :class:`TimeStepUnderflowError` carrying the
    partial trace), and the step regrows to at most twice the accepted one.
    """
    _check_positive("T_end", T_end)
    prm = s0.p.params
    f_tol = F_INCREASE_TOL * prm.G * prm.b**2 / prm.d

    def norms(state):
        r = _residual(state)
        return _squared_l2(r), r.linf

    # Once stepped past, the start state's caches only hold memory.  W'(u1)
    # and a spectrum the state has yet to make recompute bit for bit; one a
    # step handed it (rfft(irfft(v_hat)) is not v_hat) or a caller made stays.
    stale = ["_wp_u1"] + ([] if "_v_hat" in vars(s0) else ["_v_hat"])
    trace = DynamicsTrace()
    s = s0
    F = free_energy(s)
    Q, res_linf = norms(s)
    trace.record(s.t, F, Q, res_linf, 0.0)

    dt = DT
    while s.t < T_end - 1e-12:
        step_dt = min(dt, T_end - s.t)
        for _ in range(MAX_HALVINGS + 1):
            cand = step(s, step_dt)
            F_new = free_energy(cand)
            if F_new <= F + f_tol:
                break
            step_dt *= 0.5
        else:
            raise TimeStepUnderflowError(
                f"time step underflow at t={s.t:.6g} after {MAX_HALVINGS} halvings",
                trace=trace,
            )
        s, F = cand, F_new  # the accepted candidate's F is the new state's
        for key in stale:
            vars(s0).pop(key, None)
        stale = []
        dt = min(DT, 2.0 * step_dt)  # regrow gently after any halving
        Q, res_linf = norms(s)
        trace.record(s.t, F, Q, res_linf, step_dt)
    return s, trace
