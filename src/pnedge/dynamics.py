"""Gradient-flow dynamics of the slip-plane displacement.

The overdamped evolution

    ``d_t u1 = -c0 (-d_xx)^{1/2} u1 - W'(u1)``

relaxes the trace toward the static core while the bulk stays slaved to
it (quasi-static half-planes: fields are re-derived from the trace on
demand).  With ``u1 = u_bg + v`` it is ``d_t v = -c0 (-d_xx)^{1/2} v - g(v)``
under the one force ``g(v) = c0 (-d_xx)^{1/2} u_bg + W'(u_bg + v)``.  Two
integrators share it, and the splitting ``A = c0 (-d_xx)^{1/2} + I``,
``T(v) = v - g(v)`` of ``d_t v = -A v + T(v)``:

* semi-implicit: stiff linear part implicit, the force g explicit;
* ETD1: exact integrating factor ``e^{-A dt}`` with the Duhamel term
  frozen over the step.

Both have every static solution as an exact fixed point of the discrete
update, and neither reads a reference profile.  The free energy relative
to a reference profile u1* with the state's background is the energy
difference

    ``F(v) = (c0/2) |v - v*|^2_{H^1/2} + c0 int (v - v*) (-d_xx)^{1/2} u1*
    + int [W(u1) - W(u1*)]``,

F(u1*) = 0, whether or not u1* is static.  It decays along trajectories
with rate ``Q = int R^2 dx`` (squared residual of the force balance).  A
run takes its stepper (:func:`step_semi_implicit` or :func:`step_etd`) and
steps of :data:`DT`; its guard on F is the module constants
:data:`F_INCREASE_TOL` and :data:`MAX_HALVINGS`.

On the periodic box a relaxed state is the reference translated by s,
the offset of its zero crossing, and F tends to the box's translation
energy ``-pi c0 b^2 s^2 / (96 L^2)`` (L = ``Grid1D.L``) whatever the
core's shape: the translation mode's eigenvalue on the box is negative,
so F falls below zero.  Under Frenkel, at T = 50 from
:func:`pnedge.config.dynamics_start`, (F - law)/law is 7.7e-6 / 5.1e-6
(semi-implicit / ETD) at (200 zeta, 4096) and at most 2.1e-6 at
(400 zeta, 8192), and F(t) >= law(s(t)) - 4.5e-12 G b^2 / d along the
default run.  The law is measured, not derived; under a table it misses
by 0.2 to 2%.

Only v changes along a trajectory, so the rest is evaluated once.  A
state makes its samples v (on the profile), their spectrum
``v_hat = rfft(v)`` and ``W'(u1)`` once each, and a run makes its record
(:class:`_RunInvariants`) once, from the reference.  A step builds its
successor through the constructors and hands it the record, ``v_hat`` and
what the successor's residual reads; :meth:`DynamicsState.residual` states
its three routes.  The reference (:class:`~pnedge.static.StaticState`)
holds the potential and keeps ``W(u1*)`` and ``(-d_xx)^{1/2} u1*``, which
only F reads, and it must share the state's grid, parameters,
``zeta_bg`` and ``x0``.

An accepted step makes 2 N-point transforms in 2 calls by the
semi-implicit method, the rfft of the force g and the irfft of
``v_hat+``, and 3 in 2 calls by ETD: the rfft of g and the batched
irfft of ``v_hat+`` and ``|xi| v_hat+`` (numpy builds a transform plan
on every call, so one call of two rows is cheaper than two).  F's
seminorm is a Parseval sum over ``v_hat - v_hat*`` and needs none; its
``(-d_xx)^{1/2} u1*`` is the reference's, made once.  The
step evaluates the potential once: F reads ``W(u1)`` at the state's own
``u1 = u_bg + v`` from the call that gives the state ``W'(u1)``, which
the next step and the residual read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TimeStepUnderflowError
from .operators import dot, irfft, rfft, seminorm_weights
from .potential import eval_potential
from .profile import Profile
from .static import (
    ResidualField,
    StaticState,
    _read_only,
    _residual_after_step,
    residual,
    semi_implicit_update,
)


@dataclass(frozen=True, eq=False)
class DynamicsState:
    """Trace state at time t; the background of ``p`` is fixed, v evolves."""

    t: float
    p: Profile
    reference: StaticState  # u1* of F, and the potential of the flow
    _handoff = None  # what the step that made the state left its residual

    def __post_init__(self):
        """Reject a missing reference, or one with another grid, parameters or background."""
        if not isinstance(self.reference, StaticState):
            raise ValueError("a dynamics state needs a reference static state")
        p, q = self.p, self.reference.profile
        if (p.grid, p.params, p.zeta_bg, p.x0) != (q.grid, q.params, q.zeta_bg, q.x0):
            raise ValueError("reference grid, parameters or background is not the state's")

    @cached_property
    def _run(self) -> _RunInvariants:
        """The run record of the reference; a step sets its successor's."""
        return _RunInvariants.of(self.reference)

    @cached_property
    def _wp_u1(self) -> np.ndarray:
        """W'(u1) on the grid; :func:`free_energy` sets it when it comes first."""
        return eval_potential(self.reference.spec, self._run.bg + self.p.v, 1)

    @cached_property
    def _v_hat(self) -> np.ndarray:
        """``rfft`` of the correction v; a step sets its successor's."""
        return rfft(self.p.v)

    def residual(self) -> ResidualField:
        """:func:`pnedge.static.residual` of the state, by the route its
        handoff (what the step that made it left) selects:

        * :func:`step_semi_implicit` leaves ``(v, W'(u), dt)``, the arrays
          of the state stepped from (not copies), and the residual is read
          off the step's equation, ``R(u+) = (v - v+)/dt + W'(u+) - W'(u)``
          (:func:`pnedge.static._residual_after_step`), with no transform.
          It agrees with the transform route to
          ``2 eps (max|v| (1/dt + c0 max|xi|) + max|W'(u)|)``.  The first
          read replaces the handoff by its result, so every later read
          gives the same bits and the arrays are released.
        * :func:`step_etd` leaves ``(-d_xx)^{1/2} v``, the second row of
          the step's batched irfft of ``v_hat+`` and ``|xi| v_hat+``, whose
          rows are the bits of two single calls.
        * a state made by hand or by ``dataclasses.replace`` has none and
          takes ``irfft(|xi| v_hat)``, one irfft a read.

        The last two take ``c0 ((-d_xx)^{1/2} v + (-d_xx)^{1/2} u_bg)
        + W'(u1)`` on every read and keep nothing.
        """
        handoff = self._handoff
        if isinstance(handoff, tuple):
            v, wp, dt = handoff
            r, _ = _residual_after_step(self.reference.spec, self._run.bg, v, self.p.v,
                                        dt, wp, self._wp_u1)
            handoff = vars(self)["_handoff"] = ResidualField(self.p.grid, r)
        if isinstance(handoff, ResidualField):
            return handoff
        lam_v = handoff
        if lam_v is None:
            grid = self.p.grid
            lam_v = irfft(grid, grid.xi_r * self._v_hat)
        return residual(self.p, self.reference.spec, wp=self._wp_u1,
                        lam=lam_v + self._run.lam_bg)


@dataclass(frozen=True, eq=False)
class _RunInvariants:
    """What stays fixed along a trajectory, every array read-only: the
    reference, the background u_bg on the grid, ``(-d_xx)^{1/2} u_bg`` and
    its multiple by c0 (the background part of the force g), ``v_hat*``,
    the seminorm weights of F and the update symbols of the latest
    (kernel, step size)."""

    reference: StaticState
    bg: np.ndarray
    lam_bg: np.ndarray
    c0_lam_bg: np.ndarray
    v_hat_star: np.ndarray
    hs_weights: np.ndarray  # seminorm weights of F, one per (re, im) entry of a mode
    _symbols: dict = field(default_factory=dict)  # latest (kernel, dt) -> stacked symbols

    @classmethod
    def of(cls, ref: StaticState) -> _RunInvariants:
        p = ref.profile
        lam_bg = p.half_laplacian_background()
        arrays = (p.background_on_grid(), lam_bg, p.params.c0 * lam_bg, rfft(p.v),
                  np.repeat(seminorm_weights(p.grid, 0.5), 2))
        return cls(ref, *map(_read_only, arrays))

    def symbols(self, kernel, dt: float) -> np.ndarray:
        """Symbols of v and of the force g in the update ``kernel`` at step dt;
        the kernels are linear, so they are its values at unit ``v_hat`` and
        at unit force."""
        symbols = self._symbols.get((kernel, dt))
        if symbols is None:
            p = self.reference.profile
            q, c0 = p.grid.xi_r, p.params.c0
            symbols = _read_only(np.stack([kernel(1.0, 0.0, dt, c0, q),
                                           kernel(0.0, 1.0, dt, c0, q)]))
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
    """F = E(u1) - E(u1*) relative to the reference profile; F(u1*) = 0.

    W is evaluated at the state's ``u1 = u_bg + v``, the point of its
    ``W'(u1)``; with a zero reference correction v* that is ``u1* + (v -
    v*)`` bit for bit.  A state yet to make ``W'(u1)`` gets it from the
    same call and keeps it; W is not kept."""
    inv, ref = s._run, s.reference
    c0, h = s.p.params.c0, s.p.grid.h
    # |v_hat - v_hat*|^2 per mode: the squares of its (re, im) pairs
    d = (s._v_hat - inv.v_hat_star).view(float)
    quad = 0.5 * c0 * dot(inv.hs_weights, np.square(d, out=d))
    if "_wp_u1" in vars(s):
        w = eval_potential(ref.spec, inv.bg + s.p.v, 0)
    else:
        w, vars(s)["_wp_u1"] = eval_potential(ref.spec, inv.bg + s.p.v, (0, 1))
    w -= ref.w
    mis = h * float(np.sum(w))
    lin = c0 * h * dot(np.subtract(s.p.v, ref.profile.v, out=w), ref.lam)  # u1 - u1*
    return quad + lin + mis


def dissipation_rate(s: DynamicsState) -> float:
    """Q = squared L2 norm of the force-balance residual; nonnegative."""
    return s.residual().l2_squared


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def etd_update(v_hat, g_hat, dt, c0, q):
    """Kernel: exact integrating factor with the remainder ``T = v - g``
    frozen over the step (ETD1).

    ``v+ = e^{-a dt} v + phi (v - g)``, ``phi = (1 - e^{-a dt})/a``,
    ``a = c0 |xi| + 1 >= 1``.
    """
    a = c0 * q + 1.0
    decay = np.exp(-a * dt)
    return decay * v_hat + (1.0 - decay) / a * (v_hat - g_hat)


def _check_positive(what: str, value: float) -> None:
    """Reject a time step or end time ``value`` that is not positive and finite."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _advance(s: DynamicsState, dt: float, kernel, handoff=None) -> DynamicsState:
    """One step of the linear update ``kernel`` under the force
    ``g = c0 (-d_xx)^{1/2} u_bg + W'(u1)``: ``v_hat+ = S_v v_hat + S_g rfft(g)``
    with the kernel's symbols at dt, summed on the modes; one rfft and one
    irfft.  The successor keeps ``handoff`` for its residual
    (:meth:`DynamicsState.residual`).  Without one the irfft inverts the
    stack of ``v_hat+`` and ``|xi| v_hat+``, and the handoff is the second
    row, the successor's ``(-d_xx)^{1/2} v``."""
    s_v, s_g = s._run.symbols(kernel, dt)
    v_hat = s._v_hat * s_v
    g_hat = rfft(s._run.c0_lam_bg + s._wp_u1)
    g_hat *= s_g
    v_hat += g_hat
    grid = s.p.grid
    if handoff is None:  # one batched call, not two: numpy plans every call anew
        v, handoff = irfft(grid, np.stack([v_hat, grid.xi_r * v_hat]))
    else:
        v = irfft(grid, v_hat)
    new = DynamicsState(s.t + dt, s.p.with_correction(v), s.reference)
    vars(new).update(_run=s._run, _v_hat=v_hat, _handoff=handoff)  # the step's products
    return new


def step_semi_implicit(s: DynamicsState, dt: float) -> DynamicsState:
    """One semi-implicit step (:func:`pnedge.static.semi_implicit_update`);
    first order, unconditionally stable in the linear part, static profile
    exactly stationary."""
    _check_positive("time step", dt)
    return _advance(s, dt, semi_implicit_update, handoff=(s.p.v, s._wp_u1, dt))


def step_etd(s: DynamicsState, dt: float) -> DynamicsState:
    """One ETD1 step (:func:`etd_update`) of the flow under its force g.

    Exact when the remainder ``T = v - g`` is constant over the step; a
    static profile is exactly stationary.  The successor's v and
    ``(-d_xx)^{1/2} v`` are the rows of one irfft.
    """
    _check_positive("time step", dt)
    return _advance(s, dt, etd_update)


_STEPPERS = {"semi_implicit": step_semi_implicit, "etd": step_etd}


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
        r = state.residual()
        return r.l2_squared, r.linf

    # Once stepped past, the start state's caches only hold memory.  W'(u1)
    # and a spectrum the state has yet to make recompute bit for bit; one a
    # step handed it (rfft(irfft(v_hat)) is not v_hat) or a caller made stays,
    # and so does the state's handoff.
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
