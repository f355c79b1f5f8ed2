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
run takes its stepper (:func:`step_semi_implicit` or :func:`step_etd`);
its steps are set by their local error, and its limits are the module
constants :data:`DT`, :data:`ERR_TOL`, :data:`STEP_CAP`,
:data:`F_INCREASE_TOL` and :data:`MAX_HALVINGS`.

Step control.  Both kernels are first order and linear in the same
``v_hat`` and force spectrum ``g_hat``, so the one rfft of g that a step
takes gives both ``v_hat+``.  Their difference is an O(dt^2) local error
estimate (an embedded pair: Hairer, Norsett and Wanner, Solving ODEs I,
II.4; Whalen, Brio and Moloney, J. Comput. Phys. 280, 2015), and its
h-weighted L2 norm is a Parseval sum over the rfft modes, so the estimate
costs no transform and no potential evaluation
(:meth:`DynamicsState.local_error`, read only by :func:`run_dynamics`).
A step whose error exceeds ``tol = ERR_TOL b d^{1/2}`` is retried at
``dt max(0.2, 0.9 (tol/err)^{1/2})``; an accepted one is followed by a
trial of ``dt min(2, 0.9 (tol/err)^{1/2})``.  :data:`DT` is the first
trial, and no step exceeds ``STEP_CAP / max|W''|``, ``max|W''|`` over the
static sweep's probe of the wells
(:attr:`pnedge.potential.PotentialSpec.max_curvature`).

The cap keeps the steps order-preserving: the semi-implicit step applies
a positive kernel to ``u - dt W'(u)``, which is monotone in u while
``dt max W'' <= 1``, and 0.8 leaves room under that bound.  It also sets
how closely the run's F meets the translation law below, which is
measured on the plateau where the run steps at the cap.  Over the six
cases of ``test_end_state_has_the_translation_energy`` ((200 zeta, 4096),
(400 zeta, 8192) at bumps 0.05 and 0.15, nu 0.25 and 0.3, both steppers)
``|F - law| / |law| (L/zeta)^2`` read:

    ==========================  =========  =================
    steps                       gap        bound 0.5
    ==========================  =========  =================
    fixed DT = 0.1              0.19-0.33  met
    capped at 0.8 / max|W''|    0.28-0.44  met
    capped at 1 / max|W''|      0.35-0.56  one case fails
    capped at 1.8 / max|W''|    0.48-0.65  five cases fail
    ==========================  =========  =================

At the relax size (N = 16384, L = 800 zeta, default bump, T = 50) the
end offset against a Richardson reference of 0.33391 +- 3e-5 b, and the
accepted (error-rejected) steps, read:

    ==========================  ================  ================
    steps                       semi-implicit     ETD
    ==========================  ================  ================
    fixed DT = 0.1              500, +7.4e-3      500, +4.0e-3
    capped at 0.8 / max|W''|    329 (3), +8.4e-4  327 (3), +4.1e-4
    capped at 1.8 / max|W''|    195 (3), +8.1e-4  193 (3), +3.7e-4
    ==========================  ================  ================

On the periodic box a relaxed state is the reference translated by s,
the offset of its zero crossing, and F tends to the box's translation
energy ``-pi c0 b^2 s^2 / (96 L^2)`` (L = ``Grid1D.L``) whatever the
core's shape: the translation mode's eigenvalue on the box is negative,
so F falls below zero.  Under Frenkel, at T = 50 from
:func:`pnedge.config.dynamics_start`, (F - law)/law is 1.03e-5 / 7.4e-6
(semi-implicit / ETD) at (200 zeta, 4096) and at most 2.8e-6 at
(400 zeta, 8192), and F(t) >= law(s(t)) - 6.7e-12 G b^2 / d along the
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

A step attempt makes 2 N-point transforms in 2 calls by the
semi-implicit method, the rfft of the force g and the irfft of
``v_hat+``, and 3 in 2 calls by ETD: the rfft of g and the batched
irfft of ``v_hat+`` and ``|xi| v_hat+`` (numpy builds a transform plan
on every call, so one call of two rows is cheaper than two).  F's
seminorm is a Parseval sum over ``v_hat - v_hat*`` and needs none; its
``(-d_xx)^{1/2} u1*`` is the reference's, made once.  An accepted step
evaluates the potential once: F reads ``W(u1)`` at the state's own
``u1 = u_bg + v`` from the call that gives the state ``W'(u1)``, which
the next step and the residual read; a step its local error rejects
evaluates none.  The symbols of a step size are made once and kept
until a step of another size, so a fixed-step march makes them once and
a controlled run once a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TimeStepUnderflowError
from .operators import dot, irfft, mode_weights, rfft, seminorm_weights
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
    _estimate = None  # what the step that made the state left its local error

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

    def local_error(self) -> float:
        """The step's local error estimate: the h-weighted L2 norm of the
        other first-order kernel's ``v+`` minus the state's, from the same
        start and force spectrum.  Both kernels are linear in ``v_hat`` and
        ``g_hat``, so the difference is ``E_v v_hat + E_g g_hat`` with the
        symbols' differences, and its norm is a Parseval sum over
        :func:`~pnedge.operators.mode_weights`, with no transform.  The
        first read replaces the step's spectra by the result.  A state that
        no step made has none, and raises ``ValueError``."""
        estimate = self._estimate
        if estimate is None:
            raise ValueError("a state that no step made has no local error estimate")
        if isinstance(estimate, tuple):
            v_hat, d, e_v, e_g = estimate  # d: the step's rfft(g), the state's own
            d *= e_g
            d += v_hat * e_v
            d = d.view(float)
            estimate = vars(self)["_estimate"] = math.sqrt(
                dot(self._run.l2_weights, np.square(d, out=d)))
        return estimate


@dataclass(frozen=True, eq=False)
class _RunInvariants:
    """What stays fixed along a trajectory, every array read-only: the
    reference, the background u_bg on the grid, ``(-d_xx)^{1/2} u_bg`` and
    its multiple by c0 (the background part of the force g), ``v_hat*``,
    the seminorm weights of F, the L2 weights of the local error and the
    update symbols of the latest (kernel, step size)."""

    reference: StaticState
    bg: np.ndarray
    lam_bg: np.ndarray
    c0_lam_bg: np.ndarray
    v_hat_star: np.ndarray
    hs_weights: np.ndarray  # seminorm weights of F, one per (re, im) entry of a mode
    l2_weights: np.ndarray  # L2 weights of the local error, likewise
    _symbols: dict = field(default_factory=dict)  # latest (kernel, dt) -> stacked symbols

    @classmethod
    def of(cls, ref: StaticState) -> _RunInvariants:
        p = ref.profile
        lam_bg = p.half_laplacian_background()
        arrays = (p.background_on_grid(), lam_bg, p.params.c0 * lam_bg, rfft(p.v),
                  np.repeat(seminorm_weights(p.grid, 0.5), 2),
                  np.repeat(mode_weights(p.grid), 2))
        return cls(ref, *map(_read_only, arrays))

    def symbols(self, kernel, dt: float) -> np.ndarray:
        """Symbols of v and of the force g in the update ``kernel`` at step dt,
        then those of the other kernel of the pair minus them; the kernels
        are linear, so they are their values at unit ``v_hat`` and at unit
        force, one stacked call each."""
        symbols = self._symbols.get((kernel, dt))
        if symbols is None:
            p = self.reference.profile
            q, c0 = p.grid.xi_r, p.params.c0
            own = kernel(_UNIT_V, _UNIT_G, dt, c0, q)
            other = _PAIR[kernel](_UNIT_V, _UNIT_G, dt, c0, q)
            other -= own
            symbols = _read_only(np.concatenate([own, other]))
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
    snapshots: dict = field(default_factory=dict)  # stop time -> profile of the state there
    error_rejections: int = 0  # attempts whose local error exceeded the tolerance
    f_halvings: int = 0  # attempts that raised F and were halved

    @property
    def step_counts(self) -> dict:
        """Accepted, error-rejected and F-halved step attempts of the run."""
        return {"accepted": max(len(self.times) - 1, 0),
                "error_rejected": self.error_rejections, "F_halved": self.f_halvings}

    def record(self, t, F, Q, res, dt):
        self.times.append(t)
        self.F_values.append(F)
        self.Q_values.append(Q)
        self.residual_norms.append(res)
        self.dt_history.append(dt)

    def as_arrays(self):
        return {k: np.asarray(getattr(self, k), dtype=float)
                for k in ("times", "F_values", "Q_values", "residual_norms", "dt_history")}


#: first trial step of :func:`run_dynamics`
DT = 0.1
#: local error, in units of ``b d^{1/2}``, that :func:`run_dynamics` lets a step make
ERR_TOL = 1e-5
#: the steps of :func:`run_dynamics` are at most ``STEP_CAP / max|W''|``
STEP_CAP = 0.8
#: rise of F, in units of ``G b^2 / d``, beyond which a step of
#: :func:`run_dynamics` is halved
F_INCREASE_TOL = 1e-10
#: retries of a step of :func:`run_dynamics`, shrunk or halved, before it raises
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


#: each kernel's partner in the local error estimate
_PAIR = {semi_implicit_update: etd_update, etd_update: semi_implicit_update}
#: unit ``v_hat`` and unit force, stacked: a kernel's symbols in one call
_UNIT_V, _UNIT_G = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])


def _check_positive(what: str, value: float) -> None:
    """Reject a time step or end time ``value`` that is not positive and finite."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _advance(s: DynamicsState, dt: float, kernel, handoff=None) -> DynamicsState:
    """One step of the linear update ``kernel`` under the force
    ``g = c0 (-d_xx)^{1/2} u_bg + W'(u1)``: ``v_hat+ = S_v v_hat + S_g rfft(g)``
    with the kernel's symbols at dt, summed on the modes; one rfft and one
    irfft.  The successor keeps ``handoff`` for its residual
    (:meth:`DynamicsState.residual`), and ``v_hat``, ``rfft(g)`` and the
    symbol differences for its local error (:meth:`DynamicsState.local_error`).
    Without a handoff the irfft inverts the stack of ``v_hat+`` and
    ``|xi| v_hat+``, and the handoff is the second row, the successor's
    ``(-d_xx)^{1/2} v``."""
    s_v, s_g, e_v, e_g = s._run.symbols(kernel, dt)
    g_hat = rfft(s._run.c0_lam_bg + s._wp_u1)
    v_hat = s._v_hat * s_v
    v_hat += g_hat * s_g
    grid = s.p.grid
    if handoff is None:  # one batched call, not two: numpy plans every call anew
        v, handoff = irfft(grid, np.stack([v_hat, grid.xi_r * v_hat]))
    else:
        v = irfft(grid, v_hat)
    new = DynamicsState(s.t + dt, s.p.with_correction(v), s.reference)
    vars(new).update(_run=s._run, _v_hat=v_hat, _handoff=handoff,  # the step's products
                     _estimate=(s._v_hat, g_hat, e_v, e_g))
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


def run_dynamics(s0: DynamicsState, T_end: float, step,
                 stops=()) -> tuple[DynamicsState, DynamicsTrace]:
    """March to T_end by ``step`` (a stepper such as :func:`step_etd`) in
    steps its local error sets, recording F, Q and the residual per
    accepted step.

    The first trial step is :data:`DT`, and no step exceeds
    :data:`STEP_CAP` ``/ max|W''|``
    (:attr:`pnedge.potential.PotentialSpec.max_curvature`) or the time
    left.  An attempt whose local error (:meth:`DynamicsState.local_error`)
    exceeds :data:`ERR_TOL` ``b d^{1/2}`` is retried at
    ``dt max(0.2, 0.9 (tol/err)^{1/2})``; one that raises F beyond
    :data:`F_INCREASE_TOL` ``G b^2 / d`` is retried halved.  After
    :data:`MAX_HALVINGS` retries of one step the run raises
    :class:`TimeStepUnderflowError` carrying the partial trace.  An
    accepted step of dt is followed by a trial of
    ``dt min(2, 0.9 (tol/err)^{1/2})``.

    The run passes through every time of ``stops``, each in
    ``(s0.t, T_end]``: a trial step that would pass a stop is clipped to
    land on it, the profile of the state there goes into
    ``trace.snapshots`` under the stop's time, and the run resumes with
    the trial step the clip cut short.  A stop at T_end alone changes no
    step.
    """
    _check_positive("T_end", T_end)
    stops = sorted({float(t) for t in stops})
    if stops and not (s0.t < stops[0] and stops[-1] <= T_end):
        raise ValueError(f"stop times must lie in (t0, T_end] = ({s0.t}, {T_end}], "
                         f"got {stops}")
    targets = sorted({*stops, T_end})  # popped as the run lands on each
    prm = s0.p.params
    f_tol = F_INCREASE_TOL * prm.G * prm.b**2 / prm.d
    err_tol = ERR_TOL * prm.b * math.sqrt(prm.d)
    dt_cap = STEP_CAP / s0.reference.spec.max_curvature

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

    dt = min(DT, dt_cap)
    while s.t < T_end - 1e-12:
        step_dt = min(dt, targets[0] - s.t)
        for _ in range(MAX_HALVINGS + 1):
            cand = step(s, step_dt)
            err = cand.local_error()
            if not err <= err_tol:  # a NaN error is rejected too
                trace.error_rejections += 1
                step_dt *= max(0.2, 0.9 * math.sqrt(err_tol / err))
                continue
            F_new = free_energy(cand)
            if F_new <= F + f_tol:
                break
            trace.f_halvings += 1
            step_dt *= 0.5
        else:
            raise TimeStepUnderflowError(
                f"time step underflow at t={s.t:.6g} after {MAX_HALVINGS} retries",
                trace=trace,
            )
        s, F = cand, F_new  # the accepted candidate's F is the new state's
        for key in stale:
            vars(s0).pop(key, None)
        stale = []
        if s.t < targets[0] - 1e-12:  # after landing on a stop, retry the trial it cut short
            grow = min(2.0, 0.9 * math.sqrt(err_tol / err)) if err > 0.0 else 2.0
            dt = min(dt_cap, step_dt * grow)
        Q, res_linf = norms(s)
        trace.record(s.t, F, Q, res_linf, step_dt)
        while targets and s.t >= targets[0] - 1e-12:
            t_stop = targets.pop(0)
            if t_stop in stops:
                trace.snapshots[t_stop] = s.p
    return s, trace
