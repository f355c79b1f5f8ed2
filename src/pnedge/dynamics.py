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
of the force balance).

Only v changes along a trajectory, so the rest is evaluated once:

* per run, a private record on :class:`DynamicsState` holds the
  background u_bg on the grid, ``(-d_xx)^{1/2} u_bg`` and
  ``c0 (-d_xx)^{1/2} u_bg``, the reference ``u1*`` with ``W(u1*)`` and
  ``W'(u1*)``, and the ETD symbols of each step size used.  Steps pass it
  on to the states they make.  A state whose grid, parameters, ``zeta_bg``,
  ``x0``, reference or potential is not the record's (the grid, the
  reference and the potential compared by identity, the rest by value)
  builds a new one.
* per state, ``W'(u1)`` is evaluated once; the monitor's residual of an
  accepted state and the next step's force read the same array.

An accepted step thus evaluates the potential twice: ``W'(u1)`` and, in
F, ``W(u1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import TimeStepUnderflowError
from .grid import Grid1D
from .operators import apply_symbol, hs_seminorm_grid
from .params import PhysParams
from .potential import PotentialSpec, eval_potential
from .profile import Profile
from .static import residual, semi_implicit_step, semi_implicit_update  # noqa: F401


@dataclass(frozen=True)
class DynamicsState:
    """Trace state at time t; the background of ``p`` is fixed, v evolves."""

    t: float
    p: Profile
    spec: PotentialSpec
    reference: Optional[Profile] = None  # static profile u1* for F, Q and ETD
    _run: Optional[_RunInvariants] = field(default=None, compare=False, repr=False)

    def deviation(self) -> np.ndarray:
        """v = u1 - u1* on the grid (requires matching backgrounds)."""
        if self.reference is None:
            raise ValueError("no reference static profile set")
        ref = self.reference
        if ref.zeta_bg != self.p.zeta_bg or ref.x0 != self.p.x0:
            raise ValueError("reference background differs from the state background")
        return self.p.v - ref.v

    def _invariants(self) -> _RunInvariants:
        """The run record, rebuilt if it was made for another run."""
        inv = self._run
        if inv is None or not inv.fits(self):
            inv = _RunInvariants.of(self)
            # a cache: it changes no value the state compares or prints
            object.__setattr__(self, "_run", inv)
        return inv

    @cached_property
    def _wp_u1(self) -> np.ndarray:
        """W'(u1) on the grid."""
        return eval_potential(self.spec, self._invariants().bg + self.p.v, 1)


@dataclass(frozen=True)
class _RunInvariants:
    """What stays fixed along a trajectory; see the module docstring."""

    grid: Grid1D
    params: PhysParams
    zeta_bg: float
    x0: float
    reference: Optional[Profile]
    spec: PotentialSpec
    bg: np.ndarray
    lam_bg: np.ndarray
    c0_lam_bg: np.ndarray
    u_star: Optional[np.ndarray]  # the reference arrays are None without one
    w_star: Optional[np.ndarray]
    wp_star: Optional[np.ndarray]
    _etd: dict = field(default_factory=dict)  # dt -> stacked ETD symbols

    @classmethod
    def of(cls, s: DynamicsState) -> _RunInvariants:
        p, ref = s.p, s.reference
        lam_bg = p.half_laplacian_background()
        u_star = w_star = wp_star = None
        if ref is not None:
            u_star = ref.u1
            w_star = eval_potential(s.spec, u_star, 0)
            wp_star = eval_potential(s.spec, u_star, 1)
        return cls(p.grid, p.params, p.zeta_bg, p.x0, ref, s.spec,
                   p.background_on_grid(), lam_bg, p.params.c0 * lam_bg,
                   u_star, w_star, wp_star)

    def fits(self, s: DynamicsState) -> bool:
        p = s.p
        return (p.grid is self.grid and p.params == self.params
                and p.zeta_bg == self.zeta_bg and p.x0 == self.x0
                and s.reference is self.reference and s.spec is self.spec)

    def etd_symbols(self, dt: float) -> np.ndarray:
        """Symbols of v and T in the ETD1 update; the kernel is linear, so
        they are its values at unit ``v_hat`` and at unit ``T_hat``."""
        symbols = self._etd.get(dt)
        if symbols is None:
            q, c0 = self.grid.xi_r, self.params.c0
            symbols = np.stack([etd_update(1.0, 0.0, dt, c0, q),
                                etd_update(0.0, 1.0, dt, c0, q)])
            self._etd[dt] = symbols
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


@dataclass(frozen=True)
class RunOptions:
    dt: float = 0.1
    adapt: bool = True
    method: str = "semi_implicit"  # or "etd"
    f_increase_tol: Optional[float] = None  # default 1e-10 * G b^2 / d
    max_halvings: int = 20


def free_energy(s: DynamicsState) -> float:
    """F relative to the reference static profile; F(u1*) = 0."""
    if s.reference is None:
        raise ValueError("free energy needs a reference static profile")
    v = s.deviation()
    grid, prm = s.p.grid, s.p.params
    inv = s._invariants()
    quad = 0.5 * prm.c0 * hs_seminorm_grid(grid, v, 0.5)
    lin = -grid.h * float(np.sum(v * inv.wp_star))
    mis = grid.h * float(np.sum(eval_potential(s.spec, inv.u_star + v, 0) - inv.w_star))
    return quad + lin + mis


def _residual(s: DynamicsState):
    """:func:`pnedge.static.residual` of the state from its cached W'(u1)."""
    return residual(s.p, s.spec, wp=s._wp_u1, lam_bg=s._invariants().lam_bg)


def dissipation_rate(s: DynamicsState) -> float:
    """Q = squared L2 norm of the force-balance residual; nonnegative."""
    r = _residual(s).samples
    return float(s.p.grid.h * np.sum(r * r))


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


def step_semi_implicit(s: DynamicsState, dt: float) -> DynamicsState:
    """One semi-implicit step; first order, unconditionally stable in the
    linear part, static profile exactly stationary."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    p, prm = s.p, s.p.params
    g = s._wp_u1 + s._invariants().c0_lam_bg
    v_new = semi_implicit_step(p.grid, p.v, g, dt, prm.c0)
    return replace(s, t=s.t + dt, p=p.with_correction(v_new))


def step_etd(s: DynamicsState, dt: float) -> DynamicsState:
    """One ETD1 step on the deviation from the reference static profile.

    Exact when the nonlinear remainder T is constant over the step;
    requires ``reference`` (whose background must match the state's).
    T reads W'(u1) at ``u1 = u_bg + v_state``, which equals ``u1* + v``
    up to rounding (exactly when the reference correction is zero).
    """
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if s.reference is None:
        raise ValueError("ETD stepping requires a reference static profile")
    p = s.p
    v = s.deviation()
    inv = s._invariants()
    T = v - s._wp_u1 + inv.wp_star
    v_new = apply_symbol(p.grid, np.stack([v, T]), inv.etd_symbols(dt)).sum(axis=0) + s.reference.v
    return replace(s, t=s.t + dt, p=p.with_correction(v_new))


_STEPPERS = {"semi_implicit": step_semi_implicit, "etd": step_etd}


def run_dynamics(
    s0: DynamicsState, T_end: float, opts: RunOptions | None = None
) -> tuple[DynamicsState, DynamicsTrace]:
    """March to T_end recording F, Q and the residual per accepted step.

    With ``adapt`` on, a step that raises F beyond the tolerance is
    halved and retried (at most ``max_halvings`` times; underflow raises
    :class:`TimeStepUnderflowError` carrying the partial trace).
    """
    if T_end <= 0:
        raise ValueError(f"T_end must be positive, got {T_end}")
    opts = opts or RunOptions()
    stepper = _STEPPERS.get(opts.method)
    if stepper is None:
        raise ValueError(f"unknown method {opts.method!r}")
    prm = s0.p.params
    f_tol = (opts.f_increase_tol if opts.f_increase_tol is not None
             else 1e-10 * prm.G * prm.b**2 / prm.d)
    monitor = s0.reference is not None

    def norms(state):
        r = _residual(state)
        q = float(state.p.grid.h * np.sum(r.samples**2))
        return q, r.linf

    trace = DynamicsTrace()
    s = s0
    F = free_energy(s) if monitor else np.nan
    Q, res_linf = norms(s)
    trace.record(s.t, F, Q, res_linf, 0.0)

    dt = opts.dt
    while s.t < T_end - 1e-12:
        step_dt = min(dt, T_end - s.t)
        for _ in range(opts.max_halvings + 1):
            cand = stepper(s, step_dt)
            F_new = free_energy(cand) if monitor else np.nan
            if not (monitor and opts.adapt) or F_new <= F + f_tol:
                break
            step_dt *= 0.5
        else:
            raise TimeStepUnderflowError(
                f"time step underflow at t={s.t:.6g} after {opts.max_halvings} halvings",
                trace=trace,
            )
        s, F = cand, F_new  # the accepted candidate's F is the new state's
        dt = min(opts.dt, 2.0 * step_dt)  # regrow gently after any halving
        Q, res_linf = norms(s)
        trace.record(s.t, F, Q, res_linf, step_dt)
    return s, trace
