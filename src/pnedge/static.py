"""Static core structure on the slip plane.

Solves the nonlocal force balance

    ``c0 (-d_xx)^{1/2} u1 + W'(u1) = 0``,   ``c0 = 2G/(1-nu)``,

with far field ``u1(-inf) = b/4``, ``u1(+inf) = -b/4``, by a
semi-implicit pseudo-time gradient flow followed by a matrix-free
Newton polish.  A solve has no settings: the flow steps at its stability
cap ``1.8 / max|W''|``, and its limits are the module constants
:data:`MAX_SWEEP_ITERS`, :data:`NEWTON_SWITCH` and :data:`RES_TOL`.
Monotonicity of u1 is a property of the result, tested once and flagged
on the solved state.  The background part of the half-Laplacian uses the
closed form, so the arctan core with ``zeta_bg = d/(2(1-nu))`` is an
exact fixed point of the discretization under the Frenkel potential.

A solve returns a :class:`StaticState`, with its solve record and
residual: the u* of the perturbed energies E(u* + phi) - E(u*) and of
the relaxing dynamics, which read its W, W' and half-Laplacian, made once.

Each residual is evaluated once: the sweep starts from the start
state's, a sweep step makes two transforms because the step's own
equation gives the residual of its result, and the polish steps
:class:`StaticState` s: the solved state is its last accepted trial,
with the W', half-Laplacian and residual that trial made.  The
linearization ``c0 (-d_xx)^{1/2} + W''(u1)``
is symmetric but may be slightly indefinite on the periodic box, so the
polish solves it with MINRES, preconditioned by the inverse of its
far-field part ``c0 |xi| + w0``.  The linearization is that inverse plus
``diag(W''(u1) - w0)`` exactly, so MINRES forms its products from vectors
it holds, and a Krylov iteration makes two transforms, those of the
preconditioner.  The module carries its own :func:`minres`: scipy's
``scipy.sparse.linalg.minres`` recurrence and stopping tests (the
Paige-Saunders algorithm), with every inner product a fixed-order
:func:`~pnedge.operators.dot`, so no BLAS thread count moves its
iterates.  The zero crossing that fixes the translation gauge is found by
bracketed Newton steps on the band-limited interpolant of u1.  Neither
needs scipy, whose import costs more than a whole default solve; scipy is
the tests' reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, MonotonicityWarning
from .grid import Grid1D
from .operators import (
    apply_half_laplacian,
    apply_symbol,
    dot,
    fourier_interpolant,
    fourier_shift,
    inner_h,
    spectral_derivative,
)
from .potential import PotentialSpec, eval_potential, validate_potential
from .profile import Profile, background, background_derivative


#: relative residual at which the inner MINRES solve of a Newton step stops
NEWTON_TOL = 1e-8
#: residual level, in units of ``G b / d``, at which Newton takes over from the sweep
NEWTON_SWITCH = 1e-3
#: residual level, in units of ``G b / d``, at which a solve has converged
RES_TOL = 1e-10
#: sweep steps a solve may take before it raises
MAX_SWEEP_ITERS = 20_000


@dataclass(frozen=True, eq=False)
class ResidualField:
    """Samples and norms of ``R = c0 (-d_xx)^{1/2} u1 + W'(u1)``."""

    grid: Grid1D
    samples: np.ndarray = field(repr=False)

    @property
    def linf(self) -> float:
        return float(np.max(np.abs(self.samples)))

    @property
    def l2_squared(self) -> float:
        return inner_h(self.grid, self.samples, self.samples)

    @property
    def l2(self) -> float:
        return float(np.sqrt(self.l2_squared))


def half_laplacian_profile(p: Profile) -> np.ndarray:
    """``(-d_xx)^{1/2} u1``: closed-form background plus spectral correction."""
    return p.half_laplacian_background() + apply_half_laplacian(p.grid, p.v)


def _check_params(p: Profile, spec: PotentialSpec) -> None:
    """Reject a potential made for other parameters than the profile's."""
    if spec.params != p.params:
        raise ValueError(f"the potential's parameters {spec.params} are not "
                         f"the profile's {p.params}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class StaticState:
    """A static profile under its misfit potential, compared by identity.
    ``w = W(u1)``, ``wp = W'(u1)``, ``wpp = W''(u1)``, ``lam =
    (-d_xx)^{1/2} u1`` and the force-balance ``residual`` are each made
    on first use and kept, read-only.  The potential must be made for the
    profile's parameters.
    :func:`solve_static` sets the solve record of the state it solves;
    a state made here has that of a converged start, ``(iterations,
    newton_steps, monotone) = (0, 0, is_monotone_decreasing(profile))``."""

    profile: Profile
    spec: PotentialSpec
    iterations = newton_steps = 0

    def __post_init__(self):
        _check_params(self.profile, self.spec)

    @cached_property
    def w(self) -> np.ndarray:
        return _read_only(eval_potential(self.spec, self.profile.u1, 0))

    @cached_property
    def wp(self) -> np.ndarray:
        return _read_only(eval_potential(self.spec, self.profile.u1, 1))

    @cached_property
    def wpp(self) -> np.ndarray:
        return _read_only(eval_potential(self.spec, self.profile.u1, 2))

    @cached_property
    def lam(self) -> np.ndarray:
        return _read_only(half_laplacian_profile(self.profile))

    @cached_property
    def residual(self) -> ResidualField:
        rf = residual(self.profile, self.spec, wp=self.wp, lam=self.lam)
        _read_only(rf.samples)
        return rf

    @cached_property
    def monotone(self) -> bool:
        return is_monotone_decreasing(self.profile)


def residual(p: Profile, spec: PotentialSpec, wp: np.ndarray | None = None,
             lam: np.ndarray | None = None) -> ResidualField:
    """Force-balance residual of a profile under a potential made for its parameters.

    ``wp = W'(u1)`` and ``lam = (-d_xx)^{1/2} u1`` are computed unless
    the caller passes them (the dynamics holds both); neither is kept.
    """
    _check_params(p, spec)
    if wp is None:
        wp = eval_potential(spec, p.u1, 1)
    if lam is None:
        lam = half_laplacian_profile(p)
    r = p.params.c0 * lam
    r += wp
    return ResidualField(grid=p.grid, samples=r)


def monotonicity_violation(u1: np.ndarray) -> float:
    """Largest positive forward difference of samples of u1 (0 when monotone).

    The wrap interval (between the last and first node, where the
    periodic jump lives) is not a constraint.
    """
    return float(max(np.max(np.diff(u1)), 0.0))


def is_monotone_decreasing(p: Profile) -> bool:
    """Discrete check of du1/dx <= 0 at interior nodes, up to roundoff."""
    return monotonicity_violation(p.u1) <= 1e-10 * p.params.b


def semi_implicit_update(v_hat, g_hat, dt, c0, q):
    """Kernel: ``v+ = (v - dt g) / (1 + dt c0 |xi|)`` in Fourier space."""
    return (v_hat - dt * g_hat) / (1.0 + dt * c0 * q)


def semi_implicit_step(grid: Grid1D, v: np.ndarray, g: np.ndarray, dt: float,
                       c0: float) -> np.ndarray:
    """Samples of :func:`semi_implicit_update` for samples ``v`` and ``g``.

    The kernel is linear and diagonal, so its value at ``v_hat = 1``,
    ``g_hat = 0`` is the symbol that takes ``v - dt g`` to ``v+``.
    """
    return apply_symbol(grid, v - dt * g, semi_implicit_update(1.0, 0.0, dt, c0, grid.xi_r))


def _residual_after_step(spec, u_bg, v, v_new, dt, wp, wp_new=None):
    """Samples of the residual at ``v_new``, and ``W'(u1)`` there
    (``wp_new`` if the caller holds it), for a :func:`semi_implicit_step`
    of ``dt`` from ``v`` with force ``g = c0 lam_bg + wp``.

    The step solved ``v_new + dt c0 (-d_xx)^{1/2} v_new = v - dt g`` on
    every mode, the zero and Nyquist modes included, so
    ``R(v_new) = (v - v_new)/dt + W'(u_bg + v_new) - wp`` with no
    transform.  It agrees with :func:`residual` at ``v_new`` to
    ``c eps (max|v| (1/dt + c0 max|xi|) + max|wp|)``, ``c`` at most 2 at
    N = 4096 and 16384: the rounding of ``(v - v_new)/dt``, of the step
    (which ``1 + dt c0 |xi|`` carries into its equation) and of the W'
    difference.  At the cap, and at a step the sweep's divergence guard
    has halved up to 8 times, that is about 1e-14 G b / d, far below
    :data:`NEWTON_SWITCH`.  Its two callers are
    the sweep here and :meth:`pnedge.dynamics.DynamicsState.residual`, for
    a state that :func:`pnedge.dynamics.step_semi_implicit` made.
    """
    if wp_new is None:
        wp_new = eval_potential(spec, u_bg + v_new, 1)
    r = np.subtract(v, v_new)
    r /= dt
    r += wp_new
    r -= wp
    return r, wp_new


def _semi_implicit_sweep(start):
    """Gradient-flow steps to :data:`NEWTON_SWITCH` from the state
    ``start``, from its residual and ``W'(u1)``; returns the profile and
    the steps taken."""
    p, spec = start.profile, start.spec
    grid, params = p.grid, p.params
    c0 = params.c0
    u_bg = p.background_on_grid()
    c0_lam_bg = c0 * p.half_laplacian_background()
    v = p.v.copy()
    r, wp = start.residual.samples, start.wp

    # explicit treatment of W' is stable for dt < 2 / max|W''|, and
    # max|W''| > 0 for a potential with positive curvature at its wells
    dt = dt_cap = 1.8 / spec.max_curvature
    it = 0
    target = NEWTON_SWITCH * params.G * params.b / params.d
    res_linf = float(np.max(np.abs(r)))
    while res_linf > target:
        if it >= MAX_SWEEP_ITERS:
            raise ConvergenceError("pseudo-time iteration exhausted MAX_SWEEP_ITERS",
                                   ResidualField(grid=grid, samples=r), it)
        v_new = semi_implicit_step(grid, v, wp + c0_lam_bg, dt, c0)
        r_new, wp_new = _residual_after_step(spec, u_bg, v, v_new, dt, wp)
        res_new = float(np.max(np.abs(r_new)))
        if res_new > 2.0 * res_linf:
            # gross divergence guard (explicit potential force too stiff)
            dt *= 0.5
            if dt < 1e-12 * dt_cap:
                raise ConvergenceError("pseudo-time step underflow",
                                       ResidualField(grid=grid, samples=r), it)
            continue
        v, r, wp, res_linf = v_new, r_new, wp_new, res_new
        dt = min(dt * 1.1, dt_cap)
        it += 1
    return p.with_correction(v), it


def _newton_polish(state, tol):
    """Newton steps from the state ``state`` to ``tol``; returns the last
    accepted state and the steps taken."""
    grid, params = state.profile.grid, state.profile.params
    # the preconditioner inverts the far-field Jacobian c0 |xi| + w0, so the
    # Jacobian is its inverse plus diag(W''(u1) - w0)
    w0 = max(eval_potential(state.spec, params.b / 4.0, 2), 0.1 * params.G / params.d)
    precon_symbol = 1.0 / (params.c0 * grid.xi_r + w0)

    def precon(z):
        return apply_symbol(grid, z, precon_symbol)

    steps = 0
    for _ in range(30):
        if state.residual.linf <= tol:
            break
        dv, info = minres(None, -state.residual.samples, precon, rtol=NEWTON_TOL,
                          shift=state.wpp - w0)
        if info != 0:
            warnings.warn(f"inner minres returned info={info}", stacklevel=2)
        # damped update: backtrack while the residual grows; stop cleanly
        # if no step length improves (stagnation near a tilted valley)
        v = state.profile.v
        for k in range(8):
            trial = StaticState(state.profile.with_correction(v + 0.5**k * dv), state.spec)
            if trial.residual.linf < state.residual.linf:
                break
        else:
            break
        state = trial
        steps += 1
    else:
        raise ConvergenceError("Newton polish did not converge", state.residual, steps)
    return state, steps


def solve_static(init: Profile, spec: PotentialSpec) -> StaticState:
    """Drive a profile to the static core structure, and return its state.

    A semi-implicit gradient flow (unconditionally stable for the
    nonlocal part) of at most :data:`MAX_SWEEP_ITERS` steps, each at the
    explicit potential force's stability cap ``1.8 / max|W''|`` unless
    its divergence guard has halved it, reduces the residual to the
    Newton switch level, then a matrix-free Newton iteration with a
    Fourier-diagonal preconditioner polishes it to :data:`RES_TOL`
    ``G b / d``.  A result whose u1 is not monotone decreasing is warned
    of (:class:`~pnedge.errors.MonotonicityWarning`) and flagged on the
    state, the polish's last accepted trial with its record set.  A
    start that has already converged is returned as its own state.  A
    potential made for other parameters than the profile's, and a start
    whose residual is not finite, raise before any step.
    """
    start = StaticState(init, spec)
    report = validate_potential(spec)
    if not report.passed:
        raise ValueError(f"misfit potential fails structural checks: {report}")
    prm = init.params
    tol = RES_TOL * prm.G * prm.b / prm.d

    r0 = start.residual
    if not math.isfinite(r0.linf):
        raise ConvergenceError("start residual is not finite", r0, 0)
    if r0.linf <= tol:
        return start

    p, iters = _semi_implicit_sweep(start)
    del start, r0  # the polish needs neither: free them before its Krylov vectors
    # absorb any core drift into the background center first: the
    # correction must not carry translation content (see rebase_center)
    try:
        p = rebase_center(p)
    except ValueError:
        pass  # no unique crossing; polish in the current split
    solved, newton_steps = _newton_polish(StaticState(p, spec), tol)
    if not solved.residual.linf <= tol:  # a NaN residual fails this test too
        raise ConvergenceError("solver stalled above tolerance", solved.residual, iters)
    vars(solved).update(iterations=iters, newton_steps=newton_steps)
    if not solved.monotone:
        warnings.warn("converged profile is not monotone", MonotonicityWarning, stacklevel=2)
    return solved


def zero_crossing(p: Profile) -> float:
    """Locate the unique zero of u1 by Newton steps on its band-limited
    interpolant, from the secant root through the two nodes that bracket
    it; a step that leaves the bracket bisects it.  Requires exactly one
    sign change (monotone profiles)."""
    grid, b = p.grid, p.params.b
    u1 = p.u1
    nz = np.flatnonzero(u1)
    zeros = np.flatnonzero(u1 == 0.0)
    changes = np.flatnonzero(np.diff(np.sign(u1[nz])) != 0)
    if len(changes) != 1 or len(zeros) > 1:
        raise ValueError(
            f"profile must cross zero exactly once, found {len(changes)} sign "
            f"changes and {len(zeros)} exact zeros"
        )
    if len(zeros) == 1:
        return float(grid.x[zeros[0]])
    j, k = nz[changes[0]], nz[changes[0] + 1]
    v_cont = fourier_interpolant(grid, p.v)
    xtol = 1e-14 * max(1.0, grid.h)
    lo, hi = float(grid.x[j]), float(grid.x[k])
    x = float(lo - u1[j] * (hi - lo) / (u1[k] - u1[j]))
    for _ in range(100):
        v, dv = v_cont(x, (0, 1))
        value = float(p.background_at(x)) + v
        if value == 0.0:
            return x
        if (value > 0.0) == (u1[j] > 0.0):
            lo = x
        else:
            hi = x
        slope = float(background_derivative(x, b, p.zeta_bg, p.x0)) + dv
        step = value / slope
        # a converged step lands on the bracket end just moved to x
        if abs(step) < xtol:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise RuntimeError("zero crossing: no convergence after 100 steps")


def center_profile(p: Profile) -> tuple[float, Profile]:
    """Fix the translation gauge by placing the zero crossing of u1 at x = 0.

    Returns the shift and the profile translated by it (correction
    resampled by Fourier shift, background center moved).
    """
    shift = zero_crossing(p)
    v_shift = fourier_shift(p.grid, p.v, shift)
    centered = Profile(
        grid=p.grid, params=p.params, zeta_bg=p.zeta_bg,
        x0=p.x0 - shift, v=v_shift,
    )
    return shift, centered


def rebase_center(p: Profile) -> Profile:
    """Re-split u1 so the analytic background sits at the zero crossing.

    The samples of u1 are unchanged; only the background/correction
    split moves.  Keeping the translation content out of the correction
    matters because the nonlocal operator on a 1/x-tailed correction
    carries an O(a/L^2) truncation error, while a recentered background
    is handled in closed form.
    """
    x_star = zero_crossing(p)
    v_new = p.u1 - background(p.grid.x, p.params.b, p.zeta_bg, x_star)
    return Profile(grid=p.grid, params=p.params, zeta_bg=p.zeta_bg,
                   x0=x_star, v=v_new)


def decay_coefficients(p: Profile) -> tuple[float, float]:
    """Fit the 1/x far-field amplitudes of ``u1 -+ b/4``.

    Averages ``x (u1(x) + b/4)`` over ``x in [L/4, L/2]`` (and the
    mirrored window for the other tail); for the arctan core both limits
    equal ``b zeta / (2 pi)``.
    """
    grid, b = p.grid, p.params.b
    lo, hi = grid.L / 4.0, grid.L / 2.0
    right = (grid.x >= lo) & (grid.x <= hi)
    left = (grid.x <= -lo) & (grid.x >= -hi)
    if not (np.any(right) and np.any(left)):
        raise ValueError("fit window [L/4, L/2] contains no grid nodes")
    u1 = p.u1
    c_plus = float(np.mean(grid.x[right] * (u1[right] + b / 4.0)))
    c_minus = float(np.mean(grid.x[left] * (u1[left] - b / 4.0)))
    return c_plus, c_minus


def burgers_density(p: Profile) -> tuple[np.ndarray, float]:
    """Burgers-vector density ``rho = -phi' = -2 du1/dx`` and its total.

    The grid sum is corrected by the exact tail integrals
    ``int_{|x|>L} rho dx = 2 (b/4 + u1(L)) + 2 (b/4 - u1(-L))``
    evaluated from the boundary displacements, so the total approximates
    the full Burgers content b.
    """
    grid = p.grid
    dbg = background_derivative(grid.x, p.params.b, p.zeta_bg, p.x0)
    dv = spectral_derivative(grid, p.v)
    rho = -2.0 * (dbg + dv)
    left, right = p.boundary_values()
    tail = 2.0 * (p.params.b / 4.0 + right) + 2.0 * (p.params.b / 4.0 - left)
    total = float(grid.h * np.sum(rho) + tail)
    return rho, total


# ---------------------------------------------------------------------------
# MINRES, after scipy 1.17's pure-Python
# ``scipy/sparse/linalg/_isolve/minres.py`` (itself a translation of the
# Paige-Saunders MATLAB code): the same recurrence and stopping tests, so
# the solve path needs no scipy import.  Its inner products are
# ``operators.dot``, fixed-order sums, where scipy's are BLAS ``np.inner``.
# scipy's licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def minres(matvec, b, psolve, rtol, maxiter=None, shift=None):
    """Preconditioned MINRES for a symmetric ``A x = b`` from ``x0 = 0``.

    ``matvec(z) = A z``; ``psolve(z) = M z`` applies a symmetric positive
    definite preconditioner that approximates ``A^{-1}``.  With ``shift``
    given, ``matvec`` is not called and ``A = M^{-1} + diag(shift)`` must
    hold exactly: each Lanczos vector is ``v = M r / beta`` for a vector
    ``r`` the recurrence holds, so ``A v = r / beta + shift v`` costs no
    application of ``A``.  An iteration then makes one ``psolve`` (two
    transforms for a Fourier-diagonal ``M``) where the generic form makes
    a ``psolve`` and a ``matvec``.  Returns
    ``(x, info)`` with ``info = 0`` on a stop by scipy's tests (relative
    residual or ``||A r||`` below ``rtol``, roundoff level, ``cond(A)``
    beyond ``0.1/eps``) and ``info = maxiter`` (default ``5 n``) when the
    iteration limit ends the run.  Raises ``ValueError`` when ``M`` is
    indefinite or ``A`` is found not symmetric.
    """
    b = np.asarray(b, dtype=float).ravel()
    n = b.shape[0]
    if maxiter is None:
        maxiter = 5 * n
    x = np.zeros(n)

    # first Lanczos vector: y = M r1 with r1 = b (x0 = 0)
    r1 = b.copy()
    y = psolve(r1)
    beta1 = dot(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    elif beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)

    beta = beta1
    dbar = 0
    epsln = 0
    phibar = beta1
    tnorm2 = 0
    gmax = 0
    gmin = np.finfo(float).max
    cs = -1
    sn = 0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    for itn in range(1, maxiter + 1):
        # Lanczos step
        v = (1.0 / beta) * y
        if shift is None:
            y = matvec(v)
        else:
            y = (1.0 / beta) * r2 + shift * v  # y was psolve(r2)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = dot(v, y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta = dot(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # Abar = const * I: stop after this step
        exact = itn == 1 and beta / beta1 <= 10 * _EPS

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), _EPS)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # update x
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w

        # norm estimates and scipy's stopping tests
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(dot(x, x))
        test1 = np.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = np.inf if anorm == 0 else root / anorm
        if (exact or test1 <= rtol or test2 <= rtol or anorm * ynorm * _EPS >= beta1
                or gmax / gmin >= 0.1 / _EPS):
            return x, 0
        # scipy lets the iteration limit outrank these two roundoff tests
        if itn < maxiter and (1 + test1 <= 1 or 1 + test2 <= 1):
            return x, 0
    return x, maxiter
