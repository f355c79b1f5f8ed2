"""Built-in validation suite.

Twelve numbered checks exercise the solver against the closed-form core
solution, the Gamma-function seminorm values, the half-plane field and
traction oracles, the perturbed-energy identities, the minimizer
property, the logarithmic energy divergence and the gradient-flow
dynamics.  Each check reports (name, expected, actual, tolerance, pass)
so the CLI can emit a machine-readable report.

Scales: expected values and tolerances carry the natural units
``G b / d`` (forces), ``G b^2 / d`` (energies per length) built from the
configured parameters; with the default desk-scale parameters they are
numerically the bare tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .config import (
    RunConfig,
    box_radii,
    dynamics_start,
    energy_perturbations,
    run_setup,
)
from .dynamics import (
    dissipation_rate,
    free_energy,
    run_dynamics,
    step_etd,
    step_semi_implicit,
)
from .energy import (
    BoxQuadrature,
    HalfPlaneTables,
    competitor_energy,
    energy_breakdown,
    log_divergence_fit,
    log_fit,
    misfit_energy,
    reduced_perturbed_energy,
    seeded_perturbations,
)
from .errors import DivergenceError
from .extension import (
    PARITY,
    YLevels,
    _analytic_displacement,
    _analytic_stress,
    _level_chunks,
    dtn_traction,
    extend_trace_displacement,
    extend_trace_strains,
    stress_field,
    strains_to_stresses,
)
from .grid import Grid1D
from .operators import (
    apply_half_laplacian,
    fourier_interpolant,
    hs_seminorm_analytic,
    hs_seminorm_background_difference,
    hs_seminorm_grid,
)
from .params import PhysParams
from .potential import PotentialSpec, eval_potential
from .profile import Profile, analytic_profile, background, tanh_profile
from .static import (
    StaticState,
    burgers_density,
    center_profile,
    decay_coefficients,
    residual,
    solve_static,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    actual: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: actual={self.actual:.6e} "
                f"tol={self.tolerance:.1e} ({self.expected})")


def _leq(name, actual, tol, expected, detail="") -> CheckResult:
    return CheckResult(name=name, expected=expected, actual=float(actual),
                       tolerance=float(tol), passed=bool(actual <= tol), detail=detail)


def _geq(name, actual, floor, expected, detail="") -> CheckResult:
    return CheckResult(name=name, expected=expected, actual=float(actual),
                       tolerance=float(floor), passed=bool(actual >= floor), detail=detail)


@dataclass
class SuiteContext:
    """Shared expensive artifacts (grid, solved state, its half-plane
    tables) for the checks."""

    cfg: RunConfig
    params: PhysParams = field(init=False)
    grid: object = field(init=False)
    spec: PotentialSpec = field(init=False)
    analytic: Profile = field(init=False)
    solved: StaticState = field(init=False)
    solved_centered: Profile = field(init=False)

    def __post_init__(self):
        self.params, self.grid, self.spec = run_setup(self.cfg)
        self.analytic = analytic_profile(self.grid, self.params)
        init = tanh_profile(self.grid, self.params)
        self.solved = solve_static(init, self.spec)
        _, self.solved_centered = center_profile(self.solved.profile)

    @property
    def quad(self) -> BoxQuadrature:
        """The half-plane quadrature of the perturbed energies."""
        return BoxQuadrature.for_params(self.params)

    @cached_property
    def tables(self) -> HalfPlaneTables:
        """Half-plane tables of the solved profile at :attr:`quad`."""
        return HalfPlaneTables.build(self.solved.profile, self.quad)

    @property
    def force_scale(self) -> float:
        p = self.params
        return p.G * p.b / p.d

    @property
    def energy_scale(self) -> float:
        p = self.params
        return p.G * p.b**2 / p.d


# ---------------------------------------------------------------------------
# criterion 1: closed-form residual
# ---------------------------------------------------------------------------

def check_closed_form_residual(ctx: SuiteContext) -> list[CheckResult]:
    r = residual(ctx.analytic, ctx.spec)
    tol = 1e-10 * ctx.force_scale
    return [_leq("01.closed_form_residual", r.linf, tol,
                 "exact cancellation at zeta = d/(2(1-nu))")]


# ---------------------------------------------------------------------------
# criterion 2: static solve recovery from a tanh init
# ---------------------------------------------------------------------------

def check_static_recovery(ctx: SuiteContext) -> list[CheckResult]:
    p = ctx.solved_centered
    prm, grid = ctx.params, ctx.grid
    core = np.abs(grid.x) <= 20.0 * prm.zeta
    err = float(np.max(np.abs(p.u1 - ctx.analytic.u1)[core]))
    mono = float(np.max(np.diff(p.u1)))
    u1 = p.u1
    # node x_j pairs with x_{N-j} = -x_j (j >= 1); x_0 = -L has no partner
    odd = float(np.max(np.abs(u1[1:] + u1[1:][::-1])))
    return [
        _leq("02.static_recovery.core_error", err, 1e-3 * prm.b,
             "centered solution matches the arctan core on |x| <= 20 zeta"),
        _leq("02.static_recovery.monotone", mono, 1e-10 * prm.b,
             "du1/dx <= 0 at interior nodes"),
        _leq("02.static_recovery.odd", odd, 1e-8 * prm.b,
             "u1(x) = -u1(-x) for the even potential"),
    ]


# ---------------------------------------------------------------------------
# criterion 3: Sobolev seminorm sharpness
# ---------------------------------------------------------------------------

def _exp_sinh(f, alpha: float) -> float:
    """``int_0^inf f(q) dq`` by the exp-sinh (double-exponential) rule, an
    oracle that never evaluates the Gamma function.

    The trapezoid rule with step ``h = 1/64`` in t for ``q = exp((pi/2) sinh t)``.
    For ``f(q) ~ q^(alpha-1)`` at the origin the window starts where
    ``q^alpha = 1e-18``, so its left end grows like ``1/alpha`` in ``ln q``
    (like ``ln(1/alpha)`` in t); ``alpha`` must stay above about 0.06 for
    that q to be a normal float.  It ends at ``t = 4.5`` (``q = 5e30``),
    past any decay ``e^{-c q}`` with ``c > 1e-28``.
    """
    h = 1.0 / 64.0
    t_lo = -math.asinh(2.0 * math.log(1e18) / (math.pi * alpha))
    t = 4.5 - h * np.arange(math.ceil((4.5 - t_lo) / h) + 1)
    q = np.exp(0.5 * np.pi * np.sinh(t))
    return float(h * np.sum(f(q) * q * (0.5 * np.pi) * np.cosh(t)))


def check_sobolev(ctx: SuiteContext) -> list[CheckResult]:
    prm = ctx.params
    b, z = prm.b, prm.zeta
    out = []
    errs = []
    for s in (0.75, 1.0, 1.5):
        closed = hs_seminorm_analytic(b, z, s)
        got = b * b / (4.0 * np.pi) * _exp_sinh(
            lambda q: q ** (2.0 * s - 2.0) * np.exp(-2.0 * z * q), 2.0 * s - 1.0)
        errs.append(abs(got - closed) / closed)
    out.append(_leq("03.sobolev.analytic_vs_gamma", np.max(errs), 1e-3,
                    "quadrature matches b^2 Gamma(2s-1)/(4 pi (2 zeta)^(2s-1))"))

    z1, z2 = z / 2.0, 2.0 * z
    fine = Grid1D(400.0 * z, 8192)
    diff = background(fine.x, b, z1) - background(fine.x, b, z2)
    errs = []
    for s in (0.75, 1.0, 1.5):
        ana = hs_seminorm_background_difference(b, z1, z2, s)
        got = hs_seminorm_grid(fine, diff, s)
        errs.append(abs(got - ana) / ana)
    out.append(_leq("03.sobolev.grid_vs_analytic", np.max(errs), 1e-2,
                    "grid seminorm of the decaying core difference, L=400 zeta"))

    try:
        hs_seminorm_analytic(b, z, 0.5)
        raised = 0.0
    except DivergenceError:
        raised = 1.0
    out.append(_geq("03.sobolev.half_divergence", raised, 1.0,
                    "s = 1/2 raises the divergence error"))
    return out


# ---------------------------------------------------------------------------
# criterion 4: far-field decay rate
# ---------------------------------------------------------------------------

def check_decay_rate(ctx: SuiteContext) -> list[CheckResult]:
    prm = ctx.params
    target = prm.b * prm.zeta / (2.0 * np.pi)
    cp, cm = decay_coefficients(ctx.solved_centered)
    worst = np.max([abs(cp - target), abs(cm - target)]) / target
    return [_leq("04.decay_rate", worst, 0.05,
                 f"both tail amplitudes near b zeta/(2 pi) = {target:.6f}")]


# ---------------------------------------------------------------------------
# criterion 5: extension and stress oracle
# ---------------------------------------------------------------------------

def check_extension_oracle(ctx: SuiteContext) -> list[CheckResult]:
    prm, grid, p = ctx.params, ctx.grid, ctx.solved.profile
    b, nu, G, z = prm.b, prm.nu, prm.G, prm.zeta
    z1, z2 = z, 2.0 * z
    trace = background(grid.x, b, z1) - background(grid.x, b, z2)
    mask = np.abs(grid.x) <= 10.0 * z
    xm, xs = grid.x[mask], grid.x - p.x0
    yl = YLevels.geometric(z / 10.0, 10.0 * z, 12)

    def core(y, sign):  # the solved profile's core, in the order of PARITY
        return (*_analytic_displacement(xs, y, b, nu, p.zeta_bg, sign),
                *_analytic_stress(xs, y, G, b, nu, p.zeta_bg, sign))

    err_u = np.zeros(2)
    ref_u = np.zeros(2)
    err_s = np.zeros(4)
    ref_s = np.zeros(4)
    mirror_err = np.zeros(len(PARITY))
    mirror_ref = np.zeros(len(PARITY))
    for (y,) in _level_chunks(yl.values):
        c1, c2 = (c[:, mask] for c in extend_trace_displacement(grid, trace, nu, y))
        a1 = [_analytic_displacement(xm, y, b, nu, zz, +1.0) for zz in (z1, z2)]
        du1 = a1[0][0] - a1[1][0]
        du2 = a1[0][1] - a1[1][1]
        # u2 carries an additive gauge constant; compare modulo a fitted constant
        gauge = np.mean(c2 - du2, axis=-1, keepdims=True)
        err_u = np.maximum(err_u, [np.max(np.abs(c1 - du1)),
                                   np.max(np.abs(c2 - du2 - gauge))])
        ref_u = np.maximum(ref_u, [np.max(np.abs(du1)),
                                   np.max(np.abs(du2 - du2.mean(axis=-1, keepdims=True)))])

        strains = extend_trace_strains(grid, trace, nu, y)
        sc = strains_to_stresses(*strains, G, nu)
        sa1 = _analytic_stress(xm, y, G, b, nu, z1, +1.0)
        sa2 = _analytic_stress(xm, y, G, b, nu, z2, +1.0)
        for i in range(4):
            da = sa1[i] - sa2[i]
            err_s[i] = np.maximum(err_s[i], np.max(np.abs(sc[i][:, mask] - da)))
            ref_s[i] = np.maximum(ref_s[i], np.max(np.abs(da)))

        # the lower branch at heights -y against the mirror image of the upper
        for i, (upper, lower, parity) in enumerate(
                zip(core(y, +1.0), core(-y, -1.0), PARITY.values())):
            mirror_err[i] = max(mirror_err[i], np.max(np.abs(lower - parity * upper)))
            mirror_ref[i] = max(mirror_ref[i], np.max(np.abs(upper)))

    rel_u = float(np.max(err_u / ref_u))
    rel_s = float(np.max(err_s / ref_s))
    mirror = float(np.max(mirror_err / mirror_ref))

    sf = stress_field(p, yl)
    s33_def = float(
        np.max(np.abs(sf["s33"] - nu * (sf["s11"] + sf["s22"])))
        / np.max(np.abs(sf["s33"]))
    )
    # sigma22 on the slip plane: enforced by the traction map and by the
    # per-mode stress formula at y = 0
    _, s22_gamma = dtn_traction(p)
    sc0 = strains_to_stresses(*extend_trace_strains(grid, trace, nu, 0.0), G, nu)
    s22_spectral = float(np.max(np.abs(sc0[2])) / np.max(np.abs(sc0[1])))
    s22_on_plane = np.max([np.max(np.abs(s22_gamma)), s22_spectral])
    return [
        _leq("05.extension.displacement", rel_u, 1e-3,
             "spectral extension matches the closed-form difference "
             "(region-normalized max error)"),
        _leq("05.extension.stress", rel_s, 1e-3,
             "spectral stresses match the closed-form difference"),
        _leq("05.extension.plane_strain", s33_def, 1e-10,
             "sigma33 = nu (sigma11 + sigma22)"),
        _leq("05.extension.sigma22_on_plane", s22_on_plane, 1e-12,
             "sigma22 vanishes identically on the slip plane"),
        _leq("05.extension.mirror", mirror, 1e-10,
             "mirror symmetry across the slip plane"),
    ]


# ---------------------------------------------------------------------------
# criterion 6: Dirichlet-to-Neumann identity
# ---------------------------------------------------------------------------

def check_dtn(ctx: SuiteContext) -> list[CheckResult]:
    prm = ctx.params
    p = ctx.solved_centered
    s12, _ = dtn_traction(p)
    balance = float(np.max(np.abs(2.0 * s12 - eval_potential(ctx.spec, p.u1, 1))))
    # sigma12 at x = zeta: analytic background part plus interpolated correction
    lam_bg = p.half_laplacian_background(np.array([prm.zeta]))[0]
    lam_v = fourier_interpolant(p.grid, apply_half_laplacian(p.grid, p.v))(prm.zeta)
    s12_at_zeta = -(prm.G / (1.0 - prm.nu)) * (lam_bg + lam_v)
    dev = abs(s12_at_zeta - prm.G * prm.b / (4.0 * np.pi * (1.0 - prm.nu) * prm.zeta))
    return [
        _leq("06.dtn.force_balance", balance, 1e-6 * ctx.force_scale,
             "traction jump balances the potential force: 2 sigma12 = W'(u1)"),
        _leq("06.dtn.sigma12_at_zeta", dev, 1e-4,
             "sigma12(zeta) = G b /(4 pi (1-nu) zeta)"),
    ]


# ---------------------------------------------------------------------------
# criterion 7: energy relation and cross-term identity
# ---------------------------------------------------------------------------

def check_energy_relation(ctx: SuiteContext) -> list[CheckResult]:
    perts = energy_perturbations(ctx.cfg, ctx.grid, ctx.params)
    floor = 1e-3 * ctx.energy_scale
    rel, cross = [], []
    for ph in perts:
        bd = energy_breakdown(ph, ctx.solved, ctx.tables)
        rel.append(abs(bd.E_hat_total - bd.E_hat_gamma) / max(abs(bd.E_hat_gamma), floor))
        cross.append(abs(bd.cross_els - bd.cross_gamma) / max(abs(bd.cross_gamma), floor))
    return [
        _leq("07.energy_relation.total", np.max(rel), 1e-2,
             f"slip-plane and half-plane energies agree ({len(perts)} seeded "
             "perturbations)"),
        _leq("07.energy_relation.cross_terms", np.max(cross), 1e-2,
             "2-d and slip-plane cross terms agree"),
    ]


# ---------------------------------------------------------------------------
# criterion 8: minimizer property and extension optimality
# ---------------------------------------------------------------------------

def check_minimizer(ctx: SuiteContext) -> list[CheckResult]:
    cfg, prm = ctx.cfg, ctx.params
    perts = seeded_perturbations(ctx.grid, prm, 20, seed=cfg.energy_pert_seed + 1,
                                 out_of_range=6)
    values = [reduced_perturbed_energy(ph, ctx.solved) for ph in perts]
    floor = -1e-8 * ctx.energy_scale

    # extension optimality: same trace, competitor decay profiles in y
    beta = 1.0 / (2.0 - 2.0 * prm.nu)
    nu = prm.nu
    competitors = [
        ((lambda t: np.exp(-t), lambda t: -np.exp(-t)),
         (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))),
        ((lambda t: np.exp(-2.0 * t), lambda t: -2.0 * np.exp(-2.0 * t)),
         (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))),
        ((lambda t: (1.0 - beta * t) * np.exp(-t),
          lambda t: (-1.0 - beta + beta * t) * np.exp(-t)),
         (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))),
        ((lambda t: np.exp(-t), lambda t: -np.exp(-t)),
         (lambda t: -beta * ((1.0 - 2.0 * nu) + t) * np.exp(-t),
          lambda t: -beta * (2.0 * nu - t) * np.exp(-t))),
        ((lambda t: np.exp(-0.5 * t), lambda t: -0.5 * np.exp(-0.5 * t)),
         (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))),
    ]
    phi1 = perts[0].phi1
    e_opt = ctx.tables.elastic_energy(phi1)
    margins = [
        competitor_energy(ctx.grid, phi1, prm, f_pair, g_pair, ctx.quad) - e_opt
        for f_pair, g_pair in competitors
    ]
    return [
        _geq("08.minimizer.energy_nonnegative", np.min(values), floor,
             "perturbed energy of the static solution is nonnegative "
             "(20 seeded perturbations incl. out-of-range)"),
        _geq("08.minimizer.extension_optimal", np.min(margins), 0.0,
             "elastic extension minimizes the elastic energy among "
             "same-trace competitors"),
    ]


# ---------------------------------------------------------------------------
# criterion 9: logarithmic divergence of the boxed elastic energy
# ---------------------------------------------------------------------------

def check_log_divergence(ctx: SuiteContext) -> list[CheckResult]:
    radii = box_radii(ctx.cfg)
    p = ctx.solved.profile
    _, slope, _, r2 = log_divergence_fit(p, radii)

    # self-convergence of the quadrature for the slope: the fit above is
    # the fine resolution (1024, 192)
    _, s_coarse, _, _ = log_divergence_fit(p, radii, n_x=512, n_levels=96)
    conv = abs(slope - s_coarse) / abs(slope)
    listed = ",".join(f"{r / ctx.cfg.zeta:g}" for r in radii)
    return [
        _geq("09.log_divergence.affine_fit", r2, 0.999,
             f"E(R) affine in ln R over R = {{{listed}}} zeta"),
        _geq("09.log_divergence.slope_positive", slope, 0.0, "positive slope"),
        _leq("09.log_divergence.slope_converged", conv, 0.05,
             "slope stable between two quadrature resolutions"),
    ]


# ---------------------------------------------------------------------------
# criterion 10: dynamics
# ---------------------------------------------------------------------------

def _steps(s, n: int, dt: float, step):
    """``n`` steps of ``dt`` by ``step`` from the state ``s``."""
    for _ in range(n):
        s = step(s, dt)
    return s


def check_dynamics(ctx: SuiteContext) -> list[CheckResult]:
    """The semi-implicit run to T_end, the chain rule at three steps and the
    semi-implicit/ETD gap at three steps, marching each trajectory once:
    the run's trace serves the dt = 0.1 chain rule while its steps are
    each 0.1, and the dt = 0.05 and 0.025 chain-rule marches pass through
    the semi-implicit gap states at t = 1."""
    cfg, prm, grid = ctx.cfg, ctx.params, ctx.grid
    z, b = prm.zeta, prm.b
    s0 = dynamics_start(cfg, grid, prm, ctx.spec)
    ref = s0.reference.profile

    # the suite checks the semi-implicit run whatever dynamics_method says
    send, trace = run_dynamics(s0, cfg.dynamics_T_end, step_semi_implicit)
    arr = trace.as_arrays()
    f_tol = 1e-10 * ctx.energy_scale
    f_increase = float(np.max(np.diff(arr["F_values"])))
    _, cent = center_profile(send.p)
    relax_err = float(np.max(np.abs(cent.u1 - ref.u1)[np.abs(grid.x) <= 20 * z]))

    # chain rule |dF/dt + Q| = O(dt) at checkpoints past the stiff layer
    checkpoints = (0.5, 1.0, 2.0, 3.0, 4.0)
    dts = (0.1, 0.05, 0.025)
    gap_dts = (0.05, 0.025, 0.0125)
    sums = []
    at_one = {}  # semi-implicit states after round(1/dt) steps, for the gaps
    for dt in dts:
        nsteps = int(round(max(checkpoints) / dt)) + 1
        hits = [k for k in range(nsteps)
                if any(abs(k * dt - tc) < 0.25 * dt for tc in checkpoints)]
        # while the run's steps are each dt, its states are those of this
        # march, bit for bit, and its trace holds their F and Q
        F, Q = trace.F_values, trace.Q_values
        if trace.dt_history[1:nsteps + 1] != [dt] * nsteps:
            F, Q, s = {}, {}, s0
            for k in range(nsteps):
                if k in hits:
                    F[k], Q[k] = free_energy(s), dissipation_rate(s)
                s = step_semi_implicit(s, dt)
                if k in hits:
                    F[k + 1] = free_energy(s)
                if k + 1 == round(1.0 / dt):
                    at_one[dt] = s
        total = 0.0
        for k in hits:
            total += abs((F[k + 1] - F[k]) / dt + Q[k])
        sums.append(total)
    chain_order = log_fit(dts, np.log(sums))[0]
    chain_bound = sums[0] / dts[0]  # the constant C in |dF/dt + Q| <= C dt

    # integrator cross-validation: gap at T = 1 scales like dt
    gaps = []
    for dt in gap_dts:
        n = round(1.0 / dt)
        sa = at_one[dt] if dt in at_one else _steps(s0, n, dt, step_semi_implicit)
        sb = _steps(s0, n, dt, step_etd)
        gaps.append(float(np.max(np.abs(sa.p.v - sb.p.v))))
    gap_order = log_fit(gap_dts, np.log(gaps))[0]

    return [
        _leq("10.dynamics.F_nonincreasing", f_increase, f_tol,
             "free energy nonincreasing along every accepted step"),
        _leq("10.dynamics.relaxation", relax_err, 1e-3 * b,
             "bump relaxes to the static core by T_end (translation gauge fixed "
             "by centering)"),
        _geq("10.dynamics.chain_rule_order", chain_order, 0.9,
             "|dF/dt + Q| first order in dt at five checkpoints"),
        _leq("10.dynamics.chain_rule_bound", chain_bound, 1e-2 * ctx.energy_scale,
             "chain-rule defect constant C stays small"),
        _geq("10.dynamics.integrator_gap_order", gap_order, 0.9,
             "semi-implicit vs ETD gap halves when dt halves"),
    ]


# ---------------------------------------------------------------------------
# criterion 11: misfit energy closed form
# ---------------------------------------------------------------------------

def check_misfit(ctx: SuiteContext) -> list[CheckResult]:
    prm = ctx.params
    target = prm.G * prm.b**2 * prm.zeta / (2.0 * np.pi * prm.d)
    got = misfit_energy(StaticState(ctx.analytic, ctx.spec))
    return [_leq("11.misfit_energy", abs(got - target) / target, 5e-3,
                 f"int W(u_bg) = G b^2 zeta/(2 pi d) = {target:.6f}")]


# ---------------------------------------------------------------------------
# criterion 12: Burgers accounting
# ---------------------------------------------------------------------------

def check_burgers(ctx: SuiteContext) -> list[CheckResult]:
    prm = ctx.params
    rho, total = burgers_density(ctx.solved_centered)
    rho0 = fourier_interpolant(ctx.grid, rho)(0.0)
    target0 = prm.b / (np.pi * prm.zeta)
    return [
        _leq("12.burgers.total", abs(total - prm.b), 1e-3 * prm.b,
             "total Burgers content equals b"),
        _leq("12.burgers.density_center", abs(rho0 - target0) / target0, 5e-3,
             f"rho(0) = b/(pi zeta) = {target0:.6f}"),
    ]


_ALL_CHECKS = [
    check_closed_form_residual,
    check_static_recovery,
    check_sobolev,
    check_decay_rate,
    check_extension_oracle,
    check_dtn,
    check_energy_relation,
    check_minimizer,
    check_log_divergence,
    check_dynamics,
    check_misfit,
    check_burgers,
]


def run_validation(cfg: RunConfig | None = None,
                   timings: dict | None = None) -> list[CheckResult]:
    """Run the full suite; returns the ordered list of check results.

    ``timings``, when given, receives the seconds of each numbered check
    as ``check_01`` ... ``check_12``."""
    ctx = SuiteContext(cfg or RunConfig())
    results: list[CheckResult] = []
    timings = {} if timings is None else timings
    for i, fn in enumerate(_ALL_CHECKS, 1):
        t0 = time.perf_counter()
        results.extend(fn(ctx))
        timings[f"check_{i:02d}"] = time.perf_counter() - t0
    return results


def report_dict(results: list[CheckResult]) -> dict:
    return {
        "checks": [asdict(r) for r in results],
        "all_pass": all(r.passed for r in results),
    }
