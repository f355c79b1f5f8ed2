"""Energies of the dislocation: misfit, reduced, perturbed and boxed.

The elastic energy of the core is infinite (stresses decay like 1/r),
so all comparisons are made in the perturbed sense: for a decaying
perturbation trace ``phi1`` on the slip plane, the slip-plane route

    ``E_gamma_hat = (c0/2) |phi1|_{H^1/2}^2
                    + c0 int phi1 (-d_xx)^{1/2} u1 dx
                    + int W(u1 + phi1) - W(u1) dx``

must agree with the half-plane route, where the first two terms are
replaced by 2-d quadrature of the strain-energy densities
``(1/2) sigma_phi : eps_phi`` and ``eps_phi : sigma_u`` of the elastic
extension.  The coefficient ``c0 = 2G/(1-nu)`` is carried explicitly so
the identity holds for physical constants.

The half-plane integrals are a y-quadrature (trapezoid weights on the
nodes of :class:`BoxQuadrature`) of x-integrals on the periodic grid.
The x-integrals are done by discrete Parseval: at height y the x-sum of
a strain-energy density is a per-mode kernel in (k, y) against the
trace's spectrum, so the kernels are summed over the y-nodes once per
profile into length N/2+1 vectors (:class:`HalfPlaneTables`) and each
perturbation then costs one ``rfft`` and a dot product.  The
y-quadrature is the discrete node/weight sum, independent of the
closed-form y-integrals of the slip-plane route.

The tables and the box correction walk the y-levels with the level
walk of :mod:`pnedge.extension`, four levels a chunk over the grid,
where a level at a time paid numpy's per-call cost on every small array.
The weighted sum still adds one level at a time, in node order, with
each level's x-sum taken along its own contiguous row, so every result
has the bits of the level-by-level loop.

:meth:`HalfPlaneTables.build` makes both tables in one walk: each level
takes the strain amplitudes once, for its elastic row and for its cross
row against the ``rfft`` of the closed-form background stress sampled on
the grid (the walk's only transforms).  As ``E_els(phi) = sum_k E_k
|rfft(phi1)_k|^2`` is a quadratic form and the correction's stress is the
elastic map of ``v``, the correction's cross part is its polarization
``2 E conj(rfft(v))``, added after the walk: the same nodes and weights,
so still a y-quadrature apart from the slip-plane route.

:func:`elastic_energy_box` takes all its radii in one call.  Each box
keeps its own y-nodes for the closed-form background, which needs no
walk: at each height the core's density is a rational function of x,
and its x-integral over the box is a closed form
(:func:`_core_density_integral`), exact to rounding where a 1,024-point
trapezoid x-window is off by 0.9-1.8e-7 relative.  A box's background is
so one dot product of its trapezoid weights with the integrals at its
nodes.  The correction's strains, 3 inverse transforms a level, are
taken in one walk shared by all radii: ``{0}``, the radii themselves and
``M`` geometric levels from zeta/50 to the largest radius, ``M`` chosen
so that every radius has at least ``n_levels`` of them at or below it
(264 for the default radii at 192 levels).  A level's correction stress
is formed once on the largest box's window of the grid, and each radius
sums its own slice of it; the walk keeps those window sums, and each
radius adds them with trapezoid weights on the nodes up to its radius.
Four radii so take 268 levels of transforms, not 4 x 193.  Check 09's
self-convergence energies at about half the levels are the trapezoid
rule on every other geometric level of the same walk (137 of its 268
nodes), so its two fits take one walk of 268 levels, not 268 + 136.

At N = 4096 the tracemalloc peak is about 1.5 MiB for the four default
box energies (the correction's walk) and 1.7 MiB for the tables of 193
levels, where all 193 levels at once would take some 130 MiB.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DivergenceError
from .extension import (
    _analytic_plane_stress,
    _level_chunks,
    _plane_stresses,
    _strain_multipliers,
    _strains_of_spectrum,
)
from .grid import Grid1D
from .operators import dot, hs_seminorm_grid, inner_h, mode_weights, rfft
from .params import PhysParams
from .potential import eval_potential
from .profile import Profile
from .static import StaticState


# ---------------------------------------------------------------------------
# quadrature geometry for the half-plane integrals
# ---------------------------------------------------------------------------

def _first_level(params: PhysParams) -> float:
    """First positive node of every half-plane quadrature, ``zeta / 50``."""
    return params.zeta / 50.0


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights on increasing ``nodes``."""
    w = np.zeros_like(nodes)
    dy = np.diff(nodes)
    w[:-1] += 0.5 * dy
    w[1:] += 0.5 * dy
    return w


@dataclass(frozen=True)
class BoxQuadrature:
    """Tensor quadrature for y-integrals over the half-planes.

    Trapezoid weights on a node set {0} + geometric(y_min, y_max, n),
    n >= 2 (a geometric part of one level would be y_min alone and drop
    y_max); x-integration rides on the periodic grid (h * sum, evaluated
    by discrete Parseval), which is exact for the spectral fields.
    """

    y_min: float
    y_max: float
    n_levels: int

    def __post_init__(self):
        """Reject node sets whose geometric part would not increase (their
        trapezoid weights would go negative) or would not reach y_max."""
        if not 0.0 < self.y_min < self.y_max:
            raise ValueError("quadrature levels need 0 < y_min < y_max, "
                             f"got y_min = {self.y_min}, y_max = {self.y_max}")
        if self.n_levels < 2:
            raise ValueError(f"quadrature needs n_levels >= 2, got {self.n_levels}")

    @classmethod
    def for_params(cls, params: PhysParams) -> "BoxQuadrature":
        """The quadrature of the perturbed energies: 192 levels from the
        first level, zeta/50, up to 400 zeta."""
        return cls(y_min=_first_level(params), y_max=400.0 * params.zeta, n_levels=192)

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``{0} + geometric(y_min, y_max, n_levels)`` and their trapezoid weights."""
        ys = np.concatenate([[0.0], np.geomspace(self.y_min, self.y_max, self.n_levels)])
        return ys, _trapezoid_weights(ys)


# ---------------------------------------------------------------------------
# perturbations of the static configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Perturbation:
    """Decaying slip-plane perturbation trace; extension built on demand.

    Only the upper trace is stored; the lower one follows from the
    boundary symmetry ``phi1+ = -phi1-``, ``phi2+ = phi2-``.
    """

    grid: Grid1D
    phi1: np.ndarray = field(repr=False)

    def __post_init__(self):
        phi = np.asarray(self.phi1, dtype=float)
        if phi.shape != (self.grid.N,):
            raise ValueError(f"trace has shape {phi.shape}, expected ({self.grid.N},)")
        object.__setattr__(self, "phi1", phi)

    def check_decay(self, b: float) -> bool:
        """|phi1| below 1e-8 b outside the central half of the grid."""
        outside = np.abs(self.grid.x) > self.grid.L / 2.0
        return bool(np.all(np.abs(self.phi1[outside]) <= 1e-8 * b))


def seeded_perturbations(
    grid: Grid1D,
    params: PhysParams,
    n: int,
    seed: int,
    out_of_range: int = 0,
) -> list[Perturbation]:
    """Reproducible family of localized perturbation traces.

    Gaussian bumps with random center, width, amplitude and modulation;
    the last ``out_of_range`` entries get amplitudes large enough to push
    ``u1 + phi1`` outside [-b/4, b/4].
    """
    rng = np.random.default_rng(seed)
    z, b = params.zeta, params.b
    perts = []
    for i in range(n):
        big = i >= n - out_of_range
        amp = rng.uniform(0.3, 0.6) if big else rng.uniform(0.02, 0.08)
        center = rng.uniform(-3.0, 3.0) * z
        width = rng.uniform(1.0, 4.0) * z
        k = rng.uniform(0.0, 2.0) / z
        odd_mix = rng.uniform(0.2, 1.0)
        u = (grid.x - center) / width
        phi = amp * b * np.exp(-0.5 * u * u) * (np.cos(k * (grid.x - center)) + odd_mix * u)
        perts.append(Perturbation(grid=grid, phi1=phi))
    return perts


# ---------------------------------------------------------------------------
# slip-plane (Gamma) route
# ---------------------------------------------------------------------------

def misfit_energy(s: StaticState) -> float:
    """Misfit energy ``int W(u1) dx`` of a state, with analytic tail correction.

    The grid sum covers [-L, L); beyond the box the integrand is
    expanded about the nearest lattice well, ``W ~ (1/2) W''(m) (u1-m)^2``
    with the 1/x tail amplitude read off the boundary values, giving
    ``W''(m) c^2 / (2L)`` per side.  Raises if the integrand does not
    decay (nonzero well offset at the ends).
    """
    p, spec, prm = s.profile, s.spec, s.profile.params
    left, right = p.boundary_values()
    period = spec.period
    scale = prm.G * prm.b**2 / prm.d

    tail = 0.0
    for uend, xend in ((right, p.grid.L), (left, -p.grid.L)):
        m = prm.b / 4.0 + period * np.round((uend - prm.b / 4.0) / period)
        dev = uend - m
        if eval_potential(spec, uend, 0) > 1e-3 * scale:
            raise DivergenceError(
                "misfit integrand does not decay: u1 at the domain end is "
                f"{uend:.4g}, not at a lattice well"
            )
        c = dev * xend  # 1/x tail amplitude
        tail += eval_potential(spec, m, 2) * c * c / (2.0 * abs(xend))
    return float(p.grid.h * np.sum(s.w) + tail)


def _misfit_difference(s: StaticState, phi1: np.ndarray) -> float:
    """Misfit energy change ``h sum [W(u1 + phi1) - W(u1)]`` of a perturbation."""
    p = s.profile
    return float(p.grid.h * np.sum(eval_potential(s.spec, p.u1 + phi1, 0) - s.w))


def cross_term_gamma(s: StaticState, phi: Perturbation) -> float:
    """Slip-plane cross term ``c0 int phi1 (-d_xx)^{1/2} u1 dx``."""
    return s.profile.params.c0 * inner_h(s.profile.grid, phi.phi1, s.lam)


def _slip_plane_route(phi: Perturbation, s: StaticState):
    """The slip-plane pieces ``(c0/2)|phi1|^2_{H^1/2}``,
    ``c0 int phi1 (-d_xx)^{1/2} u1`` and ``int [W(u1+phi1) - W(u1)]``,
    followed by their sum."""
    p = s.profile
    quad = 0.5 * p.params.c0 * hs_seminorm_grid(p.grid, phi.phi1, 0.5)
    cross = cross_term_gamma(s, phi)
    mis_diff = _misfit_difference(s, phi.phi1)
    return quad, cross, mis_diff, quad + cross + mis_diff


def reduced_perturbed_energy(phi: Perturbation, s: StaticState) -> float:
    """Perturbed energy of the reduced slip-plane system about a state.

    ``(c0/2)|phi1|^2_{H^1/2} + c0 int phi1 (-d_xx)^{1/2} u1
    + int [W(u1+phi1) - W(u1)]``.
    """
    return _slip_plane_route(phi, s)[-1]


# ---------------------------------------------------------------------------
# half-plane (2-d quadrature) route
# ---------------------------------------------------------------------------

def _abs2(m: np.ndarray) -> np.ndarray:
    return m.real**2 + m.imag**2


def _elastic_rows(amplitudes, G: float, nu: float) -> np.ndarray:
    """Per-mode kernels, one row per level, of the x-sum at height y of the
    density ``G (e11^2 + e22^2 + 2 e12^2) + (lambda/2) (e11 + e22)^2``
    against ``|rfft(trace)_k|^2``, from the real amplitudes ``(a11, a22,
    a12)`` of the strain multipliers ``(i a11, i a22, a12)``.  At the
    unpaired Nyquist mode (the last) only a multiplier's real part counts,
    as in ``irfft``: ``a11`` and ``a22`` are zeroed there, in place."""
    a11, a22, a12 = amplitudes
    a11[..., -1] = 0.0
    a22[..., -1] = 0.0
    lame = 2.0 * nu * G / (1.0 - 2.0 * nu)
    return G * (a11**2 + a22**2 + 2.0 * a12**2) + 0.5 * lame * (a11 + a22)**2


def _energy_table(
    grid: Grid1D, params: PhysParams, quad: BoxQuadrature, amplitudes=None,
) -> np.ndarray:
    """Per-mode weights ``T_k`` with ``(1/2) int sigma : eps = sum_k T_k
    |rfft(trace)_k|^2`` over both half-planes.

    ``amplitudes(q, y)`` returns real ``(a11, a22, a12)`` such that the
    upper-half strain multipliers on the ``rfft`` modes ``q = grid.xi_r``
    are ``(i a11, i a22, a12)``; the default is the elastic extension.
    The kernels (:func:`_elastic_rows`) are summed over the quadrature
    nodes and the mirror half-plane doubles the sum.
    """
    if amplitudes is None:
        amplitudes = partial(_strain_multipliers, nu=params.nu)
    q = grid.xi_r
    acc = np.zeros(len(q))
    for y, wts in _level_chunks(*quad.nodes_weights()):
        for wt, row in zip(wts, _elastic_rows(amplitudes(q, y), params.G, params.nu)):
            acc += wt * row
    return 2.0 * mode_weights(grid) * acc


def _quadratic(table: np.ndarray, phi1) -> float:
    return dot(table, _abs2(rfft(np.asarray(phi1, dtype=float))))


def _bilinear(table: np.ndarray, phi1) -> float:
    """``Re sum_k table_k rfft(phi1)_k``, the dot product of the (re, im)
    pairs of the conjugate table and of the spectrum."""
    return dot(np.conj(table).view(float), rfft(np.asarray(phi1, dtype=float)).view(float))


@dataclass(frozen=True, eq=False)
class HalfPlaneTables:
    """The half-plane quadrature of one profile as two per-mode vectors.

    Built once per (profile, quadrature) and applied to any number of
    perturbation traces, one ``rfft`` each:
    ``E_els(phi) = sum_k elastic_k |rfft(phi1)_k|^2`` and
    ``C_els(u, phi) = Re sum_k cross_k rfft(phi1)_k``.
    """

    elastic: np.ndarray = field(repr=False)
    cross: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, p: Profile, quad: BoxQuadrature) -> "HalfPlaneTables":
        """Both tables from one level walk (module docstring); the integrands
        are even under the mirror map, so each is twice its upper sum."""
        grid, prm = p.grid, p.params
        q = grid.xi_r
        xs = grid.x - p.x0
        el = np.zeros(len(q))
        bg = np.zeros(len(q), dtype=complex)
        for y, wts in _level_chunks(*quad.nodes_weights()):
            a11, a22, a12 = amp = _strain_multipliers(q, y, prm.nu)
            el_rows = _elastic_rows(amp, prm.G, prm.nu)
            S11, S12, S22 = rfft(_analytic_plane_stress(xs, y, prm.G, prm.b, prm.nu,
                                                        p.zeta_bg, +1.0))
            # m : conj(S) for m = (i a11, i a22, a12), with 2 m12 for e12 and e21;
            # _elastic_rows has zeroed a11 and a22 at the Nyquist mode
            bg_rows = np.empty(S12.shape, dtype=complex)
            a12_2 = 2.0 * a12
            bg_rows.real = a11 * S11.imag + a22 * S22.imag + a12_2 * S12.real
            bg_rows.imag = a11 * S11.real + a22 * S22.real - a12_2 * S12.imag
            for wt, el_row, bg_row in zip(wts, el_rows, bg_rows):
                el += wt * el_row
                bg += wt * bg_row
        w = 2.0 * mode_weights(grid)
        elastic = w * el
        return cls(elastic=elastic, cross=w * bg + 2.0 * elastic * np.conj(rfft(p.v)))

    def elastic_energy(self, phi1) -> float:
        return _quadratic(self.elastic, phi1)

    def cross_term(self, phi1) -> float:
        return _bilinear(self.cross, phi1)


def elastic_energy_of_trace(
    grid: Grid1D, phi1: np.ndarray, params: PhysParams, quad: BoxQuadrature,
) -> float:
    """``E_els(phi) = (1/2) int sigma_phi : eps_phi`` of the elastic
    extension of a decaying trace, by quadrature over both half-planes."""
    return _quadratic(_energy_table(grid, params, quad), phi1)


def cross_term_elastic(p: Profile, phi: Perturbation, quad: BoxQuadrature) -> float:
    """``C_els(u, phi) = int eps_phi : sigma_u`` over both half-planes.

    Background stress of u in closed form, correction spectrally.
    """
    return HalfPlaneTables.build(p, quad).cross_term(phi.phi1)


def _half_plane_route(phi: Perturbation, p: Profile, tables: HalfPlaneTables,
                      mis_diff: float):
    """``E_els(phi)`` and ``C_els(u, phi)`` from the profile's tables,
    followed by their sum with the misfit difference ``mis_diff``.
    Warns when the perturbation's field has not decayed at the
    quadrature boundary."""
    if not phi.check_decay(p.params.b):
        warnings.warn("perturbation trace above decay threshold outside the "
                      "central half of the grid", stacklevel=3)
    e_els = tables.elastic_energy(phi.phi1)
    c_els = tables.cross_term(phi.phi1)
    return e_els, c_els, e_els + c_els + mis_diff


# ---------------------------------------------------------------------------
# boxed elastic energy (log divergence study)
# ---------------------------------------------------------------------------

def _density_change(b, c, nu):
    """``4 G`` times the change that in-plane stresses ``c`` make to the
    plane-strain energy density ``(1/2) sigma : eps = (s11^2 + s22^2 - nu
    (s11 + s22)^2 + 2 s12^2) / (4 G)`` of ``b`` (each a sequence ``(s11,
    s12, s22)``), expanded so that no two large densities cancel: the
    solved correction's stress is about 1e-10 of the core's."""
    b11, b12, b22 = b
    c11, c12, c22 = c
    tc = c11 + c22
    return (2.0 * (b11 * c11 + b22 * c22 + 2.0 * b12 * c12)
            - 2.0 * nu * (b11 + b22) * tc
            + c11 * c11 + c22 * c22 - nu * tc * tc + 2.0 * c12 * c12)


def _core_density_integral(x_lo, x_hi, y, G, b, nu, zeta):
    """x-integral over ``[x_lo, x_hi]`` of the plane-strain density ``(1/2)
    sigma : eps`` of the arctan core's upper branch (its stress is
    :func:`pnedge.extension._analytic_plane_stress`) at the heights ``y``,
    in closed form.

    With ``k = G b / (2 pi (1 - nu))``, ``p = y + zeta`` and ``u = 1/(x^2 +
    p^2)``, the identity ``x^2 u^2 = u - p^2 u^2`` takes the density to
    ``(k^2 / (2 G)) (u + (zeta^2 - 2 nu p^2) u^2)``: the Volterra edge
    field's ``(1 - 2 nu sin^2 theta) / r^2`` moved up by zeta (Hirth and
    Lothe, Theory of Dislocations, 2nd ed., 1982).  Its x-integral follows
    from ``int u = arctan(x/p) / p`` and ``int u^2 = x u / (2 p^2) +
    arctan(x/p) / (2 p^3)``.
    """
    k = G * b / (2.0 * np.pi * (1.0 - nu))
    p = y + zeta
    m = 0.5 * (zeta / p) ** 2 - nu  # (zeta^2 - 2 nu p^2) / (2 p^2)
    angle = np.arctan(x_hi / p) - np.arctan(x_lo / p)
    rational = x_hi / (x_hi * x_hi + p * p) - x_lo / (x_lo * x_lo + p * p)
    return (k * k / (2.0 * G)) * ((1.0 + m) * angle / p + m * rational)


def _box_background(p: Profile, R: float, n_levels: int) -> float:
    """Upper-half quadrature of the closed-form background's density over
    ``|x| <= R, 0 <= y <= R``: trapezoid weights on the box's own nodes
    ``BoxQuadrature(zeta/50, R, n_levels)`` against the exact x-integral
    at each node (:func:`_core_density_integral`)."""
    prm = p.params
    ys, wy = BoxQuadrature(_first_level(prm), R, n_levels).nodes_weights()
    return dot(wy, _core_density_integral(-R - p.x0, R - p.x0, ys, prm.G, prm.b, prm.nu,
                                          p.zeta_bg))


def _box_correction_nodes(y0: float, radii, n_levels: int, every: int = 1) -> np.ndarray:
    """Nodes of the shared correction walk: ``{0}``, ``M`` geometric levels
    from ``y0`` to the largest radius, and every radius.  ``M`` keeps at
    least ``n_levels`` geometric levels at or below the smallest radius,
    so at or below every radius; for one radius it is ``n_levels`` and the
    nodes are that box's own.  ``every=2`` keeps every other geometric
    level from the first, a subset of the nodes with at least
    ``n_levels / 2`` levels at or below every radius (the top level is the
    largest radius, so it stays)."""
    r_min, r_max = min(radii), max(radii)
    # the ratio apart, so that one radius gives exactly n_levels
    ratio = np.log(r_max / y0) / np.log(r_min / y0)
    m = 1 + int(np.ceil((n_levels - 1) * ratio))
    levels = np.geomspace(y0, r_max, m)[::every]
    # a set, not np.unique, whose first call imports numpy.ma (1 MB resident)
    return np.array(sorted({0.0, *levels.tolist(), *radii}))


def _box_correction(p: Profile, ys: np.ndarray, radii) -> np.ndarray:
    """x-sums, one row per node of ``ys`` and one column per radius R, of
    the density change the correction v adds over ``|x| <= R``.

    One walk serves all radii: each level takes the correction's strains
    (3 inverse transforms), the grid background stress and their density
    change (:func:`_density_change`) once, on the largest radius's window
    of the periodic grid, and each radius sums its own slice of that
    window along the level's contiguous row.
    """
    prm, grid = p.params, p.grid
    G, nu = prm.G, prm.nu
    # the window |x| <= R is one index range of the sorted nodes; each
    # radius's range is a slice of the largest one's
    x = grid.x
    r_max = max(radii)
    lo, hi = np.searchsorted(x, -r_max), np.searchsorted(x, r_max, side="right")
    xg = x[lo:hi] - p.x0
    cols = [slice(np.searchsorted(x, -R) - lo, np.searchsorted(x, R, side="right") - lo)
            for R in radii]

    v_hat = rfft(p.v)
    sums = np.empty((len(ys), len(radii)))
    for y, rows in _level_chunks(ys, sums):
        ev = _strains_of_spectrum(grid, v_hat, nu, y)
        corr = _plane_stresses(*(e[:, lo:hi] for e in ev), G, nu)
        core = _analytic_plane_stress(xg, y, G, prm.b, nu, p.zeta_bg, +1.0)
        dens = (grid.h / (4.0 * G)) * _density_change(core, corr, nu)
        for j, sub in enumerate(cols):
            rows[:, j] = np.sum(dens[:, sub], axis=-1)
    return sums


def _box_trapezoid(ys: np.ndarray, sums: np.ndarray, radii) -> list[float]:
    """For every radius R, the trapezoid rule on the nodes ``ys`` up to R
    against that radius's column of the window sums ``sums``, added one
    node at a time in node order."""
    totals = []
    for j, R in enumerate(radii):
        top = np.searchsorted(ys, R, side="right")
        total = 0.0
        for wt, row in zip(_trapezoid_weights(ys[:top]), sums[:top, j].tolist()):
            total += wt * row
        totals.append(total)
    return totals


def elastic_energy_box(p: Profile, radii, n_levels: int = 192, coarse: bool = False):
    """Elastic energies ``(1/2) int sigma : eps`` over the boxes
    ``|x| <= R, |y| <= R`` minus the slip plane, one per radius R of
    ``radii``, in their order.

    Background density integrated over x in closed form on each box's
    own nodes (:func:`_box_background`); correction stresses spectrally on
    the profile grid, in one level walk shared by all radii
    (:func:`_box_correction`), summed with each radius's trapezoid
    weights.  Grows like ``slope * ln R`` for ``R >> zeta``.

    With ``coarse``, returns the pair ``(energies, coarse_energies)``.
    The second list is the same boxes at about half the y-levels, from
    the same walk: each background on its box's own ``n_levels // 2``
    levels, and the correction on the walk's nodes with every other
    geometric level dropped (``_box_correction_nodes(..., every=2)``).
    """
    radii = [float(R) for R in radii]
    if max(radii) > p.grid.L / 2.0:
        raise ValueError(f"box radius {max(radii)} exceeds L/2 = {p.grid.L / 2.0}")
    y0 = _first_level(p.params)
    ys = _box_correction_nodes(y0, radii, n_levels)
    sums = _box_correction(p, ys, radii)

    def energies(rows, levels):
        corrections = _box_trapezoid(ys[rows], sums[rows], radii)
        return [2.0 * (_box_background(p, R, levels) + c) for R, c in zip(radii, corrections)]

    fine = energies(slice(None), n_levels)
    if not coarse:
        return fine
    # the subset's nodes are nodes of ys, so each is found exactly
    sub = np.searchsorted(ys, _box_correction_nodes(y0, radii, n_levels, every=2))
    return fine, energies(sub, n_levels // 2)


def log_fit(x, y) -> tuple[float, float, float]:
    """Least-squares fit ``y ~ slope ln x + intercept``; returns
    (slope, intercept, R^2 of the regression)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([np.log(x), np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    return float(coef[0]), float(coef[1]), r2


def log_divergence_fit(p: Profile, radii):
    """Box energies ``E(R)`` at ``radii`` (:func:`elastic_energy_box`) and
    their affine fit ``E ~ slope ln R + intercept``; returns (energies,
    slope, intercept, R^2 of the regression)."""
    energies = elastic_energy_box(p, radii)
    return (energies, *log_fit(radii, energies))


# ---------------------------------------------------------------------------
# breakdown container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    """All perturbed-energy pieces for one (profile, perturbation) pair."""

    E_gamma_e_pert: float      # (c0/2) |phi1|^2_{H^1/2}
    cross_gamma: float         # c0 int phi1 (-dxx)^{1/2} u1
    misfit_difference: float
    E_hat_gamma: float         # slip-plane route total
    E_els_pert: float          # (1/2) int sigma_phi : eps_phi
    cross_els: float           # int eps_phi : sigma_u
    E_hat_total: float         # half-plane route total


def energy_breakdown(
    phi: Perturbation, s: StaticState, tables: HalfPlaneTables,
) -> EnergyBreakdown:
    """Both routes to the perturbed energy of one perturbation about a
    state, each piece evaluated once; ``tables`` are its profile's."""
    gamma = _slip_plane_route(phi, s)
    return EnergyBreakdown(*gamma, *_half_plane_route(phi, s.profile, tables, gamma[2]))


# ---------------------------------------------------------------------------
# competitor fields for the extension-optimality check
# ---------------------------------------------------------------------------

def competitor_energy(
    grid: Grid1D, phi1: np.ndarray, params: PhysParams, family, quad: BoxQuadrature,
) -> float:
    """Elastic energy of a same-trace competitor field.

    The competitor is prescribed per mode as ``uhat1 = phihat1 f(q y)``
    and ``uhat2 = i sgn(xi) phihat1 g(q y)`` with ``f(0) = 1``.
    ``family(t)`` returns ``(f, f', g, g')`` at ``t``, or ``(f, f')`` for a
    competitor with no u2 part (``g = 0``), so that a family forms its
    exponential once a chunk of levels.  Strains are assembled
    analytically per mode and integrated through the same density table
    as the elastic extension.
    """

    def amplitudes(q, y):
        # on the rfft modes xi = q >= 0, so i sgn(xi) q = i q: the
        # multipliers are (i q f(t), i q g'(t), (q f'(t) - q g(t))/2)
        f, fp, *u2 = family(q * y)
        if not u2:
            return q * f, np.zeros_like(f), 0.5 * (q * fp)
        g, gp = u2
        return q * f, q * gp, 0.5 * (q * fp - q * g)

    return _quadratic(_energy_table(grid, params, quad, amplitudes), phi1)
