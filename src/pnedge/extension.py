"""Elastic extension of slip-plane data into the two half-planes.

Given the trace ``u1(x, 0+)``, the equilibrium displacement in each
half-plane is determined mode by mode.  Writing ``q = |xi|``,
``beta = 1/(2 - 2 nu)`` and ``A = uhat1(xi, 0+)``, the upper half-plane
fields are

    ``uhat1(xi, y) = A (1 - beta q y) e^{-q y}``
    ``uhat2(xi, y) = -A beta ((1 - 2 nu) i sgn(xi) + i xi y) e^{-q y}``

and the lower half-plane follows from the mirror symmetry
``u1(x, -y) = -u1(x, y)``, ``u2(x, -y) = u2(x, y)`` (:data:`PARITY`).  Strains
are assembled with the analytic y-derivatives of the factors, so the
plane-strain identities (``sigma33 = nu (sigma11 + sigma22)``,
``sigma22 = 0`` on the slip plane) hold per mode to roundoff.

Profiles are split as background plus correction: the background fields
and stresses use the closed forms of the arctan core, the correction
passes through the spectral formulas.  Only the upper half-plane is
computed: :func:`extend_to_half_planes` and :func:`stress_field` return a
map from each component name (``u1, u2, s11, s12, s22, s33``, the keys of
:data:`PARITY` and :func:`analytic_fields`) to its (level, x) array, and
the CSV writer mirrors each one (``write_field_csv(mirror=PARITY[c])``).

Every walk over y-levels, here and in :mod:`pnedge.energy`, takes them
in chunks with the heights as a column (:func:`_level_chunks`): one set
of 2-d array operations and one batched FFT a chunk, with the bits of a
level-at-a-time loop.  A walk over rows of the grid takes
``_LEVEL_CHUNK`` (4) levels a chunk at any N.  A walk over rows of
``width`` points, such as the 1,024- and 512-point x-windows of the box
energies, takes ``max(4, 16384 // width)`` levels (16 and 32 there), so
its chunks hold no more points than four rows of the default N = 4096
grid.  Live memory stays a few chunk arrays whatever the number of
levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D
from .operators import irfft, rfft
from .params import PhysParams
from .profile import Profile
from .static import half_laplacian_profile


# ---------------------------------------------------------------------------
# sampling geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class YLevels:
    """Positive sampling heights of the upper half-plane, geometric by default."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("y levels must be a nonempty 1-d array")
        if vals[0] <= 0:
            raise ValueError("y levels must be strictly positive")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("y levels must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def geometric(cls, y_min: float, y_max: float, n: int) -> "YLevels":
        return cls(values=np.geomspace(y_min, y_max, n))


_LEVEL_CHUNK = 4  #: y-levels evaluated together by a walk over the grid's rows
_CHUNK_POINTS = 16384  #: points a row array of a narrow walk's chunk holds


def _level_chunks(ys: np.ndarray, *per_level: np.ndarray, width: int | None = None):
    """The heights ``ys`` in chunks: each chunk's heights as a column (so
    the per-level formulas broadcast to one row per level), followed by
    the chunk's rows of each ``per_level`` array.

    A walk over the grid takes ``_LEVEL_CHUNK`` levels a chunk.  A walk
    whose rows are ``width`` points, not the grid's, takes
    ``max(_LEVEL_CHUNK, _CHUNK_POINTS // width)``, so that a narrow row
    does not pay numpy's per-call cost for a few points."""
    n = _LEVEL_CHUNK if width is None else max(_LEVEL_CHUNK, _CHUNK_POINTS // width)
    for s in range(0, len(ys), n):
        rows = slice(s, s + n)
        yield (ys[rows, None], *(a[rows] for a in per_level))


# ---------------------------------------------------------------------------
# closed forms for the arctan core
# ---------------------------------------------------------------------------

def _analytic_displacement(x, y, b, nu, zeta, sign):
    """Displacement of the arctan core at (x, y); sign = +-1 picks the branch.

    The branch offset never vanishes (|y + sign*zeta| >= zeta on the
    matching half-plane), so the principal arctan is safe and the mirror
    symmetry holds exactly.
    """
    x = np.asarray(x, float)
    p = y + sign * zeta
    r2 = x * x + p * p
    u1 = (b / (2.0 * np.pi)) * (
        -np.arctan(x / p) + x * y / (2.0 * (1.0 - nu) * r2)
    )
    u2 = -(b / (2.0 * np.pi)) * (
        (1.0 - 2.0 * nu) / (4.0 * (1.0 - nu)) * np.log(r2)
        + (x * x - y * y + zeta * zeta) / (4.0 * (1.0 - nu) * r2)
    )
    return u1, u2


def _analytic_plane_stress(x, y, G, b, nu, zeta, sign):
    """In-plane stress of the arctan core at (x, y), one array whose first
    axis is (s11, s12, s22); sign = +-1 picks the branch.

    With ``k = G b / (2 pi (1 - nu))``, ``p = y + sign zeta`` and
    ``r2 = x^2 + p^2``:

        ``s11 = -k (3 y + 2 sign zeta) / r2 + 2 k y p^2 / r2^2``
        ``s12 = k x / r2 - 2 k y p x / r2^2``
        ``s22 = -k y / r2 + 2 k y x^2 / r2^2``

    Each point takes one reciprocal ``1/r2`` and its square; the factors
    that depend on the height alone are formed once per height (a column
    of heights gives each height the bits it has alone).  s12 stays a
    difference of two terms that each carry x, so it is +0.0 at x = 0.
    """
    x = np.asarray(x, float)
    k = G * b / (2.0 * np.pi * (1.0 - nu))
    p = y + sign * zeta
    ky = 2.0 * k * y
    xx = x * x
    inv = np.add(xx, p * p)
    np.divide(1.0, inv, out=inv)
    inv2 = inv * inv
    # each row is written in place, with one scratch row for the term it
    # adds: row expressions' temporaries make a call about 1.2x slower and
    # `pnedge energy` about 3% slower
    out = np.empty((3,) + inv.shape)
    s11, s12, s22 = out
    t = np.empty(inv.shape)
    np.multiply(-k * (3.0 * y + sign * 2.0 * zeta), inv, out=s11)
    s11 += np.multiply(ky * p * p, inv2, out=t)
    np.multiply(k, inv, out=s12)
    s12 *= x
    np.multiply(ky * p, inv2, out=t)
    s12 -= np.multiply(t, x, out=t)
    np.multiply(-k * y, inv, out=s22)
    np.multiply(ky, xx, out=t)
    s22 += np.multiply(t, inv2, out=t)
    return out


def _analytic_stress(x, y, G, b, nu, zeta, sign):
    """Stress (s11, s12, s22, s33) of the arctan core at (x, y): the rows of
    the in-plane stress and the plane-strain s33."""
    p = y + sign * zeta
    s33 = G * b / (2.0 * np.pi * (1.0 - nu)) * (-2.0 * nu * p / (x * x + p * p))
    return (*_analytic_plane_stress(x, y, G, b, nu, zeta, sign), s33)


def analytic_fields(params: PhysParams, points, side: int | None = None):
    """Closed-form displacement and stress of the arctan core at (x, y) points.

    Oracle for the spectral extension.  Points on the slip plane
    (``y == 0``) need ``side`` (+1 or -1) to pick the one-sided limit.
    Returns a dict with arrays ``u1, u2, s11, s12, s22, s33``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    sign = np.sign(y)
    if np.any(sign == 0):
        if side not in (+1, -1):
            raise ValueError("points with y = 0 require side=+1 or side=-1")
        sign = np.where(sign == 0, side, sign)
    b, nu, G, zeta = params.b, params.nu, params.G, params.zeta
    u1 = np.empty(len(pts))
    u2 = np.empty(len(pts))
    s = np.empty((4, len(pts)))
    for sgn in (+1.0, -1.0):
        m = sign == sgn
        if not np.any(m):
            continue
        u1[m], u2[m] = _analytic_displacement(x[m], y[m], b, nu, zeta, sgn)
        s[0, m], s[1, m], s[2, m], s[3, m] = _analytic_stress(x[m], y[m], G, b, nu, zeta, sgn)
    return {"u1": u1, "u2": u2, "s11": s[0], "s12": s[1], "s22": s[2], "s33": s[3]}


# ---------------------------------------------------------------------------
# spectral extension of a decaying trace
# ---------------------------------------------------------------------------

def _u1_factor(q, beta, y):
    return (1.0 - beta * q * y) * np.exp(-q * y)


def _u2_multiplier(q, nu, beta, y):
    # on the rfft modes xi = q >= 0, so i sgn(xi) = i sgn(q)
    return -beta * ((1.0 - 2.0 * nu) * 1j * np.sign(q) + 1j * q * y) * np.exp(-q * y)


def _strain_multipliers(q, y, nu) -> np.ndarray:
    """Real amplitudes ``(a11, a22, a12)`` of the Fourier multipliers
    ``(i a11, i a22, a12)`` that take uhat1(xi,0+) to the upper-half strains
    (e11, e22, e12), on the rfft modes (``xi = q >= 0``), as one real array
    whose first axis is the component."""
    beta = 1.0 / (2.0 - 2.0 * nu)
    decay = np.exp(-q * y)
    a = np.empty((3,) + decay.shape)
    np.multiply(q * (1.0 - beta * q * y), decay, out=a[0])
    np.multiply(-q * beta * (2.0 * nu - q * y), decay, out=a[1])
    np.multiply(q * beta * (q * y - 1.0), decay, out=a[2])
    return a


def _displacement_of_spectrum(grid: Grid1D, trace_hat: np.ndarray, nu: float, y: float):
    """:func:`extend_trace_displacement` from the trace's ``rfft``, so that a
    caller sampling many levels transforms the trace once."""
    beta = 1.0 / (2.0 - 2.0 * nu)
    q = grid.xi_r
    symbols = np.stack([_u1_factor(q, beta, y), _u2_multiplier(q, nu, beta, y)])
    u1, u2 = irfft(grid, symbols * trace_hat)
    return u1, u2


def _strains_of_spectrum(grid: Grid1D, trace_hat: np.ndarray, nu: float, y: float):
    """:func:`extend_trace_strains` from the trace's ``rfft``."""
    a = _strain_multipliers(grid.xi_r, y, nu)
    m = np.empty(a.shape, dtype=complex)
    np.multiply(a[:2], 1j * trace_hat, out=m[:2])
    np.multiply(a[2], trace_hat, out=m[2])
    e11, e22, e12 = irfft(grid, m)
    return e11, e22, e12


def extend_trace_displacement(grid: Grid1D, trace: np.ndarray, nu: float, y: float):
    """Upper-half displacement (u1, u2) at height y >= 0 of a decaying trace."""
    return _displacement_of_spectrum(grid, rfft(np.asarray(trace, float)), nu, y)


def extend_trace_strains(grid: Grid1D, trace: np.ndarray, nu: float, y: float):
    """Upper-half strains (e11, e22, e12) at height y >= 0 of a decaying trace."""
    return _strains_of_spectrum(grid, rfft(np.asarray(trace, float)), nu, y)


def _plane_stresses(e11, e22, e12, G: float, nu: float):
    """In-plane stresses (s11, s12, s22) of the plane-strain isotropic map."""
    lame = 2.0 * nu * G / (1.0 - 2.0 * nu)
    tr = e11 + e22
    return 2.0 * G * e11 + lame * tr, 2.0 * G * e12, 2.0 * G * e22 + lame * tr


def strains_to_stresses(e11, e22, e12, G: float, nu: float):
    """Plane-strain isotropic constitutive map (e33 = 0): the in-plane
    stresses and s33 = lame (e11 + e22)."""
    lame = 2.0 * nu * G / (1.0 - 2.0 * nu)
    return (*_plane_stresses(e11, e22, e12, G, nu), lame * (e11 + e22))


# ---------------------------------------------------------------------------
# fields on the y-levels
# ---------------------------------------------------------------------------

#: parity of each component under y -> -y (u1 and the normal stresses
#: odd): the sign that maps the upper half-plane onto the lower one
PARITY = {"u1": -1, "u2": 1, "s11": -1, "s12": 1, "s22": -1, "s33": -1}


def _upper_half_walk(p: Profile, ys: np.ndarray, names: tuple[str, ...], core, correction):
    """The components ``names`` of a profile's field at the heights ``ys``,
    as a map from each name to its (level, x) array: the core's closed form
    ``core(x - x0, y)``, written into a chunk's rows, plus the correction's
    spectral field ``correction(rfft(v), y)`` added in place, with ``y`` a
    column of the chunk's heights.  ``core`` and ``correction`` return the
    components in the order of ``names``."""
    grid = p.grid
    xs = grid.x - p.x0
    v_hat = rfft(p.v)
    out = {c: np.empty((len(ys), grid.N)) for c in names}
    for y, *rows in _level_chunks(ys, *out.values()):
        for row, values in zip(rows, core(xs, y)):
            row[...] = values
        for row, values in zip(rows, correction(v_hat, y)):
            row += values
    return out


def extend_to_half_planes(p: Profile, yl: YLevels) -> dict[str, np.ndarray]:
    """Displacement ``{"u1", "u2"}`` of a profile on the y-levels of the
    upper half-plane, each a (level, x) array.

    Background by the closed form of the upper branch (+zeta), correction
    through the spectral factors; the zero mode of the u2 correction is 0,
    so u2 carries the additive-constant gauge of the closed form only.
    """
    prm = p.params
    return _upper_half_walk(
        p, yl.values, ("u1", "u2"),
        lambda xs, y: _analytic_displacement(xs, y, prm.b, prm.nu, p.zeta_bg, +1.0),
        lambda v_hat, y: _displacement_of_spectrum(p.grid, v_hat, prm.nu, y))


def stress_field(p: Profile, yl: YLevels) -> dict[str, np.ndarray]:
    """Stress ``{"s11", "s12", "s22", "s33"}`` of a profile on the y-levels
    of the upper half-plane, each a (level, x) array.

    Correction strains come from the analytic y-derivatives of the
    spectral factors (no differencing across levels); background stress
    from the closed form of the upper branch.
    """
    prm = p.params
    return _upper_half_walk(
        p, yl.values, ("s11", "s12", "s22", "s33"),
        lambda xs, y: _analytic_stress(xs, y, prm.G, prm.b, prm.nu, p.zeta_bg, +1.0),
        lambda v_hat, y: strains_to_stresses(*_strains_of_spectrum(p.grid, v_hat, prm.nu, y),
                                             prm.G, prm.nu))


def dtn_traction(p: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Traction on the slip plane induced by the displacement trace.

    The map is diagonal in Fourier space:
    ``sigma12 = -(G/(1-nu)) (-d_xx)^{1/2} u1`` and ``sigma22 = 0``
    identically.  At a static profile the force balance gives
    ``2 sigma12 = W'(u1)``.
    """
    prm = p.params
    sigma12 = -(prm.G / (1.0 - prm.nu)) * half_laplacian_profile(p)
    return sigma12, np.zeros_like(sigma12)

