"""Misfit potential across the slip plane.

The displacement jump is penalized by a periodic multi-well density
``W(u)`` with period ``b/2`` whose minima (normalized to zero) sit at
``u = +-b/4`` and describe the perfect lattice.  Two realizations are
provided: the classical Frenkel sinusoid

    ``W(u) = G b^2 / (4 pi^2 d) * (1 + cos(4 pi u / b))``,

evaluated in the offset ``delta = u - copysign(b/4, u)`` from the well
on u's side through one tangent ``t = tan(2 pi delta / b)`` by the
half-angle identities

    ``W = G b^2 / (2 pi^2 d) t^2 / (1 + t^2)``,
    ``W' = 2 G b / (pi d) t / (1 + t^2)``,
    ``W'' = 4 G / d (1 - t^2) / (1 + t^2)``,

which hold exactly for every u (tan has the potential's period; on
``[-b/2, b/2]``, ``|2 pi delta / b| <= pi/2``).  They are evaluated as
``s = t / (1 + t^2)``, W from ``t s``, W' from ``s`` and W'' from
``1 - 2 t s``, so one call (``order=(0, 1)``) gives W and W' in the two
arrays that held t and s.  Away from the core u1 lies close to a well:
there t is small, and W and W' keep their relative accuracy down to the
well, with no ``1 + cos`` cancellation; W is even and W' odd bit for
bit, and ``W''(+-b/4)`` is ``4 G / d`` exactly.

Why the tangent: numpy 2.4's float64 ``tan`` is a SIMD loop on x86-64
with AVX-512, about 2 ns an element at N = 16384 (2-core host), while
its ``sin`` and ``cos`` are scalar libm loops at about 9-11 and 5-6 ns.
The bits therefore follow numpy's ``tan`` kernel, as the background's
follow its ``arctan``.  Against a long-double ``sin`` evaluation on
420,002 points of ``[-b, b]``, the largest error over its scale
(``G b^2 / (2 pi^2 d)``, ``G b / (pi d)``, ``4 G / d``), in units of
eps = 2.2e-16, for the default parameters / ``(G, nu, b, d) = (0.8,
0.3, 1.3, 0.9)``; the sin forms are those of the same offset:

    =====  =============  =========
    order  tangent forms  sin forms
    =====  =============  =========
    W      3.2 / 4.1      3.2 / 4.1
    W'     5.7 / 7.8      5.7 / 7.8
    W''    6.5 / 7.4      5.4 / 7.0
    =====  =============  =========

The rms errors agree to within 0.1 eps: the rounding of delta sets the
error, not the transcendental.

The second realization is a tabulated density with periodic cubic
interpolation.  The table's spline is the package's own
(:class:`PeriodicSpline`): the C^2 periodic cubic through the samples,
fitted by one O(n) solve of the cyclic tridiagonal system for its knot
slopes (no LAPACK call, so no BLAS thread count can move its bits) and
evaluated by Horner's rule after one reduction to the period.  The
reduction avoids the scalar loop of ``np.mod`` (about 12 ns an element)
where it can: an offset within a period is reduced by adding the period
where it is negative, with the bits of ``np.mod``.  scipy's
``CubicSpline(..., bc_type="periodic")`` is the same spline; the tests
compare against it at a stated tolerance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .params import PhysParams

#: number of dense samples in the interior scan of :func:`validate_potential`
_SCAN_POINTS = 10_000


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Misfit potential: the Frenkel closed form, or with a ``table`` of
    (u, W) samples the periodic spline through them; compared by identity."""

    params: PhysParams
    table: Optional[np.ndarray] = field(default=None, repr=False)
    _spline: Optional["PeriodicSpline"] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.table is not None:
            object.__setattr__(self, "_spline", _build_periodic_spline(
                self.table, self.period))

    @property
    def period(self) -> float:
        """Period b/2 in the slip-plane displacement."""
        return self.params.b / 2.0

    @cached_property
    def max_curvature(self) -> float:
        """``max|W''|`` on 512 points from well to well, ``[-b/4, b/4]``:
        the probe that caps the steps of the static sweep and of
        :func:`pnedge.dynamics.run_dynamics`; made once."""
        b = self.params.b
        probe = np.linspace(-b / 4.0, b / 4.0, 512)
        return float(np.max(np.abs(eval_potential(self, probe, 2))))


def frenkel(params: PhysParams) -> PotentialSpec:
    """The sinusoidal potential; admits the closed-form arctan core."""
    return PotentialSpec(params)


def from_table(params: PhysParams, table: np.ndarray) -> PotentialSpec:
    """Tabulated potential from (u, W) pairs covering one period."""
    return PotentialSpec(params, np.asarray(table, float))


def from_csv(params: PhysParams, path) -> PotentialSpec:
    """Load a tabulated potential from a CSV file with columns u, W.

    Blank rows and a header row starting with ``u`` are skipped; any other
    row that is not two numbers raises a ``ValueError`` naming its line.
    """
    rows = []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() == "u":
                continue
            try:
                u, w = map(float, row)
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: expected two numbers "
                                 f"u, W, got {','.join(row)!r}") from None
            rows.append((u, w))
    return from_table(params, np.asarray(rows))


def _build_periodic_spline(table: np.ndarray, period: float) -> "PeriodicSpline":
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2:
        raise ValueError("potential table must have two columns (u, W)")
    u = np.mod(table[:, 0], period)
    order = np.argsort(u)
    u, w = u[order], table[order, 1]
    u, idx = np.unique(u, return_index=True)
    w = w[idx]
    if len(u) < 8:
        raise ValueError(
            f"potential table needs at least 8 samples per period, got {len(u)}"
        )
    # close the period for the periodic boundary condition
    u_ext = np.concatenate([u, [u[0] + period]])
    w_ext = np.concatenate([w, [w[0]]])
    spline = PeriodicSpline.fit(u_ext, w_ext)
    spline.c[3] -= spline(period / 2.0, 0)  # W = 0 at the wells u = +-b/4
    return spline


def eval_potential(spec: PotentialSpec, u, order: int | tuple = 0):
    """Evaluate W (order 0), W' (1) or W'' (2) at displacement(s) ``u``; a
    tuple of orders, such as ``(0, 1)``, gives the tuple of their values,
    each with the bits of its single-order call: either potential reduces
    u once for all of them."""
    orders = order if isinstance(order, tuple) else (order,)
    for k in orders:
        if k not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {k}")
    u = np.asarray(u, dtype=float)
    if spec.table is None:
        values = _frenkel(spec.params, u, orders)
    else:
        values = spec._spline(u, orders)
    return tuple(values) if isinstance(order, tuple) else values[0]


def _frenkel(p: PhysParams, u: np.ndarray, orders: tuple) -> list:
    """The Frenkel W, W' or W'' at u for each of ``orders``, from one
    ``t = tan(2 pi delta / b)`` (module docstring).  ``s = t / (1 + t^2)``
    and ``t s`` fill the two arrays that become the outputs; an order that
    shares its array with a later one takes a copy."""
    t = np.copysign(p.b / 4.0, u, out=np.empty(u.shape))
    np.subtract(u, t, out=t)
    t *= 2.0 * np.pi / p.b
    np.tan(t, out=t)
    s = np.square(t, out=np.empty(u.shape))
    s += 1.0
    np.divide(t, s, out=s)  # t / (1 + t^2)
    t *= s                  # t^2 / (1 + t^2)
    reads = (t, s, t)  # the array each order is made from
    scales = (p.G * p.b**2 / (2.0 * np.pi**2 * p.d), 2.0 * p.G * p.b / (np.pi * p.d),
              4.0 * p.G / p.d)
    values = []
    for i, k in enumerate(orders):
        w = reads[k]
        if any(reads[j] is w for j in orders[i + 1:]):
            w = w.copy()
        if k == 2:  # 1 - 2 t^2 / (1 + t^2)
            w *= -2.0
            w += 1.0
        w *= scales[k]
        values.append(w[()])  # a scalar for a scalar u
    return values


@dataclass(frozen=True)
class PotentialReport:
    """Outcome of the structural checks on a misfit potential."""

    interior_strict_minimum: bool
    positive_curvature_at_wells: bool

    @property
    def passed(self) -> bool:
        return self.interior_strict_minimum and self.positive_curvature_at_wells


def validate_potential(spec: PotentialSpec) -> PotentialReport:
    """Check the multi-well structure required of a misfit potential.

    Two report-only checks: (i) ``W(v) > W(b/4) + 1e-10 G b^2 / d``
    strictly on a dense scan of the open interval between the wells, and
    (ii) ``W''(b/4) > 0``, read exactly.  W has period b/2, so the well at
    -b/4 is the one at b/4.  The scan's points nearest the well lie
    ``b / (2 (_SCAN_POINTS + 1))`` from it, so (i) already fails a well
    whose curvature is below ``8e-10 (_SCAN_POINTS + 1)^2 G / d``, about
    0.080 G/d; the Newton polish's ``max(W''(b/4), 0.1 G / d)`` acts
    only on (0.080, 0.1) G/d.
    """
    p = spec.params
    b = p.b
    well, curvature = eval_potential(spec, b / 4.0, (0, 2))
    v = np.linspace(-b / 4.0, b / 4.0, _SCAN_POINTS + 2)[1:-1]
    floor = well + 1e-10 * p.G * b**2 / p.d
    return PotentialReport(
        interior_strict_minimum=bool(np.all(eval_potential(spec, v, 0) > floor)),
        positive_curvature_at_wells=bool(curvature > 0.0),
    )


def _solve_cyclic(lower, diag, upper, rhs) -> np.ndarray:
    """Solution s of the strictly diagonally dominant cyclic tridiagonal
    system ``lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]``
    (indices mod n): Thomas elimination without pivoting, on Python floats,
    with the corners folded into the diagonal and restored by one
    Sherman-Morrison update, so no BLAS thread count can move its bits."""
    lower, diag, upper, rhs = (list(map(float, a)) for a in (lower, diag, upper, rhs))
    n = len(diag)
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= upper[-1] * lower[0] / gamma
    u = [gamma] + [0.0] * (n - 2) + [upper[-1]]
    ratio, x, z = [upper[0] / diag[0]], [rhs[0] / diag[0]], [u[0] / diag[0]]
    for i in range(1, n):
        pivot = diag[i] - lower[i] * ratio[-1]
        ratio.append(upper[i] / pivot)
        x.append((rhs[i] - lower[i] * x[-1]) / pivot)
        z.append((u[i] - lower[i] * z[-1]) / pivot)
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
        z[i] -= ratio[i] * z[i + 1]
    scale = (x[0] + lower[0] * x[-1] / gamma) / (1.0 + z[0] + lower[0] * z[-1] / gamma)
    return np.array(x) - scale * np.array(z)


#: factors taking the power coefficients (highest first) of a cubic to
#: those of its first and second derivatives
_DERIVATIVE_FACTORS = (np.ones(4), np.array([3.0, 2.0, 1.0]), np.array([6.0, 2.0]))


@dataclass(frozen=True, eq=False)
class PeriodicSpline:
    """C^2 periodic cubic spline through ``(x[i], y[i])`` with ``y[-1] == y[0]``.

    ``c[:, i]`` holds the power coefficients of the interval
    ``[x[i], x[i+1]]`` in the offset from ``x[i]``, highest power first.
    """

    x: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, x, y) -> "PeriodicSpline":
        """The spline through at least 4 knots, with ``y[-1] == y[0]``.

        The knot slopes s (``s[n] = s[0]``) solve the cyclic system of C^2
        continuity, row i ``dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] +
        dx[i-1] s[i+1] = 3 (dx[i] m[i-1] + dx[i-1] m[i])`` for the secant
        slopes m; each interval is the cubic Hermite interpolant of its end
        values and slopes.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline knots must be strictly increasing")
        m = np.diff(y) / dx
        dx_prev, m_prev = np.roll(dx, 1), np.roll(m, 1)
        s = _solve_cyclic(dx, 2 * (dx_prev + dx), dx_prev, 3 * (dx * m_prev + dx_prev * m))
        s = np.append(s, s[0])
        t = (s[:-1] + s[1:] - 2 * m) / dx
        c = np.stack((t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]))
        return cls(x=x, c=c)

    def _locate(self, u):
        """Interval index and offset in it of every ``u``, flattened: the
        last interval whose knot offset is at or below ``mod(u - x[0],
        period)``, as ``searchsorted(..., side="right")`` finds it."""
        offsets = self.x - self.x[0]
        period = offsets[-1]
        w = np.reshape(np.subtract(u, self.x[0], dtype=float), -1)
        # on |w| < period, np.mod(w, period) is w + period for w < 0 and w
        # (-0.0 made +0.0) otherwise; only the rest, NaN and inf included,
        # needs the scalar loop of np.mod
        inside = np.abs(w) < period
        if not inside.all():
            w[~inside] = np.mod(w[~inside], period)
        w += period * (w < 0)
        i = np.searchsorted(offsets[1:-1], w, side="right")
        w -= offsets.take(i)
        return i, w

    def __call__(self, u, nu):
        """Derivative ``nu`` (0, 1 or 2) at any real ``u``; a tuple ``nu``
        gives the tuple of its orders' values, from one reduction of u.

        ``u`` is reduced once, to its offset ``mod(u - x[0], period)`` from
        the first knot; the interval is the last one whose knot offset is
        at or below it, and its polynomial is summed by Horner's rule.
        """
        i, w = self._locate(u)
        values = tuple(self._horner(i, w, k).reshape(np.shape(u))[()]
                       for k in (nu if isinstance(nu, tuple) else (nu,)))
        return values if isinstance(nu, tuple) else values[0]

    def _horner(self, i, w, nu):
        coef = self.c[:4 - nu] * _DERIVATIVE_FACTORS[nu][:, None]
        out = coef[0].take(i)
        for row in coef[1:]:
            out *= w
            out += row.take(i)
        return out
