"""Misfit potential across the slip plane.

The displacement jump is penalized by a periodic multi-well density
``W(u)`` with period ``b/2`` whose minima (normalized to zero) sit at
``u = +-b/4`` and describe the perfect lattice.  Two realizations are
provided: the classical Frenkel sinusoid

    ``W(u) = G b^2 / (4 pi^2 d) * (1 + cos(4 pi u / b))``

and a tabulated density with periodic cubic interpolation.  The table's
spline is the package's own (:class:`PeriodicSpline`): it reproduces
scipy's ``CubicSpline(..., bc_type="periodic")``, its coefficients and
its periodic evaluation, bit for bit, so that no table path imports
scipy, whose import costs more than a whole default solve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .params import PhysParams

#: number of dense samples used by the structural validation checks
_SCAN_POINTS = 10_000


@dataclass(frozen=True)
class PotentialSpec:
    """Misfit potential selector: Frenkel closed form or sampled table."""

    kind: str  # "frenkel" | "user_table"
    params: PhysParams
    table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _spline: Optional["PeriodicSpline"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("frenkel", "user_table"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "user_table":
            if self.table is None:
                raise ValueError("user_table potential requires a table")
            object.__setattr__(self, "_spline", _build_periodic_spline(
                self.table, self.period))

    @property
    def period(self) -> float:
        """Period b/2 in the slip-plane displacement."""
        return self.params.b / 2.0


def frenkel(params: PhysParams) -> PotentialSpec:
    """The sinusoidal potential; admits the closed-form arctan core."""
    return PotentialSpec(kind="frenkel", params=params)


def from_table(params: PhysParams, table: np.ndarray) -> PotentialSpec:
    """Tabulated potential from (u, W) pairs covering one period."""
    return PotentialSpec(kind="user_table", params=params, table=np.asarray(table, float))


def from_csv(params: PhysParams, path) -> PotentialSpec:
    """Load a tabulated potential from a CSV file with columns u, W."""
    rows = []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() == "u":
                continue
            rows.append((float(row[0]), float(row[1])))
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
    w = w - w.min()  # normalize the lattice minimum to zero
    # close the period for the periodic boundary condition
    u_ext = np.concatenate([u, [u[0] + period]])
    w_ext = np.concatenate([w, [w[0]]])
    return PeriodicSpline.fit(u_ext, w_ext)


def eval_potential(spec: PotentialSpec, u, order: int = 0):
    """Evaluate W (order 0), W' (1) or W'' (2) at displacement(s) ``u``."""
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
    u = np.asarray(u, dtype=float)
    p = spec.params
    if spec.kind == "frenkel":
        # one array transformed in place: the values of the closed forms
        # without their N-sized temporaries
        w = np.multiply(4.0 * np.pi, u, out=np.empty(u.shape))
        w /= p.b
        if order == 0:
            np.cos(w, out=w)
            w += 1.0
            w *= p.G * p.b**2 / (4.0 * np.pi**2 * p.d)
        elif order == 1:
            np.sin(w, out=w)
            w *= -p.G * p.b / (np.pi * p.d)
        else:
            np.cos(w, out=w)
            w *= -4.0 * p.G / p.d
        return w[()]  # a scalar for a scalar u
    return spec._spline(np.mod(u, spec.period), order)[()]


@dataclass(frozen=True)
class PotentialReport:
    """Outcome of the structural checks on a misfit potential."""

    interior_strict_minimum: bool
    positive_curvature_at_wells: bool
    endpoint_values_equal: bool

    @property
    def passed(self) -> bool:
        return (
            self.interior_strict_minimum
            and self.positive_curvature_at_wells
            and self.endpoint_values_equal
        )


def validate_potential(spec: PotentialSpec) -> PotentialReport:
    """Check the multi-well structure required of a misfit potential.

    Three report-only checks: (i) ``W(v) > W(+-b/4)`` strictly on the
    open interval between the wells (dense scan), (ii) positive
    curvature at the wells, (iii) equal values at the two wells.
    """
    p = spec.params
    b = p.b
    scale = p.G * p.b**2 / p.d
    well = eval_potential(spec, b / 4.0, 0)
    well_m = eval_potential(spec, -b / 4.0, 0)
    endpoint_equal = bool(abs(well - well_m) <= 1e-12 * scale)

    v = np.linspace(-b / 4.0, b / 4.0, _SCAN_POINTS + 2)[1:-1]
    floor = min(well, well_m) + 1e-10 * scale
    interior = bool(np.all(eval_potential(spec, v, 0) > floor))

    # centered finite difference, robust for tabulated input
    eps = spec.period / 200.0
    def fd2(u0):
        w = eval_potential(spec, np.array([u0 - eps, u0, u0 + eps]), 0)
        return (w[0] - 2.0 * w[1] + w[2]) / eps**2
    positive_curv = bool(min(fd2(b / 4.0), fd2(-b / 4.0)) > 0.0)

    return PotentialReport(
        interior_strict_minimum=interior,
        positive_curvature_at_wells=positive_curv,
        endpoint_values_equal=endpoint_equal,
    )


# ---------------------------------------------------------------------------
# The periodic cubic spline of scipy 1.17, ported so that tabulated
# potentials need no scipy import.  ``PeriodicSpline.fit`` follows the
# ``bc_type="periodic"`` branch of ``CubicSpline.__init__`` (its condensed
# system and rank correction, solved by ``solve_banded((1, 1), ...)``, which
# calls LAPACK's reference ``dgtsv``) and ``CubicHermiteSpline``'s power
# coefficients; ``PeriodicSpline.__call__`` follows ``PPoly.__call__`` with
# ``extrapolate="periodic"`` and ``_ppoly.evaluate_poly1``.  Every step is
# the same floating-point operation in the same order, so coefficients and
# values equal scipy's to the last bit.  scipy's licence is reproduced with
# the MINRES and Brent ports in ``static.py``.  LAPACK is Copyright (c)
# 1992-2013 The University of Tennessee and The University of Tennessee
# Research Foundation, (c) 2000-2013 The University of California Berkeley
# and (c) 2006-2013 The University of Colorado Denver, and is distributed
# under the same three BSD conditions.
# ---------------------------------------------------------------------------


def _gtsv(dl, d, du, b) -> list:
    """LAPACK ``dgtsv`` for one right-hand side, on Python floats.

    Gaussian elimination of the tridiagonal matrix (sub-, main and
    super-diagonal ``dl``, ``d``, ``du``) with partial pivoting: a row
    interchange where the subdiagonal entry is the larger, which fills
    a second superdiagonal.  Returns the solution.  A zero pivot, which
    LAPACK reports as ``info > 0``, raises ``ZeroDivisionError``; the
    spline's diagonally dominant systems have none.
    """
    dl, d, du, b = (list(map(float, a)) for a in (dl, d, du, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i+1; dl[i] becomes the fill-in
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


@dataclass(frozen=True)
class PeriodicSpline:
    """Periodic cubic spline through ``(x[i], y[i])`` with ``y[-1] == y[0]``.

    ``c[:, i]`` holds the power coefficients of the interval
    ``[x[i], x[i+1]]``, highest power first, as scipy's ``PPoly.c``.
    """

    x: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, x, y) -> "PeriodicSpline":
        """scipy's ``CubicSpline(x, y, bc_type="periodic")``, for at least 4
        knots and ``y[-1] == y[0]``."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        n = len(x)
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline knots must be strictly increasing")
        slope = np.diff(y) / dx

        # the banded system for the knot slopes s[i], i = 1..n-2 ...
        A = np.zeros((3, n))
        rhs = np.empty(n)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # ... with n - 1 unknowns by periodicity (s[-1] = s[0]); its corner
        # entries make it cyclic, so the leading (n-2)x(n-2) block is solved
        # for two right-hand sides and the last unknown eliminated
        A = A[:, :-1]
        A[1, 0] = 2 * (dx[-1] + dx[0])
        A[0, 1] = dx[-1]
        rhs = rhs[:-1]
        rhs[0] = 3 * (dx[0] * slope[-1] + dx[-1] * slope[0])
        rhs[-1] = 3 * (dx[-1] * slope[-2] + dx[-2] * slope[-1])
        dl, d, du = A[2, :-2], A[1, :-1], A[0, 1:-1]
        b2 = np.zeros(n - 2)
        b2[0] = -dx[0]
        b2[-1] = -dx[-3]
        s1 = np.array(_gtsv(dl, d, du, rhs[:-1]))
        s2 = np.array(_gtsv(dl, d, du, b2))
        s_m1 = ((rhs[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
                / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
        s = np.empty(n)
        s[:-2] = s1 + s_m1 * s2
        s[-2] = s_m1
        s[-1] = s[0]

        # cubic Hermite interpolation of the values and slopes
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        return cls(x=x, c=c)

    def __call__(self, u, nu: int) -> np.ndarray:
        """Derivative ``nu`` (0, 1 or 2) at ``u`` in ``[0, period]``.

        scipy's periodic wrap ``x0 + (u - x0) % (x[-1] - x0)``: for ``u``
        reduced to one period (``np.mod``), ``%`` is one shift up or down
        by the period, taken as two comparisons.  The interval is the
        last one starting at or before the wrapped point.  Each polynomial
        is summed in ``evaluate_poly1``'s order: from ``0.0`` (which turns
        a ``-0.0`` term into ``0.0``), lowest power first, powers of the
        offset by repeated multiplication, derivative factors last.
        """
        x, c = self.x, self.c
        x0, period = x[0], x[-1] - x[0]
        w = np.subtract(u, x0, out=np.empty(np.shape(u)))
        high = w >= period
        np.add(w, period, out=w, where=w < 0.0)
        np.subtract(w, period, out=w, where=high)
        w += x0
        i = np.searchsorted(x[1:-1], w, side="right")
        s = w - x.take(i)
        if nu == 0:
            out = (0.0 + c[3]).take(i)
            out += c[2].take(i) * s
            s2 = s * s
            out += c[1].take(i) * s2
            s2 *= s
            out += c[0].take(i) * s2
        elif nu == 1:
            out = (0.0 + c[2]).take(i)
            out += c[1].take(i) * s * 2.0
            s *= s
            out += c[0].take(i) * s * 3.0
        else:
            out = (0.0 + c[1] * 2.0).take(i)
            out += c[0].take(i) * s * 6.0
        return out
