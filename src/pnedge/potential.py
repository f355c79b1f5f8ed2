"""Misfit potential across the slip plane.

The displacement jump is penalized by a periodic multi-well density
``W(u)`` with period ``b/2`` whose minima (normalized to zero) sit at
``u = +-b/4`` and describe the perfect lattice.  Two realizations are
provided: the classical Frenkel sinusoid

    ``W(u) = G b^2 / (4 pi^2 d) * (1 + cos(4 pi u / b))``

and a tabulated density with periodic cubic interpolation.
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
    _spline: Optional["scipy.interpolate.CubicSpline"] = field(default=None, repr=False, compare=False)

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


def _build_periodic_spline(table: np.ndarray, period: float) -> "scipy.interpolate.CubicSpline":
    from scipy.interpolate import CubicSpline  # only tables need scipy

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
    return CubicSpline(u_ext, w_ext, bc_type="periodic")


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
    spline = spec._spline
    uq = np.mod(u, spec.period)
    return spline(uq, nu=order)


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

    if spec.kind == "frenkel":
        curv = min(eval_potential(spec, b / 4.0, 2), eval_potential(spec, -b / 4.0, 2))
    else:
        # centered finite difference, robust for tabulated input
        eps = spec.period / 200.0
        def fd2(u0):
            w = eval_potential(spec, np.array([u0 - eps, u0, u0 + eps]), 0)
            return (w[0] - 2.0 * w[1] + w[2]) / eps**2
        curv = min(fd2(b / 4.0), fd2(-b / 4.0))
    positive_curv = bool(curv > 0.0)

    return PotentialReport(
        interior_strict_minimum=interior,
        positive_curvature_at_wells=positive_curv,
        endpoint_values_equal=endpoint_equal,
    )
