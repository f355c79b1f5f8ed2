"""Slip-plane displacement profiles.

A profile stores the displacement ``u1`` on the slip plane as an
analytic arctan background plus a periodic, decaying correction:

    ``u1(x) = u_bg(x - x0; zeta_bg) + v(x)``,
    ``u_bg(x; z) = -(b / 2 pi) arctan(x / z)``.

The split keeps the non-decaying far field (``u1 -> -+ b/4``) out of the
FFT: correction fields are smooth and periodic on the truncated domain,
while the background is handled in closed form wherever its transform
or half-Laplacian is needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import TailWarning
from .grid import Grid1D
from .params import PhysParams

#: bound on |v| at the domain ends, in units of b, beyond which a profile warns
TAIL_TOL = 1e-3


def background(x, b: float, zeta_bg: float, x0: float = 0.0) -> np.ndarray:
    """The arctan core ``-(b/2pi) arctan((x - x0)/zeta_bg)``."""
    return -(b / (2.0 * np.pi)) * np.arctan((np.asarray(x, float) - x0) / zeta_bg)


def background_derivative(x, b: float, zeta_bg: float, x0: float = 0.0) -> np.ndarray:
    xs = np.asarray(x, float) - x0
    return -(b / (2.0 * np.pi)) * zeta_bg / (xs * xs + zeta_bg * zeta_bg)


def background_half_laplacian(x, b: float, zeta_bg: float, x0: float = 0.0) -> np.ndarray:
    """Closed form ``(-d_xx)^{1/2} u_bg = -(b/2pi) x/(x^2 + zeta_bg^2)``."""
    xs = np.asarray(x, float) - x0
    return -(b / (2.0 * np.pi)) * xs / (xs * xs + zeta_bg * zeta_bg)


@dataclass(frozen=True)
class Profile:
    """Background-plus-correction representation of u1 on the slip plane."""

    grid: Grid1D
    params: PhysParams
    zeta_bg: float
    x0: float = 0.0
    v: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("zeta_bg", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.zeta_bg <= 0:
            raise ValueError(f"background width must be positive, got {self.zeta_bg}")
        v = self.v if self.v is not None else np.zeros(self.grid.N)
        v = np.asarray(v, dtype=float)
        if v.shape != (self.grid.N,):
            raise ValueError(f"correction has shape {v.shape}, expected ({self.grid.N},)")
        object.__setattr__(self, "v", v)
        self._check_tails()

    def _check_tails(self) -> None:
        """Warn when |v| at the domain ends exceeds ``TAIL_TOL * b``."""
        tail = max(abs(self.v[0]), abs(self.v[-1]))
        if tail > TAIL_TOL * self.params.b:
            warnings.warn(
                f"correction tails |v| = {tail:.2e} exceed "
                f"{TAIL_TOL:.0e} * b at the domain ends",
                TailWarning,
                stacklevel=3,
            )

    @property
    def u1(self) -> np.ndarray:
        """Total slip-plane displacement on the grid."""
        return self.background_on_grid() + self.v

    def background_on_grid(self) -> np.ndarray:
        return background(self.grid.x, self.params.b, self.zeta_bg, self.x0)

    def background_at(self, x) -> np.ndarray:
        return background(x, self.params.b, self.zeta_bg, self.x0)

    def half_laplacian_background(self, x=None) -> np.ndarray:
        if x is None:
            x = self.grid.x
        return background_half_laplacian(x, self.params.b, self.zeta_bg, self.x0)

    def with_correction(self, v: np.ndarray) -> "Profile":
        return replace(self, v=np.asarray(v, dtype=float))

    def _successor(self, v: np.ndarray) -> "Profile":
        """This profile with the correction ``v``, a float array of shape
        (N,), built without re-checking the fields it keeps: only the new
        tails are tested."""
        new = object.__new__(Profile)
        vars(new).update(vars(self), v=v)
        new._check_tails()
        return new

    def boundary_values(self) -> tuple[float, float]:
        """u1 at the two domain ends.

        x = -L is a grid node; x = +L is linearly extrapolated from the
        last two samples (exact for flat tails, O(h^2/L^3) error for the
        1/x far field).
        """
        u1 = self.u1
        left = float(u1[0])
        right = float(2.0 * u1[-1] - u1[-2])
        return left, right


def analytic_profile(grid: Grid1D, params: PhysParams) -> Profile:
    """The closed-form static solution for the Frenkel potential: pure
    background of width ``zeta`` and zero correction."""
    return Profile(grid=grid, params=params, zeta_bg=params.zeta)


def tanh_profile(grid: Grid1D, params: PhysParams) -> Profile:
    """A tanh-shaped initial guess expressed as background plus correction.

    ``u1 = -(b/4) tanh(x / zeta)`` has the right far field and
    monotonicity but is not a solution; its deviation from the arctan
    background decays like 1/x and lands in the correction.
    """
    u1 = -(params.b / 4.0) * np.tanh(grid.x / params.zeta)
    v = u1 - background(grid.x, params.b, params.zeta, 0.0)
    return Profile(grid=grid, params=params, zeta_bg=params.zeta, x0=0.0, v=v)
