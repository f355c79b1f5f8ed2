"""Physical parameters of the edge-dislocation model.

The model is parameterized by the shear modulus ``G``, Poisson ratio
``nu``, Burgers vector magnitude ``b`` and interplanar distance ``d``.
Two derived constants appear throughout:

* ``zeta = d / (2 (1 - nu))`` - the core half-width of the arctan
  solution (``2 zeta`` is the dislocation core width),
* ``c0 = 2 G / (1 - nu)`` - the coefficient multiplying the
  half-Laplacian in the slip-plane equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysParams:
    """Material constants; immutable so they can be shared freely."""

    G: float = 1.0
    nu: float = 0.25
    b: float = 1.0
    d: float = 1.0

    def __post_init__(self):
        for key, what in (("G", "shear modulus"), ("b", "Burgers vector magnitude"),
                          ("d", "interplanar distance")):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{what} {key} must be positive and finite, got {value}")
        if not 0.0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio nu must lie in (0, 1/2), got {self.nu}")

    @property
    def zeta(self) -> float:
        """Core half-width, d / (2 (1 - nu))."""
        return self.d / (2.0 * (1.0 - self.nu))

    @property
    def c0(self) -> float:
        """Half-Laplacian coefficient, 2 G / (1 - nu)."""
        return 2.0 * self.G / (1.0 - self.nu)
