"""Uniform periodic grid on the slip plane and discrete Fourier data.

The line is truncated to ``[-L, L)`` with ``N`` uniformly spaced nodes
``x_j = -L + j h``, ``h = 2L/N``.  Discrete wavenumbers are
``xi_k = pi k / L`` for ``k = -N/2 .. N/2-1``; real samples are
transformed by ``rfft``, whose modes ``k = 0 .. N/2`` carry
``xi_r = pi k / L >= 0``, also ``|xi|`` there.
Spectral coefficients follow the non-unitary angular-frequency
convention ``uhat(xi) = int u(x) exp(-i xi x) dx``, discretized as
``c_k = h * sum_j u_j exp(-i xi_k x_j)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Periodic grid on [-L, L) with N nodes; ``h``, ``x`` and ``xi_r``
    follow from (L, N), which alone compare and hash.

    ``N`` must be even and at least 4; resolutions below 16 are allowed
    for didactic examples but trigger a warning since they cannot
    resolve a dislocation core.
    """

    L: float
    N: int
    h: float = field(init=False, compare=False)
    x: np.ndarray = field(init=False, compare=False)
    # rfft-mode wavenumbers pi*k/L, k = 0..N/2 (also |xi| there)
    xi_r: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        L, N = self.L, self.N
        if not math.isfinite(L) or L <= 0:
            raise ValueError(f"domain half-length L must be finite and positive, got {L}")
        if N % 2 != 0:
            raise ValueError(f"sample count N must be even, got {N}")
        if N < 4:
            raise ValueError(f"sample count N must be at least 4, got {N}")
        if N < 16:
            warnings.warn(f"N={N} is below the recommended minimum of 16", stacklevel=3)
        h = 2.0 * L / N
        # the fields are frozen: set them once, here
        for name, value in (("L", float(L)), ("N", int(N)), ("h", h),
                            ("x", -L + h * np.arange(N)),
                            ("xi_r", 2.0 * np.pi * np.fft.rfftfreq(N, d=h))):
            object.__setattr__(self, name, value)


#: the grid's constructor under the name the scripts and tests import
build_grid = Grid1D
