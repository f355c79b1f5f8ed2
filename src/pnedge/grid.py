"""Uniform periodic grid on the slip plane and discrete Fourier data.

The line is truncated to ``[-L, L)`` with ``N`` uniformly spaced nodes
``x_j = -L + j h``, ``h = 2L/N``.  Discrete wavenumbers are
``xi_k = pi k / L`` for ``k = -N/2 .. N/2-1``, stored in FFT order;
the ``rfft`` modes ``k = 0 .. N/2`` carry ``xi_r = pi k / L >= 0``.
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
    """Periodic grid on [-L, L) with N nodes.  Build via :func:`build_grid`."""

    L: float
    N: int
    h: float
    x: np.ndarray
    xi: np.ndarray  # FFT-ordered wavenumbers pi*k/L
    xi_r: np.ndarray  # rfft-mode wavenumbers pi*k/L, k = 0..N/2 (also |xi| there)

    @property
    def q(self) -> np.ndarray:
        """|xi|, the symbol of the half-Laplacian."""
        return np.abs(self.xi)

    @property
    def nyquist_index(self) -> int:
        return self.N // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self.L == other.L and self.N == other.N

    def __hash__(self):
        return hash((self.L, self.N))


def build_grid(L: float, N: int) -> Grid1D:
    """Construct a :class:`Grid1D`.

    ``N`` must be even and at least 4; resolutions below 16 are allowed
    for didactic examples but trigger a warning since they cannot
    resolve a dislocation core.
    """
    if not math.isfinite(L) or L <= 0:
        raise ValueError(f"domain half-length L must be finite and positive, got {L}")
    if N % 2 != 0:
        raise ValueError(f"sample count N must be even, got {N}")
    if N < 4:
        raise ValueError(f"sample count N must be at least 4, got {N}")
    if N < 16:
        warnings.warn(f"N={N} is below the recommended minimum of 16", stacklevel=2)
    h = 2.0 * L / N
    x = -L + h * np.arange(N)
    xi = 2.0 * np.pi * np.fft.fftfreq(N, d=h)
    xi_r = 2.0 * np.pi * np.fft.rfftfreq(N, d=h)
    return Grid1D(L=float(L), N=int(N), h=h, x=x, xi=xi, xi_r=xi_r)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients ``c_k ~ uhat(xi_k)`` of samples on a grid.

    ``coeffs`` is FFT-ordered and includes the quadrature factor
    ``h * exp(i xi_k L)`` relating the raw DFT to the continuum
    transform, so ``|c_k|^2`` can be summed directly in Parseval-type
    expressions.
    """

    grid: Grid1D
    coeffs: np.ndarray = field(repr=False)

    @classmethod
    def from_samples(cls, grid: Grid1D, u: np.ndarray) -> "SpectralField":
        u = np.asarray(u, dtype=float)
        if u.shape != (grid.N,):
            raise ValueError(f"expected {grid.N} samples, got shape {u.shape}")
        k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)  # integer mode numbers
        phase = np.where(np.rint(k).astype(int) % 2 == 0, 1.0, -1.0)
        coeffs = grid.h * phase * np.fft.fft(u)
        return cls(grid=grid, coeffs=coeffs)

    def to_samples(self) -> np.ndarray:
        k = np.fft.fftfreq(self.grid.N, d=1.0 / self.grid.N)
        phase = np.where(np.rint(k).astype(int) % 2 == 0, 1.0, -1.0)
        return np.fft.ifft(self.coeffs * phase / self.grid.h).real

    def conjugate_symmetry_defect(self) -> float:
        """Max |c_{-k} - conj(c_k)| relative to the coefficient scale."""
        c = self.coeffs
        flipped = np.conj(np.roll(c[::-1], 1))  # index -k for each k
        scale = np.max(np.abs(c)) or 1.0
        return float(np.max(np.abs(c - flipped)) / scale)
