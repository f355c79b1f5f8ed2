"""Fourier-multiplier operators and homogeneous Sobolev seminorms.

All operators act on real sample arrays over a :class:`~pnedge.grid.Grid1D`
and are diagonal in Fourier space:

* half-Laplacian ``(-d_xx)^{1/2}``: symbol ``|xi|``,
* derivative ``d_x``: symbol ``i xi``.

Conventions: every transform goes through the pair :func:`rfft` /
:func:`irfft` (thin wrappers of ``numpy.fft``), and every multiplier is
applied by :func:`apply_symbol`, i.e. ``irfft(symbol * rfft(f))`` with
the symbol given on the N/2 + 1 rfft modes ``grid.xi_r = pi k / L``,
``k = 0 .. N/2``.  The zero mode of
``|xi|`` is 0 (the mean is annihilated).  The Nyquist mode ``k = N/2``
is unpaired: ``irfft`` drops the imaginary part of its bin, so the odd
symbol ``i xi`` maps it to 0, a shift ``e^{i xi a}`` keeps its cosine,
and real input maps to real output by construction.  Sums over the rfft
modes use the Parseval weights of :func:`mode_weights`, and a squared
``H^s`` seminorm those of :func:`seminorm_weights`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError
from .grid import Grid1D


def _check_samples(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.N,):
        raise ValueError(f"sample array has shape {f.shape}, expected ({grid.N},)")
    return f


def rfft(f: np.ndarray) -> np.ndarray:
    """Spectrum of real samples on the rfft modes ``grid.xi_r`` (last axis)."""
    return np.fft.rfft(f)


def irfft(grid: Grid1D, f_hat: np.ndarray) -> np.ndarray:
    """Real samples on ``grid`` of a spectrum on the rfft modes (last axis N/2 + 1)."""
    return np.fft.irfft(f_hat, grid.N)


def apply_symbol(grid: Grid1D, f: np.ndarray, symbol) -> np.ndarray:
    """``irfft(symbol * rfft(f))``: the Fourier multiplier ``symbol`` on real samples.

    ``symbol`` is given on the rfft modes ``grid.xi_r`` (last axis N/2 + 1);
    stacked symbols or stacked samples broadcast to stacked outputs, one
    batched transform each way.
    """
    return irfft(grid, symbol * rfft(f))


def mode_weights(grid: Grid1D) -> np.ndarray:
    """Weights ``w_k`` with ``h sum_j a_j b_j = sum_k w_k Re(A_k conj(B_k))``
    for real samples a, b and their ``rfft`` spectra A, B (k = 0..N/2).

    The interior modes stand for themselves and their mirrors -k
    (``w_k = 2h/N``); the zero and Nyquist modes are unpaired (``h/N``).
    """
    w = np.full(grid.N // 2 + 1, 2.0 * grid.h / grid.N)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def apply_half_laplacian(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Apply ``(-d_xx)^{1/2}`` (symbol ``|xi_k|``; zero mode -> 0)."""
    return apply_symbol(grid, _check_samples(grid, f), grid.xi_r)


def spectral_derivative(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Apply ``d_x`` (symbol ``i xi_k``; Nyquist mode -> 0)."""
    return apply_symbol(grid, _check_samples(grid, f), 1j * grid.xi_r)


def dot(a, b) -> float:
    """``sum_j a_j b_j`` of two real 1-D arrays by numpy's pairwise sum: in
    one thread and in an order fixed by the length, so unlike a BLAS dot no
    thread count moves its bits.  Every inner product whose bits reach an
    output goes through here."""
    return float(np.add.reduce(np.multiply(a, b)))


def inner_h(grid: Grid1D, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete L2 inner product ``h * sum f_j g_j``."""
    return grid.h * dot(f, g)


def fourier_shift(grid: Grid1D, f: np.ndarray, a: float) -> np.ndarray:
    """Band-limited resampling ``f(x + a)``; the Nyquist mode keeps ``cos(xi a)``."""
    return apply_symbol(grid, _check_samples(grid, f), np.exp(1j * grid.xi_r * a))


def fourier_interpolant(grid: Grid1D, f: np.ndarray):
    """The band-limited interpolant of ``f``: ``interpolant(x, nu)`` is its
    derivative of order ``nu`` (0 or 1) at the point x.

    The samples are transformed once, and each value is the real part of
    ``sum_k c_k exp(i xi_k x)``, a :func:`dot` of (re, im) pairs.  The
    modes are taken about x = 0, not about the first node ``-L``:
    ``exp(i xi_k L) = (-1)^k`` moves the coefficients there exactly, while
    ``x + L`` would round a point near the core to the spacing of L.
    """
    coeffs = mode_weights(grid) / grid.h * rfft(_check_samples(grid, f))
    coeffs[1::2] *= -1.0
    conj_pairs = [np.conj(c).view(float) for c in (coeffs, 1j * grid.xi_r * coeffs)]

    def interpolant(x: float, nu: int = 0) -> float:
        return dot(conj_pairs[nu], np.exp(1j * grid.xi_r * x).view(float))

    return interpolant


# ---------------------------------------------------------------------------
# Homogeneous Sobolev seminorms
# ---------------------------------------------------------------------------

def seminorm_weights(grid: Grid1D, s: float) -> np.ndarray:
    """Weights ``w_k |xi_k|^{2s}`` (zero mode 0) of :func:`mode_weights`:
    the squared ``H^s`` seminorm of real samples is their sum against
    ``|rfft(f)_k|^2``."""
    q = grid.xi_r
    with np.errstate(divide="ignore"):
        return mode_weights(grid) * np.where(q > 0, q ** (2.0 * s), 0.0)


def hs_seminorm_grid(grid: Grid1D, f: np.ndarray, s: float) -> float:
    """Squared seminorm ``(1/2pi) sum |xi_k|^{2s} |c_k|^2 * (pi/L)``.

    Summed over the rfft modes with :func:`seminorm_weights`.  Valid for
    decaying samples; equals ``<f, (-d_xx)^{1/2} f>_h`` exactly at
    ``s = 1/2``.
    """
    spec = rfft(_check_samples(grid, f))
    return dot(seminorm_weights(grid, s), spec.real**2 + spec.imag**2)


def hs_seminorm_analytic(b: float, zeta: float, s: float) -> float:
    """Squared H^s seminorm of the arctan core in closed form.

    ``(1/2pi) int |xi|^{2s} b^2/(4 xi^2) exp(-2 zeta |xi|)`` over the line
    is ``b^2 Gamma(2s-1) / (4 pi (2 zeta)^(2s-1))``.  Diverges (raises) for
    ``s <= 1/2``: the integrand behaves like ``|xi|^{2s-2}`` at the origin.
    """
    if s <= 0.5:
        raise DivergenceError(
            f"H^s seminorm of the arctan profile diverges for s={s} <= 1/2"
        )
    return b * b * math.gamma(2.0 * s - 1.0) / (4.0 * np.pi * (2.0 * zeta) ** (2.0 * s - 1.0))


def _expm1_ratio(x: float) -> float:
    """``expm1(x) / x``, 1 at ``x = 0``."""
    return math.expm1(x) / x if x != 0.0 else 1.0


def hs_seminorm_background_difference(
    b: float, zeta1: float, zeta2: float, s: float
) -> float:
    """Squared H^s seminorm of the difference of two arctan cores.

    In closed form,
    ``(1/2pi) int |xi|^{2s} b^2/(4 xi^2) (e^{-zeta1 |xi|} - e^{-zeta2 |xi|})^2``
    is ``b^2 Gamma(2s-1) [(2 zeta1)^{1-2s} + (2 zeta2)^{1-2s}
    - 2 (zeta1+zeta2)^{1-2s}] / (4 pi)``.  The difference decays like 1/x, so the seminorm is finite for every
    ``s > -1/2`` (raises :class:`DivergenceError` otherwise).  The poles of
    Gamma at s = 1/2 and s = 0 are removable: the bracket is written with
    ``expm1`` about the nearer one, so it keeps its relative accuracy there,
    and at the poles themselves gives the limits
    ``2 ln((zeta1+zeta2) / (2 sqrt(zeta1 zeta2)))`` (s = 1/2) and
    ``2 zeta1 ln 2 zeta1 + 2 zeta2 ln 2 zeta2 - 2 (zeta1+zeta2) ln(zeta1+zeta2)``
    (s = 0), times ``b^2 / (4 pi)``.
    """
    if s <= -0.5:
        raise DivergenceError(
            f"H^s seminorm of an arctan-core difference diverges for s={s} <= -1/2"
        )
    zs = (2.0 * zeta1, 2.0 * zeta2, zeta1 + zeta2)
    logs = [math.log(z) for z in zs]
    if s > 0.25:
        # e = 2s - 1: z^{-e} - 1 = -e ln z expm1_ratio(-e ln z),
        # Gamma(e) = Gamma(1+e) / e
        e = 2.0 * s - 1.0
        r = [lz * _expm1_ratio(-e * lz) for lz in logs]
        value = -math.gamma(1.0 + e) * (r[0] + r[1] - 2.0 * r[2])
    else:
        # d = 2s: z^{1-2s} = z + z expm1(-d ln z), the z's cancel exactly
        # (2 zeta1 + 2 zeta2 = 2 (zeta1 + zeta2)), Gamma(d-1) = Gamma(1+d) / (d (d-1))
        d = 2.0 * s
        r = [z * lz * _expm1_ratio(-d * lz) for z, lz in zip(zs, logs)]
        value = math.gamma(1.0 + d) / (1.0 - d) * (r[0] + r[1] - 2.0 * r[2])
    return b * b / (4.0 * np.pi) * value

