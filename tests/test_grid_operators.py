"""Grid construction, Fourier operators and Sobolev seminorms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from pnedge.errors import DivergenceError
from pnedge.grid import build_grid
from pnedge.operators import (
    apply_half_laplacian,
    apply_hilbert,
    fourier_interpolant,
    fourier_shift,
    hs_seminorm_analytic,
    hs_seminorm_background_difference,
    hs_seminorm_grid,
    inner_h,
    spectral_derivative,
)
from pnedge.profile import background
from pnedge.validation import _exp_sinh


def pv_hilbert(f, x0, span=400.0):
    """Independent principal-value quadrature of the Hilbert kernel."""
    val, _ = quad(f, -span, span, weight="cauchy", wvar=x0, limit=400)
    return -val / np.pi


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_build_grid_small_example():
    with pytest.warns(UserWarning):
        g = build_grid(1.0, 4)
    np.testing.assert_allclose(g.x, [-1.0, -0.5, 0.0, 0.5])
    np.testing.assert_allclose(g.xi_r, [0.0, np.pi, 2 * np.pi])


def test_build_grid_spacing():
    zeta = 2.0 / 3.0
    g = build_grid(200 * zeta, 4096)
    assert g.h == pytest.approx(400 * zeta / 4096)
    assert g.h * g.N == pytest.approx(2 * g.L)
    assert np.all(np.diff(g.x) > 0)
    np.testing.assert_allclose(np.diff(g.x), g.h)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(1.0, 3)
    with pytest.raises(ValueError):
        build_grid(-1.0, 64)
    with pytest.raises(ValueError):
        build_grid(1.0, 2)


@pytest.mark.parametrize("L", [float("nan"), float("inf"), float("-inf")])
def test_build_grid_rejects_non_finite_length(L):
    with pytest.raises(ValueError, match="half-length L must be finite"):
        build_grid(L, 64)


# ---------------------------------------------------------------------------
# half-Laplacian and Hilbert transform
# ---------------------------------------------------------------------------

def test_half_laplacian_constant_is_zero():
    g = build_grid(5.0, 64)
    out = apply_half_laplacian(g, np.full(64, 3.7))
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_half_laplacian_eigenfunction():
    g = build_grid(5.0, 128)
    k = g.xi_r[3]
    f = np.sin(k * g.x)
    np.testing.assert_allclose(apply_half_laplacian(g, f), abs(k) * f, atol=1e-12)


def test_half_laplacian_background_difference_point_value():
    # closed form -(b/2pi)[x/(x^2+1) - x/(x^2+4)]; at x=1 it is -3/(20 pi)
    g = build_grid(800.0, 32768)
    f = background(g.x, 1.0, 1.0) - background(g.x, 1.0, 2.0)
    out = apply_half_laplacian(g, f)
    closed = -(1.0 / (2 * np.pi)) * (g.x / (g.x**2 + 1) - g.x / (g.x**2 + 4))
    mask = np.abs(g.x) < 100
    assert np.max(np.abs(out - closed)[mask]) < 1e-5
    at_one = fourier_interpolant(g, out)(1.0)
    assert at_one == pytest.approx(-3.0 / (20.0 * np.pi), abs=1e-5)
    # independent principal-value oracle H(f')(1)
    def fprime(s):
        return (-(1.0 / (2 * np.pi)) * (1.0 / (s * s + 1.0))
                + (1.0 / (2 * np.pi)) * (2.0 / (s * s + 4.0)))
    assert pv_hilbert(fprime, 1.0) == pytest.approx(-3.0 / (20.0 * np.pi), abs=1e-7)


def test_hilbert_constant_and_cosine():
    g = build_grid(5.0, 128)
    np.testing.assert_allclose(apply_hilbert(g, np.ones(128)), 0.0, atol=1e-14)
    k = g.xi_r[4]
    np.testing.assert_allclose(apply_hilbert(g, np.cos(k * g.x)),
                               np.sin(k * g.x), atol=1e-12)


def test_hilbert_poisson_kernel():
    # H maps the Poisson kernel to its conjugate x/(pi (x^2 + 1))
    g = build_grid(400.0, 16384)
    f = 1.0 / (np.pi * (g.x**2 + 1.0))
    out = apply_hilbert(g, f)
    expected = g.x / (np.pi * (g.x**2 + 1.0))
    mask = np.abs(g.x) < 50
    assert np.max(np.abs(out - expected)[mask]) < 2e-4
    assert pv_hilbert(lambda s: 1.0 / (np.pi * (s * s + 1.0)), 2.0) == pytest.approx(
        2.0 / (np.pi * 5.0), abs=1e-8)


def _band_limited(g, coeffs):
    c = np.zeros(g.N, dtype=complex)
    n = len(coeffs)
    c[1:n + 1] = coeffs
    c[-n:] = np.conj(coeffs[::-1])
    return np.fft.ifft(c).real * g.N


@st.composite
def smooth_samples(draw):
    n_modes = draw(st.integers(min_value=1, max_value=8))
    vals = draw(st.lists(
        st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
        min_size=n_modes, max_size=n_modes))
    return np.array([complex(a, b) for a, b in vals])


@settings(max_examples=30, deadline=None)
@given(smooth_samples(), smooth_samples())
def test_half_laplacian_self_adjoint_nonnegative(ca, cb):
    g = build_grid(7.0, 64)
    f = _band_limited(g, ca)
    h = _band_limited(g, cb)
    lf, lh = apply_half_laplacian(g, f), apply_half_laplacian(g, h)
    scale = max(1.0, np.abs(lf).max() * np.abs(h).max())
    assert abs(inner_h(g, lf, h) - inner_h(g, f, lh)) <= 1e-12 * scale * g.N * g.h
    assert inner_h(g, lf, f) >= -1e-12 * max(1.0, inner_h(g, f, f))


@settings(max_examples=30, deadline=None)
@given(smooth_samples())
def test_composition_identity(coeffs):
    # H(d_x f) equals the half-Laplacian for band-limited f
    g = build_grid(7.0, 64)
    f = _band_limited(g, coeffs)
    left = apply_hilbert(g, spectral_derivative(g, f))
    right = apply_half_laplacian(g, f)
    np.testing.assert_allclose(left, right, atol=1e-11 * max(1.0, np.abs(right).max()))


@settings(max_examples=30, deadline=None)
@given(smooth_samples())
def test_parseval_at_half(coeffs):
    g = build_grid(7.0, 64)
    f = _band_limited(g, coeffs)
    lhs = hs_seminorm_grid(g, f, 0.5)
    rhs = inner_h(g, f, apply_half_laplacian(g, f))
    assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, rhs))


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,expected", [
    (0.75, 0.12215062797573),
    (1.0, 0.05968310365946),
    (1.5, 0.04476232770917),
])
def test_analytic_seminorm_values(s, expected):
    # b^2 Gamma(2s-1) / (4 pi (2 zeta)^(2s-1)) at b=1, zeta=2/3
    zeta = 2.0 / 3.0
    got = hs_seminorm_analytic(1.0, zeta, s)
    closed = gamma_fn(2 * s - 1) / (4 * np.pi * (2 * zeta) ** (2 * s - 1))
    assert got == pytest.approx(closed, rel=1e-10)
    assert got == pytest.approx(expected, abs=1e-9)


def test_analytic_seminorm_divergence():
    with pytest.raises(DivergenceError):
        hs_seminorm_analytic(1.0, 2.0 / 3.0, 0.5)
    with pytest.raises(DivergenceError):
        hs_seminorm_analytic(1.0, 2.0 / 3.0, 0.3)


@pytest.mark.parametrize("s", [0.55, 0.75, 1.0, 1.5])
def test_analytic_seminorm_matches_exp_sinh(s):
    zeta = 2.0 / 3.0
    rule = _exp_sinh(lambda q: q ** (2 * s - 2) * np.exp(-2 * zeta * q), 2 * s - 1)
    assert hs_seminorm_analytic(1.0, zeta, s) == pytest.approx(rule / (4 * np.pi), rel=1e-13)


_B, _Z1, _Z2 = 1.3, 1.0 / 3.0, 4.0 / 3.0


@pytest.mark.parametrize("s", [-0.25, 0.0, 0.25, 0.5, 1.0])
def test_background_difference_matches_exp_sinh(s):
    # e^{-z1 q} - e^{-z2 q} through expm1, so that small q keeps its digits
    rule = _exp_sinh(
        lambda q: q ** (2 * s - 2) * (np.exp(-_Z1 * q) * np.expm1((_Z1 - _Z2) * q)) ** 2,
        2 * s + 1)
    got = hs_seminorm_background_difference(_B, _Z1, _Z2, s)
    assert got == pytest.approx(_B**2 * rule / (4 * np.pi), rel=1e-13)


@pytest.mark.parametrize("pole,limit", [
    (0.5, 2 * np.log((_Z1 + _Z2) / (2 * np.sqrt(_Z1 * _Z2)))),
    (0.0, 2 * _Z1 * np.log(2 * _Z1) + 2 * _Z2 * np.log(2 * _Z2)
     - 2 * (_Z1 + _Z2) * np.log(_Z1 + _Z2)),
])
def test_background_difference_limits_at_gamma_poles(pole, limit):
    at = hs_seminorm_background_difference(_B, _Z1, _Z2, pole)
    assert at == pytest.approx(_B**2 * limit / (4 * np.pi), rel=1e-14)
    # no loss of digits next to the pole: the slope in s is of order the value
    for ds in (1e-12, -1e-12, 1e-8, -1e-8, 1e-5, -1e-5):
        near = hs_seminorm_background_difference(_B, _Z1, _Z2, pole + ds)
        assert near == pytest.approx(at, rel=4 * abs(ds))


def test_background_difference_domain_edge():
    for s in (-0.5, -0.75, -3.0):
        with pytest.raises(DivergenceError):
            hs_seminorm_background_difference(_B, _Z1, _Z2, s)
    near = hs_seminorm_background_difference(_B, _Z1, _Z2, -0.5 + 1e-9)
    assert np.isfinite(near) and near > 1e6


def test_constant_samples_zero_seminorm():
    g = build_grid(5.0, 64)
    assert hs_seminorm_grid(g, np.full(64, 2.5), 1.0) == 0.0


def test_grid_seminorm_converges_to_analytic():
    # decaying difference of two cores; error falls at least first order in 1/L
    b, z1, z2 = 1.0, 1.0 / 3.0, 4.0 / 3.0
    s = 1.0
    exact = hs_seminorm_background_difference(b, z1, z2, s)
    errs = []
    for L, N in ((100.0, 2048), (200.0, 4096), (400.0, 8192)):
        g = build_grid(L, N)
        f = background(g.x, b, z1) - background(g.x, b, z2)
        errs.append(abs(hs_seminorm_grid(g, f, s) - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.array(errs) > 0)
    assert np.min(orders) >= 1.0


# ---------------------------------------------------------------------------
# shift and interpolation helpers
# ---------------------------------------------------------------------------

def test_fourier_shift_roundtrip(rng):
    g = build_grid(10.0, 128)
    f = np.exp(-g.x**2)
    a = 3.1 * g.h
    shifted = fourier_shift(g, f, a)
    mask = np.abs(g.x) < 5
    np.testing.assert_allclose(shifted[mask], np.exp(-(g.x[mask] + a) ** 2), atol=1e-9)


def test_fourier_interpolate_matches_nodes():
    g = build_grid(10.0, 128)
    f = np.cos(g.xi_r[3] * g.x) + 0.3 * np.sin(g.xi_r[7] * g.x)
    interpolant = fourier_interpolant(g, f)
    np.testing.assert_allclose([interpolant(x) for x in g.x[10:14]], f[10:14], atol=1e-12)
    assert interpolant(float(g.x[5])) == pytest.approx(f[5], abs=1e-12)
    # the derivative, between the nodes too
    xq = g.x[10:14] + 0.37 * g.h
    df = -g.xi_r[3] * np.sin(g.xi_r[3] * xq) + 0.3 * g.xi_r[7] * np.cos(g.xi_r[7] * xq)
    np.testing.assert_allclose([interpolant(x, 1) for x in xq], df, atol=1e-12)
