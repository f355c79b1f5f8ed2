"""The in-house MINRES gives scipy's iterates bit for bit when its inner
products reduce as scipy's do, and the package's periodic spline agrees with
scipy's ``CubicSpline`` at a stated tolerance."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import minres as scipy_minres

import pnedge.static as static
from pnedge.operators import apply_half_laplacian
from pnedge.params import PhysParams
from pnedge.potential import eval_potential, from_table
from pnedge.profile import tanh_profile
from pnedge.static import minres, solve_static


# ---------------------------------------------------------------------------
# minres
# ---------------------------------------------------------------------------

def _scipy_minres(matvec, b, psolve, **kw):
    n = b.shape[0]
    return scipy_minres(LinearOperator((n, n), matvec=matvec), b,
                        M=LinearOperator((n, n), matvec=psolve), **kw)


@pytest.fixture()
def scipy_reductions(monkeypatch):
    """MINRES with scipy's BLAS ``np.inner`` in place of the fixed-order
    ``dot``: the one difference between the two recurrences."""
    monkeypatch.setattr(static, "dot", np.inner)


@pytest.fixture()
def indefinite_system(rng):
    """Symmetric indefinite A (n = 300), SPD preconditioner, right-hand side."""
    n = 300
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 10.0, n) * np.where(rng.random(n) < 0.1, -1.0, 1.0)
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    m = np.diag(1.0 / np.abs(np.diag(a)))
    return (lambda z: a @ z), rng.standard_normal(n), (lambda z: m @ z)


@pytest.mark.usefixtures("scipy_reductions")
def test_minres_matches_scipy_on_an_indefinite_system(indefinite_system):
    matvec, b, psolve = indefinite_system
    x, info = minres(matvec, b, psolve, rtol=1e-10)
    x_ref, info_ref = _scipy_minres(matvec, b, psolve, rtol=1e-10)
    assert info == info_ref == 0
    np.testing.assert_array_equal(x, x_ref)
    assert np.linalg.norm(matvec(x) - b) <= 1e-8 * np.linalg.norm(b)


@pytest.mark.usefixtures("scipy_reductions")
def test_minres_reports_the_iteration_limit(indefinite_system):
    matvec, b, psolve = indefinite_system
    x, info = minres(matvec, b, psolve, rtol=1e-10, maxiter=5)
    x_ref, info_ref = _scipy_minres(matvec, b, psolve, rtol=1e-10, maxiter=5)
    assert info == info_ref == 5
    np.testing.assert_array_equal(x, x_ref)


@pytest.mark.usefixtures("scipy_reductions")
@pytest.mark.parametrize("maxiter", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("spectrum", [(2.0, 2.0), (1.0, -3.0)])
def test_minres_matches_scipy_on_degenerate_spectra(rng, spectrum, maxiter):
    # A = 2I stops on Abar = const I; two eigenvalues converge in two steps,
    # where rtol = 0 leaves only the roundoff tests and the iteration limit
    n = 300
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.where(rng.random(n) < 0.5, *spectrum)) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    x, info = minres(lambda z: a @ z, b, lambda z: z, rtol=0.0, maxiter=maxiter)
    x_ref, info_ref = _scipy_minres(lambda z: a @ z, b, lambda z: z, rtol=0.0,
                                    maxiter=maxiter)
    assert info == info_ref
    np.testing.assert_array_equal(x, x_ref)


@pytest.mark.usefixtures("scipy_reductions")
def test_minres_of_a_zero_right_hand_side(indefinite_system):
    matvec, b, psolve = indefinite_system
    x, info = minres(matvec, np.zeros_like(b), psolve, rtol=1e-10)
    assert info == _scipy_minres(matvec, np.zeros_like(b), psolve, rtol=1e-10)[1] == 0
    np.testing.assert_array_equal(x, np.zeros_like(b))


@pytest.mark.usefixtures("scipy_reductions")
def test_minres_matches_scipy_on_the_newton_jacobian(grid, params, spec, monkeypatch):
    """Every inner solve of the N = 4096 tanh solve: the generic form
    against scipy's, and the shift form the polish uses against the
    generic form."""
    calls = []
    w0 = eval_potential(spec, params.b / 4.0, 2)

    def both(matvec, b, psolve, rtol, shift):
        def jac(z):
            return params.c0 * apply_half_laplacian(grid, z) + (shift + w0) * z

        x, info = minres(jac, b, psolve, rtol=rtol)
        x_ref, info_ref = _scipy_minres(jac, b, psolve, rtol=rtol)
        assert info == info_ref
        np.testing.assert_array_equal(x, x_ref)
        x_shift, info_shift = minres(matvec, b, psolve, rtol=rtol, shift=shift)
        assert info_shift == info
        assert np.linalg.norm(x_shift - x) <= 1e-12 * np.linalg.norm(x)
        calls.append(info)
        return x_shift, info_shift

    monkeypatch.setattr(static, "minres", both)
    res = solve_static(tanh_profile(grid, params), spec)
    assert res.newton_steps >= 1
    assert calls == [0] * len(calls) and len(calls) >= res.newton_steps


# ---------------------------------------------------------------------------
# periodic cubic spline
# ---------------------------------------------------------------------------

def _bits(a):
    """The IEEE bit patterns: equality here tells -0.0 from 0.0."""
    return np.asarray(a, dtype=float).view(np.uint64)


def _scipy_spline(table, period):
    """scipy's spline through a table, preprocessed as ``from_table`` does."""
    u = np.mod(table[:, 0], period)
    order = np.argsort(u)
    u, w = u[order], table[order, 1]
    u, idx = np.unique(u, return_index=True)
    w = w[idx]
    spline = CubicSpline(np.append(u, u[0] + period), np.append(w, w[0]), bc_type="periodic")
    spline.c[-1] -= spline(period / 2.0)  # W = 0 at the wells
    return spline


def _table(rng, n, period, kind):
    if kind == "uniform":
        u = np.arange(n) * (period / n)
    elif kind == "offset":  # uniform, first knot not 0
        u = (np.arange(n) + 0.37) * (period / n)
    else:
        u = np.sort(rng.uniform(-period, 2.0 * period, n))
    return np.column_stack([u, rng.uniform(0.0, 1.0, n)])


#: agreement with scipy, relative to the largest coefficient or value: the
#: two fits solve the same system by different eliminations
_SCIPY_RTOL = 1e-10


def _assert_close(actual, expected, scale=None):
    scale = np.max(np.abs(expected)) if scale is None else scale
    assert np.max(np.abs(actual - expected)) <= _SCIPY_RTOL * scale


def _assert_matches_scipy(table, params, queries):
    spec = from_table(params, table)
    ref = _scipy_spline(table, spec.period)
    np.testing.assert_array_equal(_bits(spec._spline.x), _bits(ref.x))
    _assert_close(spec._spline.c, ref.c)
    for order in (0, 1, 2):
        expected = ref(np.mod(queries, spec.period), nu=order)
        _assert_close(eval_potential(spec, queries, order), expected)
    return spec, ref


@pytest.mark.parametrize("kind", ["uniform", "offset", "nonuniform"])
def test_periodic_spline_matches_scipy(rng, kind):
    params = PhysParams(b=1.3)
    period = params.b / 2.0
    for n in (8, 9, 33, 200):
        table = _table(rng, n, period, kind)
        spec = from_table(params, table)
        knots = spec._spline.x
        queries = np.concatenate([
            rng.uniform(-3.0 * period, 3.0 * period, 2000),
            knots, knots - period, knots + 2.0 * period, table[:, 0],
            [0.0, -0.0, period, -period, 2.0 * period,
             -1e-18, -1e-300, -5e-324, 1e-300, period - 1e-17],
        ])
        assert np.any(np.mod(queries, period) == period)  # np.mod can return the period
        _assert_matches_scipy(table, params, queries)


def test_periodic_spline_scalar_input(rng):
    params = PhysParams()
    table = _table(rng, 40, params.b / 2.0, "nonuniform")
    spec, ref = _assert_matches_scipy(table, params, np.array([0.1]))
    dense = np.linspace(0.0, spec.period, 1001)
    for order in (0, 1, 2):
        largest = np.max(np.abs(ref(dense, nu=order)))
        for u in (0.1, -0.3, np.float64(0.7), np.array(0.2)):
            value = eval_potential(spec, u, order)
            assert np.shape(value) == ()
            _assert_close(value, ref(np.mod(u, spec.period), nu=order), largest)
