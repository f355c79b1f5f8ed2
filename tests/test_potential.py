"""Misfit potential: closed forms, tables, structural validation."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnedge.params import PhysParams
from pnedge.potential import (
    eval_potential,
    frenkel,
    from_csv,
    from_table,
    validate_potential,
)


@pytest.fixture(scope="module")
def fr():
    return frenkel(PhysParams())


def test_frenkel_values(fr):
    b = fr.params.b
    assert eval_potential(fr, b / 4.0, 0) == pytest.approx(0.0, abs=1e-15)
    assert eval_potential(fr, 0.0, 0) == pytest.approx(1.0 / (2 * np.pi**2), rel=1e-14)
    assert eval_potential(fr, b / 8.0, 1) == pytest.approx(-1.0 / np.pi, rel=1e-14)
    assert eval_potential(fr, b / 4.0, 2) == pytest.approx(4.0, rel=1e-14)


def test_eval_rejects_bad_order(fr):
    with pytest.raises(ValueError):
        eval_potential(fr, 0.1, 3)


@settings(max_examples=50, deadline=None)
@given(st.floats(-2.0, 2.0, allow_nan=False))
def test_frenkel_periodicity(u):
    fr = frenkel(PhysParams())
    period = fr.params.b / 2.0
    assert abs(eval_potential(fr, u, 0) - eval_potential(fr, u + period, 0)) <= 1e-10


def test_well_symmetry(fr):
    b = fr.params.b
    assert abs(eval_potential(fr, b / 4.0, 0) - eval_potential(fr, -b / 4.0, 0)) <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_consistency(fr, order):
    # centered differences of the analytic forms, observed order >= 1.9
    u = np.linspace(-0.3, 0.3, 11)
    errs = []
    for h in (1e-3, 1e-4):
        fd = (eval_potential(fr, u + h, order - 1)
              - eval_potential(fr, u - h, order - 1)) / (2 * h)
        errs.append(np.max(np.abs(fd - eval_potential(fr, u, order))))
    assert np.log10(errs[0] / errs[1]) >= 1.9


def test_interior_minimum_scan(fr):
    b = fr.params.b
    v = np.linspace(-b / 4, b / 4, 10_000 + 2)[1:-1]
    w = eval_potential(fr, v, 0)
    assert np.min(w) > 1e-10


def test_validate_frenkel(fr):
    report = validate_potential(fr)
    assert report.interior_strict_minimum
    assert report.positive_curvature_at_wells
    assert report.endpoint_values_equal
    assert report.passed


def test_validate_inverted_well():
    # endpoints are maxima: the interior-minimum check must fail
    prm = PhysParams()
    u = np.linspace(0, prm.b / 2, 64, endpoint=False)
    table = np.column_stack([u, 1.0 - np.cos(4 * np.pi * u / prm.b)])
    spec = from_table(prm, table)
    report = validate_potential(spec)
    assert not report.interior_strict_minimum
    assert not report.passed


def test_tabulated_frenkel_passes():
    prm = PhysParams()
    fr = frenkel(prm)
    u = np.linspace(0, prm.b / 2, 64, endpoint=False)
    table = np.column_stack([u, eval_potential(fr, u, 0)])
    spec = from_table(prm, table)
    assert validate_potential(spec).passed
    probe = np.linspace(-0.2, 0.2, 7)
    np.testing.assert_allclose(eval_potential(spec, probe, 0),
                               eval_potential(fr, probe, 0), atol=2e-8)
    np.testing.assert_allclose(eval_potential(spec, probe, 1),
                               eval_potential(fr, probe, 1), atol=2e-5)


def test_table_is_zero_at_the_wells_when_no_sample_is():
    # knots 0.3 of a cell off the wells: the smallest sample lies above the
    # spline's W(b/4), which a zero set at that sample would put at -1.1e-5
    prm = PhysParams()
    u = (np.arange(64) + 0.3) * (prm.b / 2 / 64)
    spec = from_table(prm, np.column_stack([u, eval_potential(frenkel(prm), u, 0)]))
    assert eval_potential(spec, prm.b / 4.0, 0) == 0.0
    assert eval_potential(spec, -prm.b / 4.0, 0) == 0.0
    assert validate_potential(spec).passed


def test_table_needs_enough_samples():
    prm = PhysParams()
    u = np.linspace(0, prm.b / 2, 5, endpoint=False)
    with pytest.raises(ValueError):
        from_table(prm, np.column_stack([u, np.ones_like(u)]))


def test_table_rejects_knots_that_collapse_onto_the_period():
    # np.mod(-1e-18, b/2) is b/2 itself, so after closing the period the
    # last two knots coincide
    prm = PhysParams()
    u = np.append(np.linspace(0, prm.b / 2, 16, endpoint=False), -1e-18)
    with pytest.raises(ValueError, match="strictly increasing"):
        from_table(prm, np.column_stack([u, np.cos(u)]))


def test_table_csv_roundtrip(tmp_path):
    prm = PhysParams()
    fr = frenkel(prm)
    u = np.linspace(0, prm.b / 2, 48, endpoint=False)
    lines = ["u,W"] + [f"{ui:.17g},{wi:.17g}"
                       for ui, wi in zip(u, eval_potential(fr, u, 0))]
    path = tmp_path / "pot.csv"
    path.write_text("\n".join(lines) + "\n")
    spec = from_csv(prm, path)
    assert validate_potential(spec).passed


def test_frenkel_in_place_evaluation_matches_closed_forms():
    # the tangent forms in the offset from the well on u's side, written out
    # term for term; the evaluation works in place on two arrays and must
    # give the same bits and types
    p = PhysParams(G=0.8, nu=0.3, b=1.3, d=0.9)
    fr = frenkel(p)
    u = np.random.default_rng(3).uniform(-p.b, p.b, 257)
    delta = u - np.copysign(p.b / 4.0, u)
    t = np.tan(2.0 * np.pi / p.b * delta)
    s = t / (t**2 + 1.0)
    closed = [t * s * (p.G * p.b**2 / (2.0 * np.pi**2 * p.d)),
              s * (2.0 * p.G * p.b / (np.pi * p.d)),
              (1.0 - 2.0 * (t * s)) * (4.0 * p.G / p.d)]
    for order, expected in enumerate(closed):
        np.testing.assert_array_equal(eval_potential(fr, u, order), expected)
        scalar = eval_potential(fr, float(u[7]), order)
        assert isinstance(scalar, np.float64) and scalar == expected[7]
    u_before = u.copy()
    eval_potential(fr, u, (0, 1))
    np.testing.assert_array_equal(u, u_before)  # the input is left alone
    # several orders from one reduction: each value is that of its own
    # call, for the closed form and for a table, at an array and a scalar u
    knots = np.linspace(0.0, p.b / 2.0, 48, endpoint=False)
    table = from_table(p, np.column_stack([knots, eval_potential(fr, knots, 0)]))
    for spec in (fr, table):
        for x in (u, float(u[7])):
            for orders in ((0, 1), (1, 0), (0, 1, 2)):
                got = eval_potential(spec, x, orders)
                assert isinstance(got, tuple) and len(got) == len(orders)
                for k, value in zip(orders, got):
                    single = eval_potential(spec, x, k)
                    assert type(value) is type(single)
                    np.testing.assert_array_equal(value, single)


def _frenkel_longdouble(p, u, order):
    """W, W' or W'' of the Frenkel potential at the doubles u, in long double."""
    G, b, d = (np.longdouble(x) for x in (p.G, p.b, p.d))
    pi = 4 * np.arctan(np.longdouble(1))
    u = np.asarray(u, dtype=np.longdouble)
    delta = u - np.copysign(b / 4, u)  # exact identities, as in the module docstring
    if order == 0:
        return G * b * b / (2 * pi * pi * d) * np.sin(2 * pi * delta / b) ** 2
    if order == 1:
        return G * b / (pi * d) * np.sin(4 * pi * delta / b)
    return 4 * G / d * np.cos(4 * pi * delta / b)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double has no more precision than double here")
@pytest.mark.parametrize("p", [PhysParams(), PhysParams(G=0.8, nu=0.3, b=1.3, d=0.9)])
def test_frenkel_is_accurate_near_the_wells_and_symmetric(p):
    fr = frenkel(p)
    b = p.b
    # W and W' to 1e-15 relative within 1e-3 b of either well, where
    # 4 pi u / b lies near +-pi
    offsets = np.linspace(-1e-3 * b, 1e-3 * b, 4001)
    near = np.concatenate([b / 4.0 + offsets, -b / 4.0 + offsets])
    for order in (0, 1):
        exact = _frenkel_longdouble(p, near, order)
        err = np.abs(eval_potential(fr, near, order) - exact)
        assert np.all(err <= 1e-15 * np.abs(exact))
    # all three orders to 2e-15 of their scale on [-b, b]
    u = np.linspace(-b, b, 20001)
    scales = (p.G * b**2 / (2.0 * np.pi**2 * p.d), p.G * b / (np.pi * p.d), 4.0 * p.G / p.d)
    for order, scale in enumerate(scales):
        err = np.abs(eval_potential(fr, u, order) - _frenkel_longdouble(p, u, order))
        assert np.max(err) <= 2e-15 * scale
    # W even and W' odd bit for bit, and W'' = 4 G / d exactly at the wells
    # (so the core width of the curvature at the wells is zeta exactly)
    np.testing.assert_array_equal(eval_potential(fr, -u, 0), eval_potential(fr, u, 0))
    np.testing.assert_array_equal(eval_potential(fr, -u, 1), -eval_potential(fr, u, 1))
    assert eval_potential(fr, b / 4.0, 2) == 4.0 * p.G / p.d
    assert eval_potential(fr, -b / 4.0, 2) == 4.0 * p.G / p.d


# ---------------------------------------------------------------------------
# the periodic spline of a table
# ---------------------------------------------------------------------------

#: miss of a table value at its knot, and jump of W, W' or W'' across a
#: knot, relative to the largest knot value
_KNOT_RTOL = 1e-13
#: change of W, W' or W'' under a shift by whole periods, relative to its
#: largest knot value: the shift moves the reduced argument by a few ulp
#: of |u + k period|, which the next derivative (up to about 1/dx times
#: the last) amplifies
_PERIOD_RTOL = 1e-11


def _spline_table(kind, period):
    rng = np.random.default_rng(5)
    if kind == "uniform":
        u = np.arange(64) * (period / 64)
    elif kind == "offset":  # uniform, first knot not 0
        u = (np.arange(64) + 0.37) * (period / 64)
    elif kind == "nonuniform":  # one knot drawn in each of 200 cells
        u = (np.arange(200) + rng.uniform(0.1, 0.9, 200)) * (period / 200)
    else:  # the gap 0.03 -> 0.2 is wider than its neighbours' sum
        u = np.array([0.0, 0.01, 0.02, 0.03, 0.2, 0.21, 0.22, 0.23, 0.24])
    return np.column_stack([u, rng.uniform(0.0, 1.0, len(u))])


def _one_sided(spline, order):
    """W^(order) at the end of each interval and at the start of the next
    one (the last interval's next is the first: the periodic seam)."""
    c, dx = spline.c, np.diff(spline.x)
    ends = [np.polyval(np.polyder(c[:, i], order), dx[i]) for i in range(len(dx))]
    starts = [np.polyval(np.polyder(c[:, i], order), 0.0) for i in range(len(dx))]
    return np.array(ends), np.roll(starts, -1)


@pytest.mark.parametrize("kind", ["uniform", "offset", "nonuniform", "gap"])
def test_table_spline_interpolates_with_continuous_second_derivative(kind):
    prm = PhysParams()
    table = _spline_table(kind, prm.b / 2.0)
    spec = from_table(prm, table)
    # the samples, less the one constant that puts W(+-b/4) at zero
    w = table[:, 1] - table[0, 1] + eval_potential(spec, table[0, 0], 0)
    np.testing.assert_allclose(eval_potential(spec, table[:, 0], 0), w,
                               rtol=0.0, atol=_KNOT_RTOL * np.ptp(w))
    for order in (0, 1, 2):
        ends, starts = _one_sided(spec._spline, order)
        assert np.max(np.abs(ends - starts)) <= _KNOT_RTOL * np.max(np.abs(starts))


@pytest.mark.parametrize("kind", ["uniform", "offset", "nonuniform", "gap"])
def test_table_spline_is_periodic(kind):
    prm = PhysParams()
    spec = from_table(prm, _spline_table(kind, prm.b / 2.0))
    u = np.random.default_rng(1).uniform(-spec.period, spec.period, 1000)
    for order in (0, 1, 2):
        scale = np.max(np.abs(_one_sided(spec._spline, order)[1]))
        base = eval_potential(spec, u, order)
        for k in (-3, -1, 1, 2, 5):
            shifted = eval_potential(spec, u + k * spec.period, order)
            assert np.max(np.abs(shifted - base)) <= _PERIOD_RTOL * scale


_TABLE_FIT = """
import sys
import numpy as np
from pnedge.params import PhysParams
from pnedge.potential import from_table

rng = np.random.default_rng(200)
table = np.column_stack([rng.uniform(0.0, 0.5, 200), rng.uniform(0.0, 1.0, 200)])
sys.stdout.write(from_table(PhysParams(), table)._spline.c.tobytes().hex())
"""


def test_table_fit_is_independent_of_blas_threads(pnedge_env):
    # a seeded 200-knot non-uniform table, fitted with 1 and with 2 BLAS threads
    fits = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _TABLE_FIT], capture_output=True,
                              text=True, env=pnedge_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        fits.append(proc.stdout)
    assert fits[0] == fits[1]


def _spline_reference(spline, u, nu):
    """A table's evaluation by ``np.mod`` and ``searchsorted``, as the
    spline evaluated before it reduced u without ``np.mod``: the reference
    bits."""
    x = spline.x
    offsets = x - x[0]
    w = np.mod(u - x[0], offsets[-1])
    i = np.searchsorted(offsets[1:-1], w, side="right")
    w -= offsets.take(i)
    coef = spline.c[:4 - nu] * np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 0.0],
                                         [6.0, 2.0, 0.0, 0.0]])[nu, :4 - nu, None]
    out = coef[0].take(i)
    for row in coef[1:]:
        out *= w
        out += row.take(i)
    return out, i


# np.mod of +-inf is NaN, with a warning on both sides
@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
@pytest.mark.parametrize("table", ["eps", "nonuniform", "gap", "not_dyadic"])
def test_table_evaluation_bit_identical_to_mod_and_searchsorted(eps_table, table):
    """The reduction without ``np.mod`` on |u - x[0]| < period gives the
    bits of ``np.mod`` + ``searchsorted``, for each order and a tuple of
    orders, at every knot and 1 ulp either side (also a period away),
    +-0.0, +-period, NaN, +-inf and random u within 3 periods; the
    interval index is searchsorted's for every finite u."""
    if table == "eps":
        spec = eps_table
    elif table == "not_dyadic":  # period 0.65, first knot not 0
        prm = PhysParams(b=1.3)
        u = (np.arange(40) + 0.37) * (prm.b / 80.0)
        spec = from_table(prm, np.column_stack([u, np.cos(4.0 * np.pi * u / prm.b)]))
    else:
        prm = PhysParams()
        spec = from_table(prm, _spline_table(table, prm.b / 2.0))
    spline, period = spec._spline, spec.period
    knots = np.concatenate([spline.x + k * period for k in (-1.0, 0.0, 1.0)])
    queries = np.concatenate([
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        [0.0, -0.0, period, -period, np.nan, -np.nan, np.inf, -np.inf],
        np.random.default_rng(7).uniform(-3.0 * period, 3.0 * period, 20_000),
    ])
    bits = lambda a: np.asarray(a).view(np.uint64)  # noqa: E731
    for order in (0, 1, 2):
        want, i = _spline_reference(spline, queries, order)
        np.testing.assert_array_equal(bits(spline(queries, order)), bits(want))
        np.testing.assert_array_equal(bits(eval_potential(spec, queries, order)), bits(want))
    finite = np.isfinite(queries)
    np.testing.assert_array_equal(spline._locate(queries)[0][finite], i[finite])
    assert np.all(np.isnan(spline(queries, 0)[~finite]))
    pair = eval_potential(spec, queries, (0, 1))
    for got, order in zip(pair, (0, 1)):
        np.testing.assert_array_equal(bits(got), bits(_spline_reference(spline, queries, order)[0]))
