"""Level-chunked half-plane walks against level-by-level references.

The half-plane fields, the box energy and the Parseval tables evaluate
their y-levels in chunks of ``extension._LEVEL_CHUNK``.  The references
below are the one-level-at-a-time loops they replace, kept here
verbatim (the box energy's is the level-by-level form of its walk shared
by all radii, the cross table's that of its background walk plus the
correction's polarization); the chunked code must give the same bits
(``==``, no tolerance), including for level counts that are not a
multiple of the chunk and for fewer levels than one chunk.  The cross
table as a sum of two stresses at every level is kept as a reference at
roundoff.
"""

import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from pnedge import energy
from pnedge.energy import (
    BoxQuadrature,
    HalfPlaneTables,
    _trapezoid_weights,
    competitor_energy,
    elastic_energy_box,
    seeded_perturbations,
)
from pnedge.extension import (
    _LEVEL_CHUNK,
    YLevels,
    _analytic_displacement,
    _level_chunks,
    _analytic_stress,
    _displacement_of_spectrum,
    _strain_multipliers,
    _strains_of_spectrum,
    extend_to_half_planes,
    strains_to_stresses,
    stress_field,
)
from pnedge.grid import build_grid
from pnedge.operators import dot, irfft, mode_weights, rfft
from pnedge.params import PhysParams
from pnedge.profile import Profile, background, tanh_profile
from pnedge.static import solve_static

# ---------------------------------------------------------------------------
# level-by-level references
# ---------------------------------------------------------------------------


def _density(s11, s12, s22, G, nu):
    return (s11**2 + s22**2 - nu * (s11 + s22) ** 2 + 2.0 * s12**2) / (4.0 * G)


def _box_background_reference(p, R, n_x, n_levels):
    prm = p.params
    ys, wy = BoxQuadrature(prm.zeta / 50.0, R, n_levels).nodes_weights()
    xw = np.linspace(-R, R, n_x)
    wx = _trapezoid_weights(xw)
    total = 0.0
    for y, wt in zip(ys, wy):
        s11, s12, s22, _ = _analytic_stress(xw - p.x0, y, prm.G, prm.b, prm.nu, p.zeta_bg, +1.0)
        total += wt * float(np.sum(wx * _density(s11, s12, s22, prm.G, prm.nu)))
    return total


def _box_reference(p, radii, n_x=1024, n_levels=192):
    """The multi-radius box energy one level at a time: each radius's
    background on its own nodes, the correction on the shared nodes with
    each radius's trapezoid weights and x-window."""
    prm = p.params
    G, nu = prm.G, prm.nu
    y0 = prm.zeta / 50.0
    r_min, r_max = min(radii), max(radii)
    m = 1 + int(np.ceil((n_levels - 1) * (np.log(r_max / y0) / np.log(r_min / y0))))
    ys = np.unique(np.concatenate([[0.0], np.geomspace(y0, r_max, m), radii]))
    weights = [np.zeros_like(ys) for _ in radii]
    for w, R in zip(weights, radii):
        w[ys <= R] = _trapezoid_weights(ys[ys <= R])
    masks = [np.abs(p.grid.x) <= R for R in radii]
    v_hat = rfft(p.v)
    corr = [0.0] * len(radii)
    for i, y in enumerate(ys):
        ev = _strains_of_spectrum(p.grid, v_hat, nu, y)
        for j, mask in enumerate(masks):
            c11, c12, c22, _ = strains_to_stresses(*(e[mask] for e in ev), G, nu)
            xg = p.grid.x[mask] - p.x0
            b11, b12, b22, _ = _analytic_stress(xg, y, G, prm.b, nu, p.zeta_bg, +1.0)
            # the density change in expanded form: no two large densities cancel
            tc = c11 + c22
            d = (p.grid.h / (4.0 * G)) * (
                2.0 * (b11 * c11 + b22 * c22 + 2.0 * b12 * c12) - 2.0 * nu * (b11 + b22) * tc
                + c11 * c11 + c22 * c22 - nu * tc * tc + 2.0 * c12 * c12)
            corr[j] += weights[j][i] * float(np.sum(d))
    return [2.0 * (_box_background_reference(p, R, n_x, n_levels) + c)
            for R, c in zip(radii, corr)]


def _extend_reference(p, yl):
    grid, prm = p.grid, p.params
    xs = grid.x - p.x0
    n_lev = len(yl.values)
    u1p = np.empty((n_lev, grid.N))
    u2p = np.empty((n_lev, grid.N))
    v_hat = rfft(p.v) if np.any(p.v) else None
    for i, y in enumerate(yl.values):
        b1, b2 = _analytic_displacement(xs, y, prm.b, prm.nu, p.zeta_bg, +1.0)
        if v_hat is not None:
            c1, c2 = _displacement_of_spectrum(grid, v_hat, prm.nu, y)
            b1 = b1 + c1
            b2 = b2 + c2
        u1p[i] = b1
        u2p[i] = b2
    return u1p, u2p


def _stress_reference(p, yl):
    grid, prm = p.grid, p.params
    xs = grid.x - p.x0
    n_lev = len(yl.values)
    comps = {k: np.empty((n_lev, grid.N)) for k in ("s11", "s12", "s22", "s33")}
    v_hat = rfft(p.v) if np.any(p.v) else None
    for i, y in enumerate(yl.values):
        s11, s12, s22, s33 = _analytic_stress(xs, y, prm.G, prm.b, prm.nu, p.zeta_bg, +1.0)
        if v_hat is not None:
            e11, e22, e12 = _strains_of_spectrum(grid, v_hat, prm.nu, y)
            c11, c12, c22, c33 = strains_to_stresses(e11, e22, e12, prm.G, prm.nu)
            s11, s12, s22, s33 = s11 + c11, s12 + c12, s22 + c22, s33 + c33
        comps["s11"][i], comps["s12"][i] = s11, s12
        comps["s22"][i], comps["s33"][i] = s22, s33
    return comps["s11"], comps["s12"], comps["s22"], comps["s33"]


def _strain_multipliers_reference(q, y, nu):
    """The three strain multipliers as separate arrays, for ``np.stack``."""
    beta = 1.0 / (2.0 - 2.0 * nu)
    decay = np.exp(-q * y)
    e11 = 1j * q * (1.0 - beta * q * y) * decay
    e22 = -1j * q * beta * (2.0 * nu - q * y) * decay
    e12 = q * beta * (q * y - 1.0) * decay
    return e11, e22, e12


def _abs2(m):
    return m.real**2 + m.imag**2


def _parseval_multipliers(ms):
    m = np.array(ms, dtype=complex)
    m[:, -1] = m[:, -1].real
    return m


def _energy_table_reference(grid, params, quad, multipliers=None):
    ys, wy = quad.nodes_weights()
    G, nu = params.G, params.nu
    lame = 2.0 * nu * G / (1.0 - 2.0 * nu)
    if multipliers is None:
        multipliers = partial(_strain_multipliers_reference, nu=nu)
    q = grid.xi_r
    acc = np.zeros(len(q))
    for y, wt in zip(ys, wy):
        m11, m22, m12 = _parseval_multipliers(multipliers(q, y))
        acc += wt * (G * (_abs2(m11) + _abs2(m22) + 2.0 * _abs2(m12))
                     + 0.5 * lame * _abs2(m11 + m22))
    return 2.0 * mode_weights(grid) * acc


def _two_stress_cross_table(p, quad):
    """The cross table as a sum of two stresses at every level: the
    background's ``rfft`` plus the correction's stress spectrum from the
    strain multipliers times ``rfft(v)``."""
    ys, wy = quad.nodes_weights()
    grid, prm = p.grid, p.params
    G, nu = prm.G, prm.nu
    q = grid.xi_r
    xs = grid.x - p.x0
    v_hat = rfft(p.v)
    acc = np.zeros(len(q), dtype=complex)
    for y, wt in zip(ys, wy):
        m11, m22, m12 = _parseval_multipliers(_strain_multipliers_reference(q, y, nu))
        s11, s12, s22, _ = _analytic_stress(xs, y, G, prm.b, nu, p.zeta_bg, +1.0)
        S11, S22, S12 = rfft(np.stack([s11, s22, s12]))
        c11, c12, c22, _ = strains_to_stresses(m11 * v_hat, m22 * v_hat, m12 * v_hat, G, nu)
        S11, S12, S22 = S11 + c11, S12 + c12, S22 + c22
        acc += wt * (m11 * np.conj(S11) + m22 * np.conj(S22) + 2.0 * m12 * np.conj(S12))
    return 2.0 * mode_weights(grid) * acc


def _cross_table_reference(p, quad):
    """The level loop over the background alone (the two-stress table of
    ``v = 0``) plus the correction's cross part, the polarization
    ``2 E_k conj(rfft(v)_k)`` of the elastic table."""
    background_only = replace(p, v=np.zeros_like(p.v))
    elastic = _energy_table_reference(p.grid, p.params, quad)
    return (_two_stress_cross_table(background_only, quad)
            + 2.0 * elastic * np.conj(rfft(p.v)))


def _competitor_reference(grid, phi1, params, f_pair, g_pair, quad):
    f, fp = f_pair
    g, gp = g_pair

    def multipliers(q, y):
        t = q * y
        return 1j * q * f(t), 1j * q * gp(t), 0.5 * (q * fp(t) - q * g(t))

    table = _energy_table_reference(grid, params, quad, multipliers)
    th = rfft(np.asarray(phi1, dtype=float))
    return dot(table, _abs2(th))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

#: ``n_levels`` of the quadrature, which has ``n_levels + 1`` nodes with
#: y = 0: the config's 193 nodes (one past a multiple of the chunk), a
#: chunk and two, one short of two chunks, and fewer than one chunk
LEVELS = (192, _LEVEL_CHUNK + 1, 2 * _LEVEL_CHUNK - 2, _LEVEL_CHUNK - 2)


def _wide_core(prm, N):
    """The arctan core written about a background of twice its width, so
    that the correction v is of order b.  The solved profile's v is about
    1e-11 b, below the rounding of the core it is added to, so a bit the
    correction path changes does not show in its fields."""
    g = build_grid(200.0 * prm.zeta, N)
    v = background(g.x, prm.b, prm.zeta) - background(g.x, prm.b, 2.0 * prm.zeta)
    return Profile(grid=g, params=prm, zeta_bg=2.0 * prm.zeta, v=v)


@pytest.fixture(scope="module", params=["solved", "analytic", "wide"])
def profile(request, solved, analytic, params, grid):
    if request.param == "wide":
        return _wide_core(params, grid.N)
    p = solved if request.param == "solved" else analytic
    assert bool(np.any(p.v)) == (request.param == "solved")
    return p


@pytest.fixture(scope="module", params=[0.25, 0.2137])
def wide_core(request, grid):
    """:func:`_wide_core` at two Poisson ratios."""
    return _wide_core(PhysParams(nu=request.param), grid.N)


def _competitors(nu):
    beta = 1.0 / (2.0 - 2.0 * nu)
    zero = (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))
    return [
        ((lambda t: np.exp(-t), lambda t: -np.exp(-t)), zero),
        ((lambda t: np.exp(-0.5 * t), lambda t: -0.5 * np.exp(-0.5 * t)), zero),
        ((lambda t: np.exp(-t), lambda t: -np.exp(-t)),
         (lambda t: -beta * ((1.0 - 2.0 * nu) + t) * np.exp(-t),
          lambda t: -beta * (2.0 * nu - t) * np.exp(-t))),
    ]


# ---------------------------------------------------------------------------
# bit-for-bit agreement
# ---------------------------------------------------------------------------

#: field levels: one, fewer than a chunk, a chunk, one past it, and the
#: config's default count
FIELD_LEVELS = (1, _LEVEL_CHUNK - 1, _LEVEL_CHUNK, _LEVEL_CHUNK + 1, 24)


@pytest.mark.parametrize("n", FIELD_LEVELS)
def test_half_plane_fields_bit_identical(wide_core, analytic, n):
    assert np.max(np.abs(wide_core.v)) > 0.01 * wide_core.params.b
    for p in (wide_core, analytic):
        z = p.params.zeta
        yl = YLevels.geometric(0.1 * z, 10.0 * z, n)
        got = (*extend_to_half_planes(p, yl).values(), *stress_field(p, yl).values())
        want = (*_extend_reference(p, yl), *_stress_reference(p, yl))
        for g, w in zip(got, want):
            # the bit patterns, so that a zero's sign counts too
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


# box radii over zeta: one radius at either end, two unsorted, and the
# config's default four
@pytest.mark.parametrize("radii_over_zeta",
                         [(5.0,), (40.0,), (40.0, 5.0), (5.0, 10.0, 20.0, 40.0)],
                         ids=["5.0", "40.0", "40,5", "5,10,20,40"])
@pytest.mark.parametrize("n_x,n_levels", [(1024, 192), (512, 96),
                                          (256, _LEVEL_CHUNK + 2), (256, _LEVEL_CHUNK - 2)])
def test_box_energy_bit_identical(profile, params, radii_over_zeta, n_x, n_levels):
    radii = [r * params.zeta for r in radii_over_zeta]
    got = elastic_energy_box(profile, radii, n_x=n_x, n_levels=n_levels)
    assert got == _box_reference(profile, radii, n_x=n_x, n_levels=n_levels)


@pytest.mark.parametrize("width, levels", [(512, 32), (1024, 16), (4096, 4), (16384, 4),
                                           (None, _LEVEL_CHUNK)])
def test_chunk_levels_by_row_width(width, levels):
    """A walk over narrow rows takes more levels a chunk, one over the
    grid (no width) ``_LEVEL_CHUNK``; the last chunk is short."""
    n = 2 * levels + 3
    ys = np.geomspace(0.01, 1.0, n)
    rows = np.arange(3 * n).reshape(n, 3)
    chunks = list(_level_chunks(ys, rows, width=width))
    assert [len(y) for y, _ in chunks] == [levels, levels, 3]
    assert all(y.shape == (len(r), 1) for y, r in chunks)
    assert np.array_equal(np.concatenate([y[:, 0] for y, _ in chunks]), ys)
    assert np.array_equal(np.concatenate([r for _, r in chunks]), rows)


@pytest.mark.parametrize("n_x,n_levels,chunk", [(1024, 192, 16), (512, 96, 32)])
def test_box_energy_equals_a_four_level_walk(profile, params, monkeypatch,
                                             n_x, n_levels, chunk):
    """The box backgrounds' narrow windows walk ``chunk`` levels at a time,
    with the bits of the walk of ``_LEVEL_CHUNK`` levels they replace."""
    radii = [r * params.zeta for r in (5.0, 10.0, 20.0, 40.0)]
    walks = []  # (width, chunk sizes) of each walk

    def recorded(ys, *rows, width=None):
        walks.append((width, []))
        for y, *chunk_rows in _level_chunks(ys, *rows, width=width):
            walks[-1][1].append(len(y))
            yield (y, *chunk_rows)

    monkeypatch.setattr(energy, "_level_chunks", recorded)
    got = elastic_energy_box(profile, radii, n_x=n_x, n_levels=n_levels)
    # one background walk a radius, over n_levels + 1 nodes
    assert [w for w, _ in walks].count(n_x) == len(radii)
    for width, sizes in walks:
        size = chunk if width == n_x else _LEVEL_CHUNK
        assert sizes[:-1] == [size] * (len(sizes) - 1) and 0 < sizes[-1] <= size
    monkeypatch.setattr(energy, "_level_chunks",
                        lambda ys, *rows, width=None: _level_chunks(ys, *rows))
    assert got == elastic_energy_box(profile, radii, n_x=n_x, n_levels=n_levels)


@pytest.fixture(scope="module")
def solved_table(grid, params, eps_table):
    with warnings.catch_warnings():
        # the solved table core is not monotone (ROADMAP item 1)
        warnings.filterwarnings("ignore", "converged profile is not monotone")
        return solve_static(tanh_profile(grid, params), eps_table).profile


@pytest.mark.parametrize("potential, n_x, n_levels, rtol", [
    ("frenkel", 1024, 192, 1e-14),
    ("frenkel", 512, 96, 1e-14),
    ("table", 1024, 192, 1e-5),
    ("table", 512, 96, 5e-5),
])
def test_shared_walk_matches_per_radius_walks(solved, solved_table, params, potential,
                                              n_x, n_levels, rtol):
    """The walk shared by the four default radii against each radius on
    its own: one radius walks its own box's levels, as the box energy did
    before the radii shared a walk.  The solved Frenkel correction is
    about 1e-11 b, so the two agree to roundoff; under the table the
    radii get more shared levels than their own, and the two differ by
    the quadrature's error."""
    p = solved if potential == "frenkel" else solved_table
    radii = [r * params.zeta for r in (5.0, 10.0, 20.0, 40.0)]
    got = elastic_energy_box(p, radii, n_x=n_x, n_levels=n_levels)
    want = [_box_reference(p, [R], n_x=n_x, n_levels=n_levels)[0] for R in radii]
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("y", [0.0, 0.3, np.array([[0.0], [0.01], [2.5], [40.0]])],
                         ids=["zero", "level", "chunk"])
def test_strains_bit_identical_to_stacked_multipliers(solved, params, y):
    grid, nu = solved.grid, params.nu
    ref = np.stack(_strain_multipliers_reference(grid.xi_r, y, nu))
    np.testing.assert_array_equal(_strain_multipliers(grid.xi_r, y, nu),
                                  np.stack([ref[0].imag, ref[1].imag, ref[2].real]))
    v_hat = rfft(solved.v)
    np.testing.assert_array_equal(np.stack(_strains_of_spectrum(grid, v_hat, nu, y)),
                                  irfft(grid, ref * v_hat))


@pytest.mark.parametrize("n_levels", LEVELS)
def test_tables_bit_identical(profile, params, n_levels):
    quad = BoxQuadrature(params.zeta / 50.0, 400.0 * params.zeta, n_levels)
    tables = HalfPlaneTables.build(profile, quad)
    np.testing.assert_array_equal(
        tables.elastic, _energy_table_reference(profile.grid, params, quad))
    np.testing.assert_array_equal(tables.cross, _cross_table_reference(profile, quad))


@pytest.mark.parametrize("case", ["frenkel", "table", "background:2"])
def test_cross_table_matches_two_stress_table(solved, solved_table, grid, params, case):
    """The correction's cross part by polarization against the correction's
    stress summed with the background's at every level: the same quadrature,
    so they agree to roundoff, and bit for bit where v = 0."""
    p = {"frenkel": solved, "table": solved_table,
         "background:2": Profile(grid=grid, params=params, zeta_bg=2.0 * params.zeta)}[case]
    quad = BoxQuadrature.for_params(params)
    cross = HalfPlaneTables.build(p, quad).cross
    want = _two_stress_cross_table(p, quad)
    if case == "background:2":
        assert not np.any(p.v)
        np.testing.assert_array_equal(cross, want)
    else:
        assert np.max(np.abs(cross - want)) <= 1e-14 * np.max(np.abs(want))


def test_tables_take_the_amplitudes_once_a_chunk(solved, params, monkeypatch):
    """One walk builds both tables: one amplitude call a chunk of levels."""
    calls = []

    def counted(q, y, nu):
        calls.append(len(y))
        return _strain_multipliers(q, y, nu)

    monkeypatch.setattr(energy, "_strain_multipliers", counted)
    quad = BoxQuadrature.for_params(params)
    HalfPlaneTables.build(solved, quad)
    assert len(quad.nodes_weights()[0]) == 193
    assert len(calls) == 49 and sum(calls) == 193


@pytest.mark.parametrize("n_levels", LEVELS)
def test_competitor_energy_bit_identical(grid, params, n_levels):
    quad = BoxQuadrature(params.zeta / 50.0, 400.0 * params.zeta, n_levels)
    phi1 = seeded_perturbations(grid, params, 1, seed=3)[0].phi1
    for f_pair, g_pair in _competitors(params.nu):
        got = competitor_energy(grid, phi1, params, f_pair, g_pair, quad)
        assert got == _competitor_reference(grid, phi1, params, f_pair, g_pair, quad)


# ---------------------------------------------------------------------------
# memory bound of one chunk
# ---------------------------------------------------------------------------

_PEAK_LIMIT = 4 * 2**20  # bytes


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_peak_memory(solved, grid, params):
    quad = BoxQuadrature.for_params(params)
    phi1 = seeded_perturbations(grid, params, 1, seed=3)[0].phi1
    (f_pair, g_pair), *_ = _competitors(params.nu)
    runs = {
        "elastic_energy_box": lambda: elastic_energy_box(
            solved, [r * params.zeta for r in (5.0, 10.0, 20.0, 40.0)]),
        "HalfPlaneTables.build": lambda: HalfPlaneTables.build(solved, quad),
        "competitor_energy": lambda: competitor_energy(grid, phi1, params, f_pair,
                                                       g_pair, quad),
    }
    for name, fn in runs.items():
        peak = _peak_bytes(fn)
        assert peak <= _PEAK_LIMIT, f"{name}: tracemalloc peak {peak} B"
