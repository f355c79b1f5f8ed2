"""Misfit potential: closed forms, tables, structural validation."""

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
    # the closed forms written out, term for term; the evaluation works on
    # one array in place and must give the same bits and types
    p = PhysParams(G=0.8, nu=0.3, b=1.3, d=0.9)
    fr = frenkel(p)
    u = np.random.default_rng(3).uniform(-p.b, p.b, 257)
    arg = 4.0 * np.pi * u / p.b
    closed = [p.G * p.b**2 / (4.0 * np.pi**2 * p.d) * (1.0 + np.cos(arg)),
              -p.G * p.b / (np.pi * p.d) * np.sin(arg),
              -4.0 * p.G / p.d * np.cos(arg)]
    for order, expected in enumerate(closed):
        np.testing.assert_array_equal(eval_potential(fr, u, order), expected)
        scalar = eval_potential(fr, float(u[7]), order)
        assert isinstance(scalar, np.float64) and scalar == expected[7]
    u_before = u.copy()
    eval_potential(fr, u, 1)
    np.testing.assert_array_equal(u, u_before)  # the input is left alone
