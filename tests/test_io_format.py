"""Floating CSV cells are exactly ``format(v, ".17g")``, byte for byte."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from pnedge.cli import main
from pnedge.io import write_csv, write_field_csv


def _written(values: np.ndarray) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, {"v": values})
        return path.read_bytes()


def _expected(values: np.ndarray) -> bytes:
    return ("v\n" + "".join(format(float(v), ".17g") + "\n" for v in values)).encode()


def _assert_cells_exact(values):
    values = np.asarray(values)
    got, want = _written(values).split(b"\n"), _expected(values).split(b"\n")
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got[1:], want[1:]) if g != w]
    assert wrong[:5] == [] and len(got) == len(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_float64_cells_match_format(xs):
    _assert_cells_exact(np.array(xs, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(width=32), min_size=1, max_size=64))
def test_float32_cells_match_format(xs):
    _assert_cells_exact(np.array(xs, dtype=np.float32))


def _neighbours(x: np.ndarray, steps: int = 3) -> np.ndarray:
    out = [x]
    lo = hi = x
    with np.errstate(over="ignore"):  # past the largest float lies inf
        for _ in range(steps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.concatenate(out)


def test_edge_cells_match_format():
    powers = np.array([10.0**k for k in range(-27, 18)])
    edges = [
        # ties at 17 digits: quarter-integers where 16 digits precede the point
        1e15 + 0.25 * np.arange(4000),
        2.0**50 + 0.25 * np.arange(4000),
        2.0**51 - 0.25 * np.arange(4000),
        # powers of ten, where log10 may be one off, and their neighbours
        _neighbours(powers), -_neighbours(powers),
        # rounding carries: into the fixed notation at 1e-4, across every
        # decade (the float below 1e-14 rounds up to it), to 1e16 and 1e17
        _neighbours(np.array([9.99999999999999999e-5, 9.9999999999999999e-5])),
        _neighbours((powers * (1.0 - 2.0**-53 * np.arange(1, 40)[:, None])).ravel(), 1),
        _neighbours(np.array([9999999999999999.0, 99999999999999984.0, 1e16, 1e17])),
        # the scalar fallback: zeros, subnormals, extremes and the range ends
        _neighbours(np.array([1e-25, 1e16, 5e-324, 2.2250738585072014e-308,
                              1.7976931348623157e308, 1e-300, 1e300]), 4),
        np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan]),
    ]
    # one decade per block: the product's width follows the block's smallest
    # magnitude (5^s has two 32-bit limbs up to s = 27, three above)
    rng = np.random.default_rng(11)
    edges += [10.0 ** (k + rng.random(300)) for k in range(-26, 17)]
    for values in edges:
        _assert_cells_exact(values)


def test_random_bit_patterns_match_format():
    bits = np.random.default_rng(2024).integers(0, 2**64, 100_000, dtype=np.uint64)
    _assert_cells_exact(bits.view(np.float64))


#: cells every mirrored field of the property below holds: signed zeros,
#: subnormals, the fallback's range ends and beyond, infinities and NaN, and
#: cells formatted in integers
_MIRROR_CELLS = np.array([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-30, -1e-25,
                          1e16, 1e20, np.inf, -np.inf, np.nan,
                          1.0, -0.1, 2.5e-7, -123456.789, 9007199254740993.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64), st.lists(st.floats(), max_size=64),
       st.sampled_from([1, -1]))
def test_mirrored_rows_match_format(patterns, floats, mirror):
    v = np.concatenate([np.array(patterns, dtype=np.uint64).view(np.float64),
                        np.array(floats, dtype=np.float64), _MIRROR_CELLS])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_field_csv(path, np.arange(v.size), np.array([1.0]), v[None, :], mirror=mirror)
        rows = path.read_bytes().decode().splitlines()[1:]
    assert rows[:v.size] == [f"{i},-1,{'%.17g' % (mirror * c)}" for i, c in enumerate(v)]
    assert rows[v.size:] == [f"{i},1,{'%.17g' % c}" for i, c in enumerate(v)]


def test_mixed_magnitudes_match_format():
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-14.0, 18.0, 50_000)
    _assert_cells_exact(values)


def test_manifest_times_the_csv_writes(tmp_path):
    common = ["--set", "L_over_zeta=200", "--set", "N=1024"]
    runs = {
        "solve-static": [],
        "extend": ["--set", "ylevels_count=4"],
        "energy": ["--set", "energy_n_perturbations=2"],
        "dynamics": ["--set", "dynamics_T_end=1", "--set", "dynamics_snapshot_times=0.5"],
    }
    for cmd, extra in runs.items():
        out = tmp_path / cmd
        assert main(["--output", str(out)] + common + extra + [cmd]) == 0, cmd
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings_s"]
        assert set(timings) == {"total", "write"}, cmd
        assert 0.0 < timings["write"] < timings["total"], cmd
        assert manifest["bytes_written"] == {
            p.name: p.stat().st_size for p in out.glob("*.csv")}, cmd
