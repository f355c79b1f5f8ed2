"""The real-FFT spectral layer: Nyquist convention and where transforms live.

Also that no module of the package imports scipy, at any depth.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import pnedge
from pnedge.grid import build_grid
from pnedge.operators import (
    apply_half_laplacian,
    apply_symbol,
    fourier_shift,
    spectral_derivative,
)

SRC = Path(pnedge.__file__).parent


@pytest.fixture()
def nyquist():
    """Grid with h = 1 and the pure Nyquist mode f_j = (-1)^j."""
    g = build_grid(32.0, 64)
    return g, (-1.0) ** np.arange(g.N)


def test_odd_symbols_annihilate_nyquist(nyquist):
    g, f = nyquist
    assert np.max(np.abs(spectral_derivative(g, f))) <= 1e-12


def test_half_laplacian_keeps_nyquist(nyquist):
    g, f = nyquist
    assert np.max(np.abs(apply_half_laplacian(g, f) - np.pi / g.h * f)) <= 1e-12


@pytest.mark.parametrize("a_over_h", [0.0, 0.3, 0.5, 1.7, -2.25])
def test_fourier_shift_keeps_nyquist_cosine(nyquist, a_over_h):
    g, f = nyquist
    a = a_over_h * g.h
    assert np.max(np.abs(fourier_shift(g, f, a) - np.cos(np.pi * a / g.h) * f)) <= 1e-12


def test_apply_symbol_broadcasts_over_stacked_symbols(rng):
    g = build_grid(5.0, 64)
    f = rng.standard_normal(g.N)
    symbols = np.stack([g.xi_r, np.exp(-g.xi_r), 1j * g.xi_r])
    stacked = apply_symbol(g, f, symbols)
    assert stacked.shape == (3, g.N)
    for row, symbol in zip(stacked, symbols):
        np.testing.assert_array_equal(row, apply_symbol(g, f, symbol))


def test_grid_rfft_modes_match_full_wavenumbers():
    g = build_grid(7.0, 32)
    xi = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.h)  # all N modes, FFT order
    np.testing.assert_array_equal(g.xi_r, np.abs(xi[: g.N // 2 + 1]))


_FFT_REF = re.compile(r"\b(?:np|numpy|scipy)\.fft\b(?:\.(\w+))?")
_FFT_IMPORT = re.compile(r"\bfrom\s+(?:numpy|scipy)\s+import\b.*\bfft\b")


def _fft_uses(path):
    """(line number, transform name) of every FFT reference in a source file."""
    uses = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        uses += [(lineno, name or "fft module") for name in _FFT_REF.findall(line)]
        if _FFT_IMPORT.search(line):
            uses.append((lineno, "fft module"))
    return uses


def test_fft_transforms_stay_in_the_spectral_layer():
    spectral = {"operators.py", "grid.py"}
    outside = [(path.name, lineno, name)
               for path in sorted(SRC.glob("*.py")) if path.name not in spectral
               for lineno, name in _fft_uses(path) if name != "fftfreq"]
    assert outside == []


def test_complex_transforms_only_in_spectral_field():
    complex_uses = [(path.name, lineno, name)
                    for path in sorted(SRC.glob("*.py")) if path.name != "grid.py"
                    for lineno, name in _fft_uses(path) if name in ("fft", "ifft")]
    assert complex_uses == []


def test_no_complex_transforms_in_any_module():
    # every transform is real: grid.py keeps only the wavenumber tables
    complex_uses = [(path.name, lineno, name)
                    for path in sorted(SRC.glob("*.py"))
                    for lineno, name in _fft_uses(path)
                    if name in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2")]
    assert complex_uses == []


def _scipy_imports(path):
    """(line, enclosing function, module, names) of every scipy import in a
    source file, at any depth."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, func, alias.name, ()) for alias in child.names
                             if alias.name == "scipy" or alias.name.startswith("scipy."))
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if module == "scipy" or module.startswith("scipy."):
                    found.append((child.lineno, func, module,
                                  tuple(alias.name for alias in child.names)))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_scipy_import_in_src():
    # numpy is the only runtime dependency: the solver, the tables, the
    # seminorms and every CLI path, check 03 included, import no scipy
    imports = [f"{path.name}:{lineno}: {module} {names} in {func or 'module body'}"
               for path in sorted(SRC.glob("*.py"))
               for lineno, func, module, names in _scipy_imports(path)]
    assert imports == [], "scipy imported in src/pnedge:\n" + "\n".join(imports)
