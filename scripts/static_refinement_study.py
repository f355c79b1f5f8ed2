#!/usr/bin/env python3
"""Convergence study of the static solver.

Solves from a deliberately wrong background width (zeta_bg = 2 zeta) so
the correction carries real content, then measures the distance to the
closed-form arctan core under N-refinement (fixed domain) and
L-refinement (fixed resolution).
"""

import warnings

import numpy as np

from pnedge import PhysParams, analytic_profile, build_grid, solve_static
from pnedge.potential import frenkel
from pnedge.profile import Profile
from pnedge.static import center_profile


def solve_error(params, L_over_zeta, N):
    """Core error of the centred solve and the number of warnings it raised."""
    grid = build_grid(L_over_zeta * params.zeta, N)
    init = Profile(grid=grid, params=params, zeta_bg=2 * params.zeta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, centered = center_profile(solve_static(init, frenkel(params)).profile)
    exact = analytic_profile(grid, params)
    mask = np.abs(grid.x) <= 20 * params.zeta
    return float(np.max(np.abs(centered.u1 - exact.u1)[mask])), len(caught)


def main():
    params = PhysParams()
    print("# N-refinement at L = 100 zeta")
    print(f"{'N':>6} {'err':>12} {'warnings':>8}")
    for N in (128, 256, 512, 1024, 2048):
        err, n_warn = solve_error(params, 100, N)
        print(f"{N:6d} {err:12.4e} {n_warn:8d}")

    print("\n# L-refinement at fixed resolution h")
    print(f"{'L/zeta':>8} {'N':>6} {'err':>12} {'order':>7} {'warnings':>8}")
    prev = None
    for L_over, N in ((25, 512), (50, 1024), (100, 2048), (200, 4096)):
        err, n_warn = solve_error(params, L_over, N)
        order = f"{np.log2(prev / err):7.2f}" if prev else "      -"
        print(f"{L_over:8d} {N:6d} {err:12.4e} {order} {n_warn:8d}")
        prev = err


if __name__ == "__main__":
    main()
