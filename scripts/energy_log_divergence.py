#!/usr/bin/env python3
"""Elastic energy of the core in growing boxes.

Prints E(R) together with the affine fit in ln R; the slope approaches
G b^2 / (4 pi (1 - nu)) as the window moves outward.
"""

import numpy as np

from pnedge import PhysParams, analytic_profile, build_grid
from pnedge.energy import elastic_energy_box, log_fit


def main():
    params = PhysParams()
    z = params.zeta
    grid = build_grid(400 * z, 4096)
    profile = analytic_profile(grid, params)

    radii = np.array([5, 10, 20, 40, 80, 160]) * z
    print(f"{'R/zeta':>8} {'E(R)':>12} {'dE/dlnR':>10}")
    energies = elastic_energy_box(profile, radii)
    slope, _, r2 = log_fit(radii[:4], energies[:4])
    prev = None
    for R, E in zip(radii, energies):
        local = f"{(E - prev[1]) / np.log(R / prev[0]):10.5f}" if prev else "         -"
        print(f"{R / z:8.0f} {E:12.6f} {local}")
        prev = (R, E)

    theory = params.G * params.b**2 / (4 * np.pi * (1 - params.nu))
    print(f"\nfit over R = 5..40 zeta: slope = {slope:.6f}, R^2 = {r2:.6f}")
    print(f"far-field slope G b^2/(4 pi (1-nu)) = {theory:.6f}")


if __name__ == "__main__":
    main()
