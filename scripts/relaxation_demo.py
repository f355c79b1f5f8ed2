#!/usr/bin/env python3
"""Gradient-flow relaxation of a perturbed core.

Starts from the static core plus a Gaussian bump and reports the free
energy, dissipation and residual as the profile relaxes back.
"""

import numpy as np

from pnedge import RunConfig
from pnedge.config import dynamics_start, run_setup
from pnedge.dynamics import run_dynamics, step_semi_implicit
from pnedge.static import center_profile


def main():
    cfg = RunConfig()  # defaults: a 0.1 b bump of width zeta on [-200 zeta, 200 zeta), N = 4096
    params, grid, spec = run_setup(cfg)
    z = params.zeta
    s0 = dynamics_start(cfg, grid, params, spec)
    ref = s0.reference.profile

    state, trace = run_dynamics(s0, cfg.dynamics_T_end, step_semi_implicit)
    arr = trace.as_arrays()
    print(f"{'t':>7} {'F':>12} {'Q':>12} {'residual':>12}")
    for k in range(0, len(arr["times"]), 50):
        print(f"{arr['times'][k]:7.1f} {arr['F_values'][k]:12.4e} "
              f"{arr['Q_values'][k]:12.4e} {arr['residual_norms'][k]:12.4e}")

    shift, centered = center_profile(state.p)
    err = np.max(np.abs(centered.u1 - ref.u1)[np.abs(grid.x) <= 20 * z])
    print(f"\ncore drift: {shift:.4f}  |u1 - u1*|_inf after centering: {err:.3e}")
    print(f"energy monotone: {bool(np.all(np.diff(arr['F_values']) <= 1e-10))}")


if __name__ == "__main__":
    main()
