#!/usr/bin/env python3
"""Gradient-flow relaxation of a perturbed core.

Starts from the static core plus a Gaussian bump and reports the free
energy, dissipation and residual as the profile relaxes back, at every
5 time units (the first accepted step at or past each), then the run's
step counts and the end offset of the core.
"""

import numpy as np

from pnedge import RunConfig
from pnedge.config import dynamics_start, run_setup
from pnedge.dynamics import run_dynamics, step_semi_implicit
from pnedge.static import center_profile, zero_crossing


def main():
    cfg = RunConfig()  # defaults: a 0.1 b bump of width zeta on [-200 zeta, 200 zeta), N = 4096
    params, grid, spec = run_setup(cfg)
    z = params.zeta
    s0 = dynamics_start(cfg, grid, params, spec)
    ref = s0.reference.profile

    state, trace = run_dynamics(s0, cfg.dynamics_T_end, step_semi_implicit)
    arr = trace.as_arrays()
    print(f"{'t':>7} {'F':>12} {'Q':>12} {'residual':>12} {'dt':>9}")
    marks = np.arange(0.0, cfg.dynamics_T_end + 1e-9, 5.0)
    for k in np.unique(np.searchsorted(arr["times"], marks - 1e-9)):
        print(f"{arr['times'][k]:7.3f} {arr['F_values'][k]:12.4e} "
              f"{arr['Q_values'][k]:12.4e} {arr['residual_norms'][k]:12.4e} "
              f"{arr['dt_history'][k]:9.4f}")

    counts = trace.step_counts
    print(f"\nsteps: {counts['accepted']} accepted, {counts['error_rejected']} rejected "
          f"by their local error, {counts['F_halved']} halved by the F guard")
    offset = zero_crossing(state.p) - zero_crossing(ref)
    _, centered = center_profile(state.p)
    err = np.max(np.abs(centered.u1 - ref.u1)[np.abs(grid.x) <= 20 * z])
    print(f"end offset: {offset:.6f}  |u1 - u1*|_inf after centering: {err:.3e}")
    print(f"energy monotone: {bool(np.all(np.diff(arr['F_values']) <= 1e-10))}")


if __name__ == "__main__":
    main()
