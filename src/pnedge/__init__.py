"""Spectral solver for the Peierls-Nabarro model of an edge dislocation.

Two linear-elastic half-planes are coupled through a periodic misfit
potential on the slip plane.  The package solves the reduced nonlocal
equation for the slip-plane displacement, extends it to equilibrium
fields in the half-planes, evaluates the model's energies in the
perturbed sense, and integrates the gradient-flow dynamics, all
validated against the closed-form arctan core of the sinusoidal
potential.
"""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .dynamics import (
    DynamicsState,
    DynamicsTrace,
    dissipation_rate,
    free_energy,
    run_dynamics,
    step_etd,
    step_semi_implicit,
)
from .energy import (
    BoxQuadrature,
    EnergyBreakdown,
    Perturbation,
    elastic_energy_box,
    energy_breakdown,
    misfit_energy,
    reduced_perturbed_energy,
    seeded_perturbations,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    MonotonicityWarning,
    TailWarning,
    TimeStepUnderflowError,
)
from .extension import (
    YLevels,
    analytic_fields,
    dtn_traction,
    extend_to_half_planes,
    stress_field,
)
from .grid import Grid1D, build_grid
from .operators import (
    apply_half_laplacian,
    hs_seminorm_analytic,
    hs_seminorm_grid,
    spectral_derivative,
)
from .params import PhysParams
from .potential import PotentialSpec, eval_potential, frenkel, from_csv, validate_potential
from .profile import Profile, analytic_profile, tanh_profile
from .static import (
    ResidualField,
    StaticState,
    burgers_density,
    center_profile,
    decay_coefficients,
    rebase_center,
    residual,
    solve_static,
    zero_crossing,
)
from .validation import CheckResult, run_validation
