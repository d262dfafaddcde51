"""Axisymmetric flow with swirl outside a cylinder: solver and estimate harness."""

__version__ = "0.1.0"

from .config import SolverConfig
from .elliptic import EllipticSolver, commutation_check, semigroup_decay_fit
from .evolution import (
    Stepper,
    drift_diffusion_run,
    picard_iterate,
    run_simulation,
)
from .fields import (
    AxisymState,
    ScalarField,
    checkpoint_load,
    checkpoint_save,
    make_initial_data,
)
from .grid import Grid, build_grid, lp_norm, weighted_integral

__all__ = [
    "AxisymState",
    "EllipticSolver",
    "Grid",
    "ScalarField",
    "SolverConfig",
    "Stepper",
    "build_grid",
    "checkpoint_load",
    "checkpoint_save",
    "commutation_check",
    "drift_diffusion_run",
    "lp_norm",
    "make_initial_data",
    "picard_iterate",
    "run_simulation",
    "semigroup_decay_fit",
    "weighted_integral",
    "__version__",
]
