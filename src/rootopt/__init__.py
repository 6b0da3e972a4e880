"""Branched-transport irrigation plans coupled to a semilinear harvest PDE.

The package plans cheap root networks for discrete measures under the
concave flux cost sum(flux**alpha * length), solves the associated harvest
equation and its adjoint on a rectangle, and runs gradient ascent on atom
masses toward measures satisfying first-order optimality.
"""

from .core import (Atom, DiscreteMeasure, Domain, Grid, GrowthFunction,
                   RunConfig, SolverError, ValidationError, mass_bound_check)
from .elliptic import (bilinear_interpolate, growth_bound_lambda, harvest,
                       laplacian_matrix, lump_measure, phi_field,
                       quadrature_weights, solve_adjoint, solve_state)
from .irrigation import (IrrigationTree, brute_force_plan, check_arc_chord,
                         check_landscape_holder, compute_fluxes,
                         cost_lower_bound, irrigation_cost, landscape,
                         optimize_plan, star_tree)
from .optimality import (ascend_measure, optimality_residual,
                         path_inequality_check, payoff,
                         support_density_report)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "DiscreteMeasure",
    "Domain",
    "Grid",
    "GrowthFunction",
    "RunConfig",
    "SolverError",
    "ValidationError",
    "mass_bound_check",
    "bilinear_interpolate",
    "growth_bound_lambda",
    "harvest",
    "laplacian_matrix",
    "lump_measure",
    "phi_field",
    "quadrature_weights",
    "solve_adjoint",
    "solve_state",
    "IrrigationTree",
    "brute_force_plan",
    "check_arc_chord",
    "check_landscape_holder",
    "compute_fluxes",
    "cost_lower_bound",
    "irrigation_cost",
    "landscape",
    "optimize_plan",
    "star_tree",
    "ascend_measure",
    "optimality_residual",
    "path_inequality_check",
    "payoff",
    "support_density_report",
    "__version__",
]
