"""Septic Hermite collocation solver for the 1D heat conduction equation.

The spatial discretization collocates degree-7 piecewise Hermite elements
at six shifted Legendre or Chebyshev roots per element; time integration is
Crank-Nicolson.  See README.md for a tour and demos/ for worked examples.
"""

from .basis import (
    chebyshev_rule,
    hermite_first_derivs,
    hermite_second_derivs,
    hermite_values,
    legendre_rule,
)
from .problem import ProblemSpec, build_mesh, control_problem
from .linalg import SingularMatrix, band_lu_factor
from .assembly import assemble_crank_nicolson
from .solver import (
    NonIntegralStepCount,
    RunConfig,
    evaluate,
    evaluate_derivatives,
    initial_coefficients,
    run,
    step,
)
from .experiments import (
    TABLE_IDS,
    MissingExactSolution,
    convergence_order,
    error_norms,
    run_table,
    table_spec,
)

__version__ = "0.1.0"

__all__ = [
    # workflow
    "ProblemSpec",
    "control_problem",
    "build_mesh",
    "legendre_rule",
    "chebyshev_rule",
    "RunConfig",
    "run",
    "evaluate",
    "evaluate_derivatives",
    "error_norms",
    "convergence_order",
    "run_table",
    "table_spec",
    "TABLE_IDS",
    # shape functions
    "hermite_values",
    "hermite_first_derivs",
    "hermite_second_derivs",
    # stepping by hand
    "assemble_crank_nicolson",
    "band_lu_factor",
    "initial_coefficients",
    "step",
    # exceptions
    "SingularMatrix",
    "NonIntegralStepCount",
    "MissingExactSolution",
]
