"""chebbvp: constant-coefficient linear BVPs by Chebyshev spectral integration.

Solves L u = f on [-1, 1] (or piecewise on any interval) for operators
given as products of real linear and quadratic factors in d/dy.  Working in
the integrated form keeps every coefficient-space system banded, and
fitting boundary conditions as a final small combination keeps the method
accurate through thin boundary layers, even when the banded systems are
spectacularly ill-conditioned.
"""

from .banded import (
    BandedFactorization,
    BandedMatrix,
    SingularSystemError,
    banded_factor,
    banded_solve,
)
from .chebyshev import (
    ChebCoeffs,
    ChebGrid,
    GridValues,
    cheb_points,
    dense_sample,
    double_integrate_coeffs,
    eval_series,
    function_to_coeffs,
    integrate_coeffs,
    to_coeffs,
    to_values,
)
from .diagnostics import (
    SpectrumReport,
    condition_vs_parameter,
    dense_export,
    jacobi_svd,
    singular_spectrum,
    spectrum_csv,
)
from .diffmat import AffineConvectionOp, diff_endpoint_row
from .factored import (
    BoundaryCondition,
    OperatorFactorization,
    Solution,
    fit_boundary,
    solve_bvp,
    solve_chains,
)
from .integration import (
    FirstOrderOp,
    SecondOrderOp,
    first_order_particular,
    second_order_particular,
)
from .piecewise import (
    PiecewiseGrid,
    PiecewiseSolution,
    overshoot,
    piecewise_solve_diffmat,
    piecewise_solve_spectral,
    sample_piecewise,
)
from .problems import ProblemSpec, exact_function, load_problem, parse_problem

__version__ = "0.1.0"

__all__ = [
    "AffineConvectionOp",
    "BandedFactorization",
    "BandedMatrix",
    "BoundaryCondition",
    "ChebCoeffs",
    "ChebGrid",
    "FirstOrderOp",
    "GridValues",
    "OperatorFactorization",
    "PiecewiseGrid",
    "PiecewiseSolution",
    "ProblemSpec",
    "SecondOrderOp",
    "SingularSystemError",
    "Solution",
    "SpectrumReport",
    "banded_factor",
    "banded_solve",
    "cheb_points",
    "condition_vs_parameter",
    "dense_export",
    "dense_sample",
    "diff_endpoint_row",
    "double_integrate_coeffs",
    "eval_series",
    "exact_function",
    "first_order_particular",
    "fit_boundary",
    "function_to_coeffs",
    "integrate_coeffs",
    "jacobi_svd",
    "load_problem",
    "overshoot",
    "parse_problem",
    "piecewise_solve_diffmat",
    "piecewise_solve_spectral",
    "sample_piecewise",
    "second_order_particular",
    "singular_spectrum",
    "solve_bvp",
    "solve_chains",
    "spectrum_csv",
    "to_coeffs",
    "to_values",
]
