"""chebbvp: constant-coefficient linear BVPs by Chebyshev spectral integration.

Solves L u = f on [-1, 1] (or piecewise on any interval) for operators
given as products of real linear and quadratic factors in d/dy.  Working in
the integrated form keeps every coefficient-space system banded, and
fitting boundary conditions as a final small combination keeps the method
accurate through thin boundary layers, even when the banded systems are
spectacularly ill-conditioned.

The package root exports the library API; the building blocks (banded
factors and solves, chain solves, the boundary fit, coefficient
integration) are imported from their modules.
"""

from . import diffmat, factored, integration
from .banded import SingularSystemError
from .chebyshev import ChebCoeffs, GridValues, cheb_points, eval_series, to_coeffs, to_values
from .diagnostics import SpectrumReport, dense_export, singular_spectrum
from .diffmat import AffineConvectionOp
from .factored import BoundaryCondition, OperatorFactorization, Solution, solve_bvp
from .integration import FirstOrderOp, SecondOrderOp
from .piecewise import (
    PiecewiseGrid,
    PiecewiseSolution,
    overshoot,
    piecewise_solve_diffmat,
    piecewise_solve_spectral,
    sample_piecewise,
)
from .problems import ProblemSpec, load_problem, parse_problem

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the solver's caches and release their memory.

    These are the banded factorizations of both factor orders, the diffmat
    endpoint rows and the homogeneous basis.  The next solve rebuilds what
    it needs, so its results are unchanged.
    """
    integration._first_order_factorization.cache_clear()
    integration._second_order_factorization.cache_clear()
    diffmat.diff_endpoint_row.cache_clear()
    factored.homogeneous_basis.cache_clear()


__all__ = [
    "AffineConvectionOp",
    "BoundaryCondition",
    "ChebCoeffs",
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
    "cheb_points",
    "clear_caches",
    "dense_export",
    "eval_series",
    "load_problem",
    "overshoot",
    "parse_problem",
    "piecewise_solve_diffmat",
    "piecewise_solve_spectral",
    "sample_piecewise",
    "singular_spectrum",
    "solve_bvp",
    "to_coeffs",
    "to_values",
]
