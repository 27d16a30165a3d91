"""The package root: the library API it exports, its one cache clear, and how its types compare."""

import copy
import importlib

import numpy as np
import pytest

import chebbvp
from chebbvp import banded, chebyshev, cli, diffmat, factored, integration

LIBRARY_API = {
    # problem types
    "OperatorFactorization", "FirstOrderOp", "SecondOrderOp", "AffineConvectionOp", "BoundaryCondition",
    "PiecewiseGrid", "ChebCoeffs", "GridValues", "ProblemSpec",
    # entry points
    "solve_bvp", "piecewise_solve_spectral", "piecewise_solve_diffmat", "parse_problem", "load_problem",
    # results and their readers
    "Solution", "PiecewiseSolution", "SingularSystemError", "to_values", "to_coeffs", "eval_series", "cheb_points",
    "sample_piecewise", "overshoot",
    # the fig. 2 spectrum
    "dense_export", "singular_spectrum", "SpectrumReport",
    # the solver caches
    "clear_caches",
}

# building blocks that live in their modules only, as "module.name"
MODULE_ONLY = [
    "banded.BandedFactorization",
    "banded.BandedMatrix",
    "banded.banded_factor",
    "banded.banded_solve",
    "chebyshev.ChebGrid",
    "chebyshev.dense_sample",
    "chebyshev.double_integrate_coeffs",
    "chebyshev.function_to_coeffs",
    "chebyshev.integrate_coeffs",
    "diagnostics.condition_vs_parameter",
    "diagnostics.jacobi_svd",
    "diagnostics.spectrum_csv",
    "diffmat.diff_endpoint_row",
    "factored.fit_boundary",
    "factored.solve_chains",
    "integration.first_order_particular",
    "integration.second_order_particular",
    "piecewise.eval_piecewise",
    "problems.exact_function",
]

CACHES = (
    integration._first_order_factorization,
    integration._second_order_factorization,
    diffmat.diff_endpoint_row,
    factored.homogeneous_basis,
)


def test_root_exports_the_library_api():
    assert len(chebbvp.__all__) == len(LIBRARY_API) == 27
    assert set(chebbvp.__all__) == LIBRARY_API
    for name in chebbvp.__all__:
        assert getattr(chebbvp, name).__module__.startswith("chebbvp")


@pytest.mark.parametrize("qualname", MODULE_ONLY)
def test_lives_in_its_module_only(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"chebbvp.{module}"), name))
    assert name not in chebbvp.__all__
    assert not hasattr(chebbvp, name)


def test_clear_caches_empties_every_solver_cache():
    op = factored.OperatorFactorization(
        linear=(integration.FirstOrderOp(3.0),), quadratic=(integration.SecondOrderOp(1.0, 2.0),)
    )
    bc = factored.BoundaryCondition
    chebbvp.solve_bvp(op, np.cos, [bc.dirichlet(-1, 0.0), bc.dirichlet(1, 0.0), bc.derivative(-1, 1, 0.0)], m=32)
    diffmat.diff_endpoint_row(32, 1)
    assert all(cache.cache_info().currsize > 0 for cache in CACHES)
    chebbvp.clear_caches()
    assert [cache.cache_info().currsize for cache in CACHES] == [0, 0, 0, 0]


OP = factored.OperatorFactorization(linear=(integration.FirstOrderOp(3.0),))
BAND = banded.BandedMatrix.from_diagonals(3, 1, 1, {0: np.ones(3)})
TABLE3 = chebbvp.parse_problem(cli.builtin_spec_text("table3.spec"))

# one value of each type that holds arrays, callables or such types
ARRAY_HOLDERS = {
    "ChebGrid": lambda: chebbvp.cheb_points(8),
    "GridValues": lambda: chebbvp.GridValues(4, np.ones(5)),
    "ChebCoeffs": lambda: chebbvp.ChebCoeffs.zeros(8),
    "BandedMatrix": lambda: BAND,
    "BandedFactorization": lambda: banded.banded_factor(BAND),
    "ChainSolution": lambda: factored.solve_chains(OP, chebyshev.function_to_coeffs(np.cos, 8)),
    "Solution": lambda: chebbvp.solve_bvp(OP, np.cos, [factored.BoundaryCondition.dirichlet(-1, 0.0)], m=8),
    "PiecewiseGrid": lambda: TABLE3.grid,
    "PiecewiseSolution": lambda: cli.run(TABLE3).solution,
    "SpectrumReport": lambda: chebbvp.singular_spectrum(chebbvp.dense_export(integration.FirstOrderOp(3.0), 8)),
    "RunReport": lambda: cli.run(TABLE3),
    "ProblemSpec": lambda: TABLE3,
    "Sweep": lambda: TABLE3.sweep,
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(name):
    x = ARRAY_HOLDERS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert x != copy.copy(x)
    hash(x)
