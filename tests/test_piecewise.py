"""Piecewise grids: rescaling, both backends, continuity, paper tables 3 and 4."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chebbvp import piecewise as piecewise_module
from chebbvp.banded import SingularSystemError, _equilibrate_rows, dense_solve
from chebbvp.chebyshev import GridValues, apply_endpoint_row, endpoint_row, eval_series, to_coeffs
from chebbvp.cli import builtin_spec_text
from chebbvp.diffmat import AffineConvectionOp, diff_endpoint_row
from chebbvp.factored import BoundaryCondition, OperatorFactorization, solve_bvp
from chebbvp.integration import FirstOrderOp, SecondOrderOp
from chebbvp.piecewise import (
    PiecewiseSolution,
    PiecewiseGrid,
    eval_piecewise,
    overshoot,
    piecewise_solve_diffmat,
    piecewise_solve_spectral,
    rescale_operator,
    sample_piecewise,
)
from chebbvp.problems import parse_problem

D = BoundaryCondition.dirichlet
ZERO = lambda y: np.zeros_like(y)

A_LAYER = 1e6
LAYER_OP = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(A_LAYER)))
LAYER_BCS = [D(-1, 1.0), D(1, 2.0)]


def layer_exact(y):
    return 2.0 + np.expm1(A_LAYER * (y - 1)) / -np.expm1(-2 * A_LAYER)


def sup_error(sol, exact, refine=None):
    p, v = sample_piecewise(sol, per_interval=refine)
    return float(np.max(np.abs(v - exact(p))))


class TestRescale:
    def test_width_two_is_identity(self):
        op = OperatorFactorization(
            linear=(FirstOrderOp(3.0),), quadratic=(SecondOrderOp(1.5, -2.0),)
        )
        out, scale = rescale_operator(op, 2.0)
        assert out == op and scale == 1.0

    def test_linear_half_width(self):
        op = OperatorFactorization(linear=(FirstOrderOp(4.0),))
        out, scale = rescale_operator(op, 1.0)
        assert out.linear[0].a == 2.0 and scale == 0.5

    def test_quadratic_scaling(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(2.0, 8.0),))
        out, scale = rescale_operator(op, 1.0)
        assert out.quadratic[0] == SecondOrderOp(1.0, 2.0)
        assert scale == 0.25

    def test_manufactured_on_unit_interval(self):
        # (D^2 + 2) u = (2 - pi^2) sin(pi y) on [0, 1] via a single rescaled interval
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 2.0),))
        grid = PiecewiseGrid(np.array([0.0, 1.0]), (24,))
        f = lambda y: (2 - np.pi**2) * np.sin(np.pi * y)
        sol = piecewise_solve_spectral(op, f, grid, [D(-1, 0.0), D(1, 0.0)])
        assert sup_error(sol, lambda y: np.sin(np.pi * y), refine=2000) <= 1e-12


class TestSpectralBackend:
    def test_single_interval_reduces_bitwise(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(1.0, -3.0),))
        f = lambda y: np.cos(2 * y)
        bcs = [D(-1, 0.5), D(1, -0.25)]
        grid = PiecewiseGrid(np.array([-1.0, 1.0]), (22,))
        sol = piecewise_solve_spectral(op, f, grid, bcs)
        ref = solve_bvp(op, f, bcs, m=22)
        np.testing.assert_array_equal(sol.local_coeffs[0].a, ref.coeffs.a)
        np.testing.assert_array_equal(sol.constants[0], ref.constants)

    @pytest.mark.parametrize(
        "op, bcs",
        [
            (OperatorFactorization(linear=(FirstOrderOp(-40.0), FirstOrderOp(3.0))),
             [D(-1, 0.5), BoundaryCondition.derivative(1, 1, -2.0)]),
            (OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0), SecondOrderOp(2.0, 9.0))),
             [D(-1, 1.0), D(1, 0.0), BoundaryCondition.derivative(-1, 2, 0.5),
              BoundaryCondition.derivative(1, 1, 3.0)]),
        ],
        ids=["linear", "quadratic"],
    )
    def test_single_interval_general_path_matches_solve_bvp_bitwise(self, op, bcs):
        # the unit interval maps onto itself exactly (scale 1, rhs factor 1),
        # so the interface-free general path repeats solve_bvp's arithmetic
        f = lambda y: np.exp(y) * np.sin(3 * y)
        grid = PiecewiseGrid(np.array([-1.0, 1.0]), (1024,))
        sol = piecewise_solve_spectral(op, f, grid, bcs)
        ref = solve_bvp(op, f, bcs, m=1024)
        np.testing.assert_array_equal(sol.local_coeffs[0].a, ref.coeffs.a)
        np.testing.assert_array_equal(sol.constants, ref.constants[None, :])

    @pytest.mark.parametrize(
        "m1,m2,m3,node2,node3,paper",
        [
            (16, 4096, 32, 0.5, 0.99999, 4.07361e-11),
            (32, 128, 32, 0.999, 0.99999, 4.49718e-11),
            (32, 64, 32, 0.9999, 0.99999, 4.33247e-11),
            (32, 32, 32, 0.99995, 0.99999, 4.66069e-11),
        ],
    )
    def test_table3_rows(self, m1, m2, m3, node2, node3, paper):
        grid = PiecewiseGrid(np.array([-1.0, node2, node3, 1.0]), (m1, m2, m3))
        sol = piecewise_solve_spectral(LAYER_OP, ZERO, grid, LAYER_BCS)
        assert sup_error(sol, layer_exact) <= 100 * paper

    def test_96_points_match_8192(self):
        grid = PiecewiseGrid(np.array([-1.0, 0.99995, 0.99999, 1.0]), (32, 32, 32))
        sol = piecewise_solve_spectral(LAYER_OP, ZERO, grid, LAYER_BCS)
        assert sup_error(sol, layer_exact) <= 1e-9

    def test_quadratic_factor_interfaces(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 4.0),))
        f = lambda y: (4 - np.pi**2) * np.sin(np.pi * y)
        grid = PiecewiseGrid(np.array([-1.0, 0.2, 1.0]), (20, 20))
        sol = piecewise_solve_spectral(op, f, grid, [D(-1, 0.0), D(1, 0.0)])
        assert sup_error(sol, lambda y: np.sin(np.pi * y), refine=2000) <= 1e-11

    def test_mixed_third_order(self):
        op = OperatorFactorization(
            linear=(FirstOrderOp(1.0),), quadratic=(SecondOrderOp(2.0, 2.0),)
        )
        f = lambda y: ((2 - np.pi**2) * np.pi - 2 * np.pi) * np.cos(np.pi * y) + (
            -2 * np.pi**2 - (2 - np.pi**2)
        ) * np.sin(np.pi * y)
        bcs = [D(-1, 0.0), D(1, 0.0), BoundaryCondition.derivative(1, 1, -np.pi)]
        grid = PiecewiseGrid(np.array([-1.0, 0.3, 1.0]), (24, 24))
        sol = piecewise_solve_spectral(op, f, grid, bcs)
        assert sup_error(sol, lambda y: np.sin(np.pi * y), refine=2000) <= 1e-11

    def test_fourth_order_two_quadratics(self):
        op = OperatorFactorization(
            quadratic=(SecondOrderOp(0.0, -1.0), SecondOrderOp(1.0, 3.0),)
        )
        f = lambda y: -4 * np.cos(y) + 2 * np.sin(y)
        bcs = [
            D(-1, np.cos(1.0)),
            D(1, np.cos(1.0)),
            BoundaryCondition.derivative(-1, 1, np.sin(1.0)),
            BoundaryCondition.derivative(1, 1, -np.sin(1.0)),
        ]
        grid = PiecewiseGrid(np.array([-1.0, -0.1, 0.4, 1.0]), (16, 16, 16))
        sol = piecewise_solve_spectral(op, f, grid, bcs)
        assert sup_error(sol, np.cos, refine=2000) <= 1e-12

    def test_second_derivative_conditions_two_intervals(self):
        # (D^2 - 1)(D^2 - 4) u = f with u = sin(pi y) + y^3, u'' = -pi^2 sin(pi y) + 6 y
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0), SecondOrderOp(0.0, -4.0)))
        exact = lambda y: np.sin(np.pi * y) + y**3
        f = lambda y: (np.pi**4 + 5 * np.pi**2 + 4) * np.sin(np.pi * y) - 30 * y + 4 * y**3
        bcs = [
            D(-1, -1.0),
            D(1, 1.0),
            BoundaryCondition.derivative(-1, 2, -6.0),
            BoundaryCondition.derivative(1, 2, 6.0),
        ]
        grid = PiecewiseGrid(np.array([-1.0, 0.3, 1.0]), (24, 32))
        sol = piecewise_solve_spectral(op, f, grid, bcs)
        assert sup_error(sol, exact, refine=2000) <= 1e-12

    def test_refinement_sanity(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 2.0),))
        f = lambda y: (2 - np.pi**2) * np.sin(np.pi * y)
        bcs = [D(-1, 0.0), D(1, 0.0)]
        one = piecewise_solve_spectral(op, f, PiecewiseGrid(np.array([-1.0, 1.0]), (32,)), bcs)
        two = piecewise_solve_spectral(
            op, f, PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (32, 32)), bcs
        )
        ys = np.linspace(-1, 1, 101)
        diff = max(abs(eval_piecewise(one, y) - eval_piecewise(two, y)) for y in ys)
        assert diff <= 1e-9

    def test_interval_order_too_small(self):
        grid = PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (4, 32))
        with pytest.raises(ValueError, match="needs M >= 5, got 4"):
            piecewise_solve_spectral(LAYER_OP, ZERO, grid, LAYER_BCS)

    def test_non_integer_interval_order(self):
        with pytest.raises(ValueError, match="not an integer"):
            PiecewiseGrid(np.array([-1.0, 1.0]), (16.9,))

    def test_integral_float_interval_order(self):
        assert PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (16.0, np.float64(8.0))).orders == (16, 8)

    @pytest.mark.parametrize("nodes", [[-np.inf, 0.0, 1.0], [-1.0, 0.0, np.inf], [-1.0, np.nan, 1.0]])
    def test_non_finite_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseGrid(np.array(nodes), (16, 16))

    @pytest.mark.parametrize("nodes", [[-1e308, 1e308], [-1e308, -0.9e308, 0.95e308, 1e308]])
    def test_overflowing_interval_width_rejected(self, nodes):
        # the width overflows to inf; tier-1 turns the subtraction's RuntimeWarning into an error
        with pytest.raises(ValueError, match="^interval widths must be finite$"):
            PiecewiseGrid(np.array(nodes), (16,) * (len(nodes) - 1))

    def test_degenerate_nodes_reported(self):
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(0.0)))
        grid = PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (8, 8))
        bcs = [D(1, 0.0), D(1, 0.0)]
        with pytest.raises(SingularSystemError, match="unique"):
            piecewise_solve_spectral(op, ZERO, grid, bcs)


def matched_level_jumps(op, f, grid, sol):
    """Relative jumps of every matched chain-level functional at each node."""
    from chebbvp.chebyshev import ChebCoeffs
    from chebbvp.factored import solve_chains
    from chebbvp.piecewise import _interval_values

    r = op.order
    chains = []
    for i in range(grid.n_intervals):
        op_i, s = rescale_operator(op, grid.widths[i])
        fc = to_coeffs(_interval_values(f, grid, i))
        chains.append(solve_chains(op_i, ChebCoeffs(fc.m, fc.a * s)))

    def functional(chain, idx, j, endpoint):
        # chains missing from a level are exactly zero there
        if j in chain.levels:
            vals = [apply_endpoint_row(c, endpoint_row(c.m, endpoint, 0)) for c in chain.levels[j]]
        else:
            vals = [apply_endpoint_row(c, endpoint_row(c.m, endpoint, 1)) for c in chain.levels[j - 1]]
        assert 1 <= len(vals) <= r + 1
        return vals[0] + sum(sol.constants[idx, h] * v for h, v in enumerate(vals[1:]))

    jumps = []
    for i in range(grid.n_intervals - 1):
        for j in range(r):
            fl = (2 / grid.widths[i]) ** j * functional(chains[i], i, j, 1)
            fr = (2 / grid.widths[i + 1]) ** j * functional(chains[i + 1], i + 1, j, -1)
            jumps.append(abs(fl - fr) / max(abs(fl), abs(fr), 1.0))
    return jumps


class TestContinuity:
    def _value_jumps(self, sol, tol):
        _, vals = sample_piecewise(sol)
        unorm = np.max(np.abs(vals))
        for i in range(sol.grid.n_intervals - 1):
            jump = eval_series(sol.local_coeffs[i], 1.0) - eval_series(sol.local_coeffs[i + 1], -1.0)
            assert abs(jump) <= tol * unorm

    def test_table3_interfaces(self):
        grid = PiecewiseGrid(np.array([-1.0, 0.99995, 0.99999, 1.0]), (32, 32, 32))
        sol = piecewise_solve_spectral(LAYER_OP, ZERO, grid, LAYER_BCS)
        self._value_jumps(sol, 1e-10)
        assert max(matched_level_jumps(LAYER_OP, ZERO, grid, sol)) <= 1e-9

    def test_diffmat_interfaces(self):
        from chebbvp.chebyshev import to_values
        from chebbvp.diffmat import diff_endpoint_row

        grid = PiecewiseGrid(np.array([-1.0, 0.99995, 0.99999, 1.0]), (32, 32, 32))
        sol = piecewise_solve_diffmat(LAYER_OP, ZERO, grid, LAYER_BCS)
        self._value_jumps(sol, 1e-10)
        for i in range(2):
            wl, wr = grid.widths[i], grid.widths[i + 1]
            vl = to_values(sol.local_coeffs[i]).v
            vr = to_values(sol.local_coeffs[i + 1]).v
            rl, rr = diff_endpoint_row(32, 1), diff_endpoint_row(32, -1)
            jump = (2 / wl) * (rl @ vl) - (2 / wr) * (rr @ vr)
            rowscale = max((2 / wl) * np.abs(rl) @ np.abs(vl), (2 / wr) * np.abs(rr) @ np.abs(vr))
            assert abs(jump) <= 1e-9 * rowscale

    def test_smooth_problem_interfaces(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 4.0),))
        f = lambda y: (4 - np.pi**2) * np.sin(np.pi * y)
        grid = PiecewiseGrid(np.array([-1.0, -0.4, 0.1, 1.0]), (18, 18, 18))
        sol = piecewise_solve_spectral(op, f, grid, [D(-1, 0.0), D(1, 0.0)])
        self._value_jumps(sol, 1e-10)
        assert max(matched_level_jumps(op, f, grid, sol)) <= 1e-9


class TestEvalPiecewise:
    @pytest.fixture()
    def layer_solution(self):
        grid = PiecewiseGrid(np.array([-1.0, 0.99995, 0.99999, 1.0]), (32, 32, 32))
        return piecewise_solve_spectral(LAYER_OP, ZERO, grid, LAYER_BCS)

    def test_boundary_values(self, layer_solution):
        assert eval_piecewise(layer_solution, -1.0) == pytest.approx(1.0, abs=1e-10)
        assert eval_piecewise(layer_solution, 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_node_ties_agree_with_right_limit(self, layer_solution):
        node = 0.99995
        left = eval_piecewise(layer_solution, node)
        right = eval_series(layer_solution.local_coeffs[1], -1.0)
        assert left == pytest.approx(right, abs=1e-10)

    def test_interior_plateau(self, layer_solution):
        # ahead of the layer the solution sits at the no-flux plateau value 1
        assert eval_piecewise(layer_solution, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_outside_domain_rejected(self, layer_solution):
        with pytest.raises(ValueError, match="outside"):
            eval_piecewise(layer_solution, 1.5)

    def test_nan_rejected(self, layer_solution):
        with pytest.raises(ValueError, match="outside"):
            eval_piecewise(layer_solution, float("nan"))


@pytest.mark.parametrize(
    "solve", [piecewise_solve_spectral, piecewise_solve_diffmat], ids=["spectral", "diffmat"]
)
class TestIntervalRhs:
    OP = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0),))
    GRID = PiecewiseGrid(np.array([-1.0, 0.0, 0.5, 1.0]), (8, 10, 8))
    BCS = [D(-1, 0.0), D(1, 1.0)]

    def values(self, f):
        return [GridValues(m, f(self.GRID.interval_points(i))) for i, m in enumerate(self.GRID.orders)]

    def test_grid_values_match_callable_bitwise(self, solve):
        f = lambda y: np.cos(2 * y)
        ref = solve(self.OP, f, self.GRID, self.BCS)
        sol = solve(self.OP, self.values(f), self.GRID, self.BCS)
        for a, b in zip(sol.local_coeffs, ref.local_coeffs):
            np.testing.assert_array_equal(a.a, b.a)

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_grid_values_per_interval(self, solve, count):
        values = (self.values(np.cos) * 2)[:count]
        with pytest.raises(ValueError, match=f"got {count} right-hand sides for intervals 0 to 2"):
            solve(self.OP, values, self.GRID, self.BCS)

    def test_grid_values_on_the_interval_order(self, solve):
        values = self.values(np.cos)
        values[1] = GridValues(8, np.ones(9))
        with pytest.raises(ValueError, match=r"interval 1 right-hand side has shape \(9,\), expected \(11"):
            solve(self.OP, values, self.GRID, self.BCS)

    def test_callable_returns_one_value_per_point(self, solve):
        with pytest.raises(ValueError, match=r"interval 0 right-hand side has shape \(\), expected \(9,\)"):
            solve(self.OP, lambda y: 0.0, self.GRID, self.BCS)

    def test_arrays_in_place_of_grid_values(self, solve):
        arrays = [values.v for values in self.values(np.cos)]
        with pytest.raises(TypeError, match="^interval 0 right-hand side is ndarray, expected GridValues$"):
            solve(self.OP, arrays, self.GRID, self.BCS)


class TestDiffmatBackend:
    def test_operator_forms_agree_bitwise(self):
        # (D - 2)(D + 3) = D^2 + D - 6 exactly, and p u'' + q0 u' + r u with p = 1
        grid = PiecewiseGrid(np.array([-1.0, 0.2, 1.0]), (12, 16))
        f = lambda y: np.cos(3 * y)
        bcs = [D(-1, 0.5), BoundaryCondition.derivative(1, 1, -1.0)]
        forms = [
            OperatorFactorization(linear=(FirstOrderOp(2.0), FirstOrderOp(-3.0))),
            OperatorFactorization(quadratic=(SecondOrderOp(1.0, -6.0),)),
            AffineConvectionOp(1.0, 0.0, 1.0, -6.0),
        ]
        ref, *others = [piecewise_solve_diffmat(op, f, grid, bcs) for op in forms]
        for sol in others:
            for a, b in zip(sol.local_coeffs, ref.local_coeffs):
                np.testing.assert_array_equal(a.a, b.a)

    def test_linear_solution_exact(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        grid = PiecewiseGrid(np.array([-1.0, 0.3, 1.0]), (8, 8))
        sol = piecewise_solve_diffmat(op, ZERO, grid, [D(-1, 0.0), D(1, 1.0)])
        assert sup_error(sol, lambda y: (y + 1) / 2, refine=2000) <= 1e-13

    def test_table3_last_row(self):
        grid = PiecewiseGrid(np.array([-1.0, 0.99995, 0.99999, 1.0]), (32, 32, 32))
        sol = piecewise_solve_diffmat(LAYER_OP, ZERO, grid, LAYER_BCS)
        assert sup_error(sol, layer_exact) <= 100 * 8.507683e-11

    def test_backend_agreement(self):
        grid = PiecewiseGrid(np.array([-1.0, 0.9999, 0.99999, 1.0]), (32, 64, 32))
        e1 = sup_error(piecewise_solve_spectral(LAYER_OP, ZERO, grid, LAYER_BCS), layer_exact)
        e2 = sup_error(piecewise_solve_diffmat(LAYER_OP, ZERO, grid, LAYER_BCS), layer_exact)
        assert max(e1, e2) <= 10 * max(min(e1, e2), 1e-12)

    def test_neumann_condition(self):
        # u'' = 2 with u(-1) = 1, u'(1) = 2: u = y^2 + c y, c = 0 from u'(1)=2 -> u = y^2
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        grid = PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (8, 8))
        bcs = [D(-1, 1.0), BoundaryCondition.derivative(1, 1, 2.0)]
        sol = piecewise_solve_diffmat(op, lambda y: np.full_like(y, 2.0), grid, bcs)
        assert sup_error(sol, lambda y: y**2, refine=2000) <= 1e-12

    def test_both_conditions_at_one_end(self):
        # u'' = 2 with u(-1) = 1, u'(-1) = -2: u = y^2
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        grid = PiecewiseGrid(np.array([-1.0, -0.2, 1.0]), (8, 10))
        bcs = [D(-1, 1.0), BoundaryCondition.derivative(-1, 1, -2.0)]
        sol = piecewise_solve_diffmat(op, lambda y: np.full_like(y, 2.0), grid, bcs)
        assert sup_error(sol, lambda y: y**2, refine=2000) <= 1e-12

    def test_singular_system_reported(self):
        # u'' = 0 with u'(-1) = u'(1) = 0 leaves the constant free
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        grid = PiecewiseGrid(np.array([-1.0, 1.0]), (2,))
        bcs = [BoundaryCondition.derivative(-1, 1, 0.0), BoundaryCondition.derivative(1, 1, 0.0)]
        with pytest.raises(SingularSystemError, match="dense system is exactly singular"):
            piecewise_solve_diffmat(op, ZERO, grid, bcs)

    @pytest.mark.parametrize("orders", [(4097,), (16, 4096, 4096), (4096, 4096, 4096)])
    def test_system_size_checked_before_allocating(self, orders):
        grid = PiecewiseGrid(np.linspace(-1.0, 1.0, len(orders) + 1), orders)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limited to m <= 4096 per interval and 8193 unknowns"):
                piecewise_solve_diffmat(LAYER_OP, ZERO, grid, LAYER_BCS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rhs_checked_before_allocating(self):
        # a callable returning a scalar fails before the 4113 x 4113 system exists
        grid = PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (16, 4096))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"interval 0 right-hand side has shape \(\), expected \(17,\)"):
                piecewise_solve_diffmat(LAYER_OP, lambda y: 0.0, grid, LAYER_BCS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_two_blocks(self):
        # the system, factored in place, and O(64 m) temporaries: no block-sized D or copy
        m = 2048
        grid = PiecewiseGrid(np.array([-1.0, 1.0]), (m,))
        tracemalloc.start()
        try:
            piecewise_solve_diffmat(LAYER_OP, ZERO, grid, LAYER_BCS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * (m + 1) ** 2

    def test_rejects_higher_order(self):
        op = OperatorFactorization(
            quadratic=(SecondOrderOp(0.0, 1.0), SecondOrderOp(0.0, 2.0))
        )
        grid = PiecewiseGrid(np.array([-1.0, 1.0]), (8,))
        with pytest.raises(ValueError, match="order 2"):
            piecewise_solve_diffmat(op, ZERO, grid, [D(-1, 0.0), D(1, 0.0)])


TABLE4 = parse_problem(builtin_spec_text("table4.spec"))


def table4_grid(m, node4):
    """Grid of the table-4 [sweep] row with order m and node 4 at node4 * sqrt(eps)."""
    (grid,) = [g for label, g in TABLE4.sweep.rows if label == f"{m},{node4:g}*sqrt(eps)"]
    return grid


def solve_table4(m, node4):
    return piecewise_solve_diffmat(TABLE4.operator, TABLE4.rhs, table4_grid(m, node4), list(TABLE4.bcs))


class TestInternalLayer:
    def test_table4_row1_overshoot(self):
        assert overshoot(solve_table4(32, 5.0), -1.0, 1.0, samples=10000) <= 1e-12

    @pytest.mark.parametrize("m,node4,paper", [(32, 3.0, 1.2e-08), (32, 7.0, 8.6e-09)])
    def test_table4_other_rows_same_scale(self, m, node4, paper):
        # node placement away from the optimum costs ~6 orders; stay within 100x of the paper
        assert overshoot(solve_table4(m, node4), -1.0, 1.0, samples=10000) <= 100 * paper

    def test_profile_matches_erf(self):
        assert sup_error(solve_table4(32, 5.0), TABLE4.exact) <= 1e-6

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_table4_row1_independent_of_blas_threads(self, threads):
        # the threaded LU picks its own elimination order; each thread count
        # runs in a fresh interpreter because OpenBLAS reads it at load time
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", ROW1_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert got["overshoot"] <= 1e-12
        # 2.0e-11 at either thread count; a solve on the raw row scales
        # loses digits here, and which ones depends on the thread count
        assert got["error"] <= 1e-10

    def _row1_system(self, monkeypatch):
        """Grid and the (equilibrated) system that dense_solve hands to LAPACK's LU."""
        systems = []

        def solve(a, b):
            systems.append((a.copy(), b.copy()))
            return dense_solve(a, b)

        monkeypatch.setattr(piecewise_module, "dense_solve", solve)
        solve_table4(32, 5.0)
        monkeypatch.undo()
        (a, b), = systems
        _equilibrate_rows(a, b)
        return table4_grid(32, 5.0), a, b

    @staticmethod
    def _exact_solve(mp, a, b):
        # refinement with 40-digit residuals converges to the exact solution
        # of the double-precision system
        rows = [[mp.mpf(v) for v in r] for r in a]
        rhs = [mp.mpf(v) for v in b]
        x = [mp.mpf(v) for v in np.linalg.solve(a, b)]
        with mp.workdps(40):
            for _ in range(8):
                r = np.array([float(rhs[k] - mp.fdot(rows[k], x)) for k in range(len(x))])
                dx = np.linalg.solve(a, r)
                x = [u + mp.mpf(d) for u, d in zip(x, dx)]
                if np.max(np.abs(dx)) <= 1e-30:
                    return np.array([float(u) for u in x])
        raise AssertionError("refinement did not converge")

    @staticmethod
    def _overshoots(grid, x):
        """Overshoot of the nodal values and of the stored series; x ascends in y."""
        vals = [x[32 * i : 32 * i + 33][::-1] for i in range(5)]
        sol = PiecewiseSolution(grid, tuple(to_coeffs(GridValues(32, v)) for v in vals))
        return max(0.0, np.max(x - 1.0), np.max(-1.0 - x)), overshoot(sol, -1.0, 1.0, samples=10000)

    def test_table4_row1_bound_holds_for_the_exact_discrete_solution(self, monkeypatch):
        mp = pytest.importorskip("mpmath")
        grid, a, b = self._row1_system(monkeypatch)
        x_exact = self._exact_solve(mp, a, b)
        assert max(self._overshoots(grid, x_exact)) <= 1e-13
        pts = np.concatenate([grid.interval_points(i)[::-1][:-1] for i in range(5)] + [[1.0]])
        assert np.max(np.abs(x_exact - TABLE4.exact(pts))) <= 1e-11
        # rounding every entry once more (rows times factors in [1, 1.5)) moves nothing
        f = 1.0 + 0.5 * np.random.default_rng(0).random(len(b))
        x_perturbed = self._exact_solve(mp, a * f[:, None], b * f)
        assert max(self._overshoots(grid, x_perturbed)) <= 1e-13
        assert np.max(np.abs(x_perturbed - x_exact)) <= 1e-13
        # and the double-precision solve lands on it
        assert np.max(np.abs(np.linalg.solve(a, b) - x_exact)) <= 1e-12

    def test_table4_row1_strong_derivative_match_overshoots_in_exact_arithmetic(self, monkeypatch):
        mp = pytest.importorskip("mpmath")
        grid, a, b = self._row1_system(monkeypatch)
        # swap the four weak interface rows (the rows of the shared nodes)
        # for u_L'(b) - u_R'(b) = 0
        halves = grid.widths / 2
        for i in range(4):
            row = 32 * (i + 1)
            a[row] = 0.0
            a[row, 32 * i : 32 * i + 33] += diff_endpoint_row(32, 1)[::-1] / halves[i]
            a[row, 32 * i + 32 : 32 * i + 65] -= diff_endpoint_row(32, -1)[::-1] / halves[i + 1]
            b[row] = 0.0
        _equilibrate_rows(a, b)
        nodal, series = self._overshoots(grid, self._exact_solve(mp, a, b))
        assert nodal > 5e-12 and series > 2e-12


# table 4 row 1 from the shipped problem file and the CLI's table
ROW1_SCRIPT = """
import json
from chebbvp.cli import builtin_spec_text, reproduce_tables, run
from chebbvp.problems import parse_problem

row1 = reproduce_tables("4").splitlines()[1]
error = run(parse_problem(builtin_spec_text("table4.spec"))).error
print(json.dumps({"overshoot": float(row1.split(",")[-1]), "error": error}))
"""


class TestOvershoot:
    def test_exact_bounded_solution_has_none(self):
        from chebbvp.chebyshev import ChebCoeffs

        # u = (t + 3)/4 locally, i.e. the exact linear ramp of (y + 1)/2 on [0, 1]
        grid = PiecewiseGrid(np.array([0.0, 1.0]), (8,))
        sol = PiecewiseSolution(grid, (ChebCoeffs(8, [1.5, 0.25] + [0.0] * 7),))
        assert overshoot(sol, 0.0, 1.0, samples=2000) == 0.0

    def test_computed_linear_solution_at_roundoff(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        grid = PiecewiseGrid(np.array([0.0, 1.0]), (8,))
        sol = piecewise_solve_diffmat(op, ZERO, grid, [D(-1, 0.0), D(1, 1.0)])
        assert overshoot(sol, 0.0, 1.0, samples=2000) <= 1e-15

    def test_detects_excursion(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 2.0),))
        f = lambda y: (2 - np.pi**2) * np.sin(np.pi * y)
        grid = PiecewiseGrid(np.array([-1.0, 1.0]), (24,))
        sol = piecewise_solve_spectral(op, f, grid, [D(-1, 0.0), D(1, 0.0)])
        # sin peaks mid-interval, where the clustered sampling is coarsest
        assert overshoot(sol, -0.5, 0.5, samples=4000) == pytest.approx(0.5, abs=1e-4)

    def test_sample_floor_enforced(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        grid = PiecewiseGrid(np.array([0.0, 1.0]), (8,))
        sol = piecewise_solve_diffmat(op, ZERO, grid, [D(-1, 0.0), D(1, 1.0)])
        with pytest.raises(ValueError, match="samples"):
            overshoot(sol, 0.0, 1.0, samples=100)
