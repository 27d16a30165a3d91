"""Factored-form solver: chain examples, paper table values, cancellation."""

import itertools
import sys
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chebbvp import cache, clear_caches, factored, piecewise
from chebbvp.banded import SingularSystemError, dense_solve
from chebbvp.chebyshev import (
    to_coeffs,
    ChebCoeffs,
    GridValues,
    apply_endpoint_row,
    cheb_points,
    endpoint_row,
    function_to_coeffs,
    to_values,
)
from chebbvp.diffmat import AffineConvectionOp
from chebbvp.factored import (
    BoundaryCondition,
    OperatorFactorization,
    fit_boundary,
    homogeneous_basis,
    solve_bvp,
    solve_chains,
)
from chebbvp.integration import (
    FirstOrderOp,
    SecondOrderOp,
    _first_order_factorization,
    residual,
)
from chebbvp.piecewise import PiecewiseGrid, piecewise_solve_spectral


def grid_error(sol, exact):
    y = cheb_points(sol.coeffs.m).points
    return float(np.max(np.abs(to_values(sol.coeffs).v - exact(y))))


def dirichlet(end, val):
    return BoundaryCondition.dirichlet(end, val)


def chain_of(levels, h):
    """Levels of chain h (0: particular, h >= 1: homogeneous h) that exist."""
    return {k: row[h] for k, row in levels.items() if h < len(row)}


class TestParticularChain:
    def test_double_d_is_double_integral(self):
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(0.0)))
        levels = chain_of(solve_chains(op, ChebCoeffs.unit(12, 0)).levels, 0)
        expect = np.zeros(13)
        expect[2] = 0.25
        np.testing.assert_allclose(levels[0].a, expect, atol=1e-15)
        assert set(levels) == {0, 1}

    def test_levels_satisfy_links(self):
        op = OperatorFactorization(
            linear=(FirstOrderOp(1.0),), quadratic=(SecondOrderOp(2.0, -3.0),)
        )
        f = function_to_coeffs(lambda y: np.cos(2 * y), 24)
        levels = chain_of(solve_chains(op, f).levels, 0)
        assert set(levels) == {2, 0}
        res1 = residual(op.linear[0], levels[2], f)
        res2 = residual(op.quadratic[0], levels[0], levels[2])
        assert np.max(np.abs(res1)) <= 1e-13
        assert np.max(np.abs(res2)) <= 1e-13

    def test_manufactured_sin_through_two_linear_factors(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0), FirstOrderOp(-1.0)))
        # (D-1)(D+1) u = u'' - u; with u0 = sin(pi y): f = -(pi^2 + 1) sin(pi y)
        f = lambda y: -(np.pi**2 + 1) * np.sin(np.pi * y)
        sol = solve_bvp(op, f, [dirichlet(-1, 0.0), dirichlet(1, 0.0)], m=24)
        assert grid_error(sol, lambda y: np.sin(np.pi * y)) <= 1e-11


MIXED_OP = OperatorFactorization(
    linear=(FirstOrderOp(0.5), FirstOrderOp(-2.0)),
    quadratic=(SecondOrderOp(1.0, 4.0),),
)


class TestHomogeneousChain:
    def test_double_d_chains(self):
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(0.0)))
        levels = solve_chains(op, ChebCoeffs.zeros(12)).levels
        lv1 = chain_of(levels, 1)
        # level 1 is the constant 1/2; level 0 its integral with T_0 zeroed: T_1 / 2
        expect1 = np.zeros(13)
        expect1[0] = 1.0
        np.testing.assert_allclose(lv1[1].a, expect1, atol=1e-16)
        expect0 = np.zeros(13)
        expect0[1] = 0.5
        np.testing.assert_allclose(lv1[0].a, expect0, atol=1e-15)
        lv2 = chain_of(levels, 2)
        np.testing.assert_allclose(lv2[0].a, expect1, atol=1e-16)
        assert set(lv2) == {0}

    def test_single_quadratic_trivial(self):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 0.0),))
        _, u1, u2 = solve_chains(op, ChebCoeffs.zeros(10)).levels[0]
        half = np.zeros(11)
        half[0] = 1.0  # the function 1/2 in the stored convention
        np.testing.assert_allclose(u1.a, half, atol=1e-16)
        np.testing.assert_allclose(u2.a, ChebCoeffs.unit(10, 1).a, atol=1e-16)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_level_zero_annihilated_mixed_operator(self, h):
        op = MIXED_OP
        m = 32
        levels = chain_of(solve_chains(op, ChebCoeffs.zeros(m)).levels, h)
        chain_scale = max(np.max(np.abs(v.a)) for v in levels.values())
        # verify each link below the start, then homogeneity of the start
        mlin, r = 2, 4
        if h <= mlin:
            start_level = r - h
            assert min(levels) == 0 and max(levels) == start_level
            res = residual(op.linear[h - 1], levels[start_level], ChebCoeffs.zeros(m))
            assert np.max(np.abs(res)) <= 1e-12 * max(1.0, chain_scale)
            for j in range(h + 1, mlin + 1):
                res = residual(op.linear[j - 1], levels[r - j], levels[r - j + 1])
                assert np.max(np.abs(res)) <= 1e-12 * max(1.0, chain_scale)
            res = residual(op.quadratic[0], levels[0], levels[2])
        else:
            assert set(levels) == {0}
            res = residual(op.quadratic[0], levels[0], ChebCoeffs.zeros(m))
        assert np.max(np.abs(res)) <= 1e-12 * max(1.0, chain_scale)

    def test_levels_hold_the_chains_started_at_or_above(self):
        # linear(0.5) starts chain 1 at level 3, linear(-2) chain 2 at level
        # 2, and the quadratic chains 3 and 4 at level 0
        levels = solve_chains(MIXED_OP, function_to_coeffs(np.cos, 16)).levels
        assert {k: len(row) for k, row in levels.items()} == {3: 2, 2: 3, 0: 5}
        assert all(c.m == 16 for row in levels.values() for c in row)


class TestTable1:
    def test_table_1a(self):
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(-a),))
        sol = solve_bvp(op, lambda y: np.full_like(y, a), [dirichlet(-1, 0.0)], m=8192)
        err = grid_error(sol, lambda y: -np.expm1(-a * (y + 1)))
        assert err <= 100 * 3.81267e-11

    def test_table_1b(self):
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(-a),))
        sol = solve_bvp(
            op,
            lambda y: np.pi * np.cos(np.pi * y) + a * np.sin(np.pi * y),
            [dirichlet(-1, 0.0)],
            m=16,
        )
        assert grid_error(sol, lambda y: np.sin(np.pi * y)) <= 1e-12

    def test_table_1c(self):
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(a)))
        sol = solve_bvp(
            op, lambda y: np.zeros_like(y), [dirichlet(-1, 1.0), dirichlet(1, 2.0)], m=8192
        )
        exact = lambda y: 2.0 + np.expm1(a * (y - 1)) / -np.expm1(-2 * a)
        assert grid_error(sol, exact) <= 100 * 4.81313e-11

    def test_table_1d(self):
        c = 1e4
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, c),))
        sol = solve_bvp(
            op,
            lambda y: (-np.pi**2 + c) * np.sin(np.pi * y),
            [dirichlet(-1, 0.0), dirichlet(1, 0.0)],
            m=32,
        )
        assert grid_error(sol, lambda y: np.sin(np.pi * y)) <= 1e-12


def table_1e_exact(a, b):
    def phi(x, y):
        return (np.exp(x * (y - 1.0)) + np.exp(-x * (y + 1.0))) / (1.0 + np.exp(-2.0 * x))

    ta, tb = np.tanh(a), np.tanh(b)
    k = 1.0 / (b * tb - a * ta)
    return lambda y: 1.0 - b * tb * k * phi(a, y) + a * ta * k * phi(b, y)


def table_1e_bcs():
    return [
        dirichlet(-1, 0.0),
        dirichlet(1, 0.0),
        BoundaryCondition.derivative(-1, 1, 0.0),
        BoundaryCondition.derivative(1, 1, 0.0),
    ]


def fourth_order_ops(a, b):
    """(D-a)(D+a)(D-b)(D+b) as four linear factors and as two quadratic ones."""
    return (
        OperatorFactorization(linear=(FirstOrderOp(a), FirstOrderOp(-a), FirstOrderOp(b), FirstOrderOp(-b))),
        OperatorFactorization(quadratic=(SecondOrderOp(0.0, -a * a), SecondOrderOp(0.0, -b * b))),
    )


class TestTable1e:
    def test_both_factorizations(self):
        a, b = 1e6, 2e6
        rhs = lambda y: np.full_like(y, a * a * b * b)
        exact = table_1e_exact(a, b)
        op_lin, op_quad = fourth_order_ops(a, b)
        e1 = grid_error(solve_bvp(op_lin, rhs, table_1e_bcs(), m=16384), exact)
        e2 = grid_error(solve_bvp(op_quad, rhs, table_1e_bcs(), m=16384), exact)
        assert e1 <= 1e-7 and e2 <= 1e-7
        # factorization-order robustness: within 100x of each other
        assert max(e1, e2) <= 100 * max(min(e1, e2), 1e-12)

    def test_boundary_values_satisfied(self):
        a, b = 1e6, 2e6
        op = OperatorFactorization(
            quadratic=(SecondOrderOp(0.0, -a * a), SecondOrderOp(0.0, -b * b))
        )
        sol = solve_bvp(op, lambda y: np.full_like(y, a * a * b * b), table_1e_bcs(), m=16384)
        vals = to_values(sol.coeffs).v
        unorm = np.max(np.abs(vals))
        assert abs(vals[0]) <= 1e-10 * unorm
        assert abs(vals[-1]) <= 1e-10 * unorm


# (D^2 - 1)(D^2 - 4) u = f for the manufactured u = sin(pi y) + y^3
MANUFACTURED_OP = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0), SecondOrderOp(0.0, -4.0)))
MANUFACTURED = {  # derivative order -> u^(order)
    0: lambda y: np.sin(np.pi * y) + y**3,
    1: lambda y: np.pi * np.cos(np.pi * y) + 3 * y**2,
    2: lambda y: -np.pi**2 * np.sin(np.pi * y) + 6 * y,
    3: lambda y: -np.pi**3 * np.cos(np.pi * y) + 6,
}


def manufactured_f(y):
    return (np.pi**4 + 5 * np.pi**2 + 4) * np.sin(np.pi * y) - 30 * y + 4 * y**3


class TestHighOrderConditions:
    """u'' and u''' conditions are read from order-0/1 endpoint values of the chain levels, at any M."""

    @pytest.mark.parametrize("m", [8192, 65536])
    @pytest.mark.parametrize("factorization", ["linear", "quadratic"])
    def test_second_derivative_conditions_at_large_m(self, m, factorization):
        a, b = 1e5, 2e5
        ta, tb = np.tanh(a), np.tanh(b)
        # cosh_pair has phi_x'' = x^2 phi_x and phi_x(+-1) = 1
        upp = a * b * (b * ta - a * tb) / (b * tb - a * ta)
        bcs = [
            dirichlet(-1, 0.0),
            dirichlet(1, 0.0),
            BoundaryCondition.derivative(-1, 2, upp),
            BoundaryCondition.derivative(1, 2, upp),
        ]
        op = fourth_order_ops(a, b)[factorization == "quadratic"]
        sol = solve_bvp(op, lambda y: np.full_like(y, a * a * b * b), bcs, m=m)
        assert grid_error(sol, table_1e_exact(a, b)) <= 1e-9

    # The factors reduce u''' to order-0/1 reads of the chain levels, whose
    # endpoint weights grow like M^2 at most, so rounding in the chains'
    # highest coefficients stays at the fit's rounding level (2.2e-14 at
    # M = 65536).  Read through T_n'''(+-1) ~ n^6/15 it reached 1.3e-7 there.
    @pytest.mark.parametrize("m", [8192, 65536])
    @pytest.mark.parametrize("factorization", ["linear", "quadratic"])
    @pytest.mark.parametrize("low_order", [0, 1, 2])
    def test_third_derivative_conditions_at_large_m(self, low_order, factorization, m):
        bcs = [
            BoundaryCondition.derivative(end, order, MANUFACTURED[order](end))
            for order in (low_order, 3)
            for end in (-1, 1)
        ]
        op = fourth_order_ops(1.0, 2.0)[factorization == "quadratic"]
        sol = solve_bvp(op, manufactured_f, bcs, m=m)
        assert grid_error(sol, MANUFACTURED[0]) <= 1e-13


class TestCancellation:
    """Errors in chain intermediates cancel in the boundary-fitted combination."""

    def test_greens_function_independence(self):
        for a in (1e2, 1e4, 1e6):
            op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -a * a),))
            sol = solve_bvp(
                op,
                lambda y: -(np.pi**2 + a * a) * np.sin(np.pi * y),
                [dirichlet(-1, 0.0), dirichlet(1, 0.0)],
                m=32,
            )
            assert grid_error(sol, lambda y: np.sin(np.pi * y)) <= 1e-10

    def test_particular_alone_is_wrong_but_combination_is_right(self):
        a = 1e6
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -a * a),))
        f = function_to_coeffs(lambda y: -(np.pi**2 + a * a) * np.sin(np.pi * y), 30)
        part = solve_chains(op, f).levels[0][0]
        part_err = np.max(np.abs(to_values(part).v - np.sin(np.pi * cheb_points(30).points)))
        assert part_err > 0.1  # under integral conditions the particular solution is O(1) off
        sol = solve_bvp(op, f, [dirichlet(-1, 0.0), dirichlet(1, 0.0)])
        assert grid_error(sol, lambda y: np.sin(np.pi * y)) <= 1e-12

    def test_over_resolution_robustness(self):
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(-a),))
        rhs = lambda y: np.pi * np.cos(np.pi * y) + a * np.sin(np.pi * y)
        exact = lambda y: np.sin(np.pi * y)
        e_small = grid_error(solve_bvp(op, rhs, [dirichlet(-1, 0.0)], m=16), exact)
        e_big = grid_error(solve_bvp(op, rhs, [dirichlet(-1, 0.0)], m=1024), exact)
        assert e_big <= 1e3 * max(e_small, 5e-16)


class TestSolveBvp:
    def test_zero_problem(self):
        op = OperatorFactorization(linear=(FirstOrderOp(2.0), FirstOrderOp(-1.0)))
        sol = solve_bvp(op, lambda y: np.zeros_like(y), [dirichlet(-1, 0.0), dirichlet(1, 0.0)], m=16)
        np.testing.assert_allclose(sol.coeffs.a, 0.0, atol=1e-14)
        np.testing.assert_allclose(sol.constants, 0.0, atol=1e-14)

    def test_manufactured_third_order_mixed(self):
        op = OperatorFactorization(
            linear=(FirstOrderOp(1.0),), quadratic=(SecondOrderOp(0.0, 2.0),)
        )
        # L = (D-1)(D^2+2); u0 = sin(pi y):
        # (D^2+2) u0 = (2-pi^2) sin(pi y); (D-1)(...) = (2-pi^2)(pi cos - sin)
        rhs = lambda y: (2 - np.pi**2) * (np.pi * np.cos(np.pi * y) - np.sin(np.pi * y))
        bcs = [
            dirichlet(-1, 0.0),
            dirichlet(1, 0.0),
            BoundaryCondition.derivative(1, 1, -np.pi),
        ]
        sol = solve_bvp(op, rhs, bcs, m=32)
        assert grid_error(sol, lambda y: np.sin(np.pi * y)) <= 1e-11

    def test_mixed_weight_boundary_condition(self):
        # Robin condition u(1) + u'(1) = e + e for u = e^y under (D-1)(D+2)... wait
        # (D-1)u0 = 0 for u0 = e^y, so pick L = (D-1)(D+1): f = 0 misses; use L=(D+1)(D-1), f=0
        op = OperatorFactorization(linear=(FirstOrderOp(-1.0), FirstOrderOp(1.0)))
        bcs = [
            BoundaryCondition(1, ((0, 1.0), (1, 1.0)), 2 * np.e),
            dirichlet(-1, np.exp(-1.0)),
        ]
        sol = solve_bvp(op, lambda y: np.zeros_like(y), bcs, m=24)
        assert grid_error(sol, np.exp) <= 1e-12

    def test_bc_count_mismatch(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        with pytest.raises(ValueError, match="boundary conditions"):
            solve_bvp(op, lambda y: np.zeros_like(y), [dirichlet(-1, 0.0), dirichlet(1, 0.0)], m=16)

    def test_bc_order_too_high(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        with pytest.raises(ValueError, match="order"):
            solve_bvp(op, lambda y: np.zeros_like(y), [BoundaryCondition.derivative(1, 1, 0.0)], m=16)

    def test_degenerate_bcs_reported(self):
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(0.0)))
        bcs = [dirichlet(1, 0.0), dirichlet(1, 0.0)]
        with pytest.raises(SingularSystemError, match="unique") as exc:
            solve_bvp(op, lambda y: np.zeros_like(y), bcs, m=16)
        assert exc.value.column == 1  # two equal rows leave the second constant without a pivot

    def test_minimum_grid_order(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        with pytest.raises(ValueError, match="M >="):
            solve_bvp(op, lambda y: np.zeros_like(y), [dirichlet(-1, 0.0)], m=3)

    def test_rhs_forms_agree(self):
        from chebbvp.chebyshev import GridValues, sample_function

        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, 1e4),))
        rhs = lambda y: (-np.pi**2 + 1e4) * np.sin(np.pi * y)
        bcs = [dirichlet(-1, 0.0), dirichlet(1, 0.0)]
        from_callable = solve_bvp(op, rhs, bcs, m=32)
        vals = sample_function(rhs, 32)
        from_values = solve_bvp(op, vals, bcs)
        from_coeffs = solve_bvp(op, to_coeffs(vals), bcs)
        np.testing.assert_array_equal(from_callable.coeffs.a, from_values.coeffs.a)
        np.testing.assert_array_equal(from_values.coeffs.a, from_coeffs.coeffs.a)

    def test_non_integer_grid_order(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        with pytest.raises(ValueError, match="not an integer"):
            solve_bvp(op, np.sin, [dirichlet(-1, 0.0)], m=16.9)

    def test_integral_float_grid_order(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        sol = solve_bvp(op, np.sin, [dirichlet(-1, 0.0)], m=16.0)
        assert sol.coeffs.m == 16
        np.testing.assert_array_equal(sol.coeffs.a, solve_bvp(op, np.sin, [dirichlet(-1, 0.0)], m=16).coeffs.a)

    def test_callable_needs_grid_order(self):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        with pytest.raises(ValueError, match="m is required"):
            solve_bvp(op, lambda y: np.zeros_like(y), [dirichlet(-1, 0.0)])

    @pytest.mark.parametrize("f, m", [(GridValues(4, np.ones(5)), 8), (ChebCoeffs.zeros(8), 16)])
    def test_grid_order_other_than_the_right_hand_sides(self, f, m):
        op = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        with pytest.raises(ValueError, match=f"m = {m} differs from the right-hand side's order {f.m}"):
            solve_bvp(op, f, [dirichlet(-1, 0.0)], m=m)
        assert solve_bvp(op, f, [dirichlet(-1, 0.0)], m=float(f.m)).coeffs.m == f.m

    def test_non_integral_derivative_order(self):
        with pytest.raises(ValueError, match="derivative order 0.5 is not an integer"):
            BoundaryCondition(-1, ((0.5, 1.0),), 0.0)
        assert BoundaryCondition(-1, ((1.0, 1.0),), 0.0).weights == BoundaryCondition(-1, ((1, 1.0),), 0.0).weights

    @pytest.mark.parametrize("weights", [((0, 1.0), (0, -1.0)), ((1, 0.5), (0, 0.0), (1, -0.5)), ((1, 1e16), (1, -1e16))])
    def test_weights_that_cancel_on_every_order_are_rejected(self, weights):
        with pytest.raises(ValueError, match="boundary condition needs a nonzero weight"):
            BoundaryCondition(-1, weights, 0.0)

    def test_weights_that_cancel_on_one_order_leave_the_others(self):
        # u'(-1) - u'(-1) + u(-1)/2 = 0 is u(-1)/2 = 0, bit for bit, on single and piecewise grids
        op = OperatorFactorization(linear=(FirstOrderOp(2.0), FirstOrderOp(-1.0)))
        rhs = lambda y: np.cos(3 * y)
        cancelling = BoundaryCondition(-1, ((1, 1.0), (1, -1.0), (0, 0.5)), 0.0)
        plain = BoundaryCondition(-1, ((0, 0.5),), 0.0)
        a, b = (solve_bvp(op, rhs, [bc, dirichlet(1, 1.0)], m=32) for bc in (cancelling, plain))
        assert a.coeffs.a.tobytes() == b.coeffs.a.tobytes()
        assert a.constants.tobytes() == b.constants.tobytes()
        grid = PiecewiseGrid(np.array([-1.0, -0.5, 1.0]), (16, 24))
        a, b = (piecewise_solve_spectral(op, rhs, grid, [bc, dirichlet(1, 1.0)]) for bc in (cancelling, plain))
        assert [c.a.tobytes() for c in a.local_coeffs] == [c.a.tobytes() for c in b.local_coeffs]
        assert a.constants.tobytes() == b.constants.tobytes()
        # the exact sum of an order's weights counts, not their rounded one
        assert BoundaryCondition(-1, ((0, 1e16), (0, 1.0), (0, -1e16)), 0.0).weights[1] == (0, 1.0)

    @pytest.mark.parametrize("backend", ["values", "callable", "piecewise-spectral", "piecewise-diffmat"])
    def test_complex_right_hand_side_values_are_rejected(self, backend):
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0),))
        bcs = [dirichlet(-1, 0.0), dirichlet(1, 0.0)]
        grid = PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (16, 16))
        solves = {
            "values": lambda: GridValues(4, np.ones(5) + 1j),
            "callable": lambda: solve_bvp(op, lambda y: y + 0j, bcs, m=16),
            "piecewise-spectral": lambda: piecewise_solve_spectral(op, lambda y: y + 1j, grid, bcs),
            "piecewise-diffmat": lambda: piecewise.piecewise_solve_diffmat(op, lambda y: y + 1j, grid, bcs),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the imaginary part is not dropped with a warning either
            with pytest.raises(ValueError, match="right-hand-side values must be real"):
                solves[backend]()

    def test_affine_convection_operator_is_not_factored(self):
        op = AffineConvectionOp(1.0, 0.0, 1.0, 0.0)
        bcs = [dirichlet(-1, 0.0), dirichlet(1, 0.0)]
        with pytest.raises(ValueError, match="the affine-convection operator requires the diffmat backend"):
            solve_bvp(op, np.cos, bcs, m=16)
        with pytest.raises(ValueError, match="the affine-convection operator requires the diffmat backend"):
            piecewise_solve_spectral(op, np.cos, PiecewiseGrid(np.array([-1.0, 0.0, 1.0]), (16, 16)), bcs)


def reference_boundary_rows(chains, halves, bcs):
    """The fit's boundary rows from the closed-form rows T_n^(d)(+-1) on level 0 of each end interval."""
    n, r = len(chains), len(bcs)
    mat, rhs = np.zeros((r, r * n)), np.zeros(r)
    for k, bc in enumerate(bcs):
        i = 0 if bc.endpoint == -1 else n - 1
        row = sum(w / halves[i] ** d * endpoint_row(chains[i].m, bc.endpoint, d) for d, w in bc.weights)
        vals = [apply_endpoint_row(c, row) for c in chains[i].levels[0]]
        mat[k, i * r : (i + 1) * r] = vals[1:]
        rhs[k] = bc.value - vals[0]
    return mat, rhs


@pytest.fixture
def fit_systems(monkeypatch):
    """Copies of each (matrix, rhs) the fit hands to dense_solve, which overwrites them."""
    systems = []

    def capture(mat, rhs):
        systems.append((mat.copy(), rhs.copy()))
        return dense_solve(mat, rhs)

    monkeypatch.setattr(factored, "dense_solve", capture)
    return systems


def assert_boundary_rows_match(mat, rhs, chains, halves, bcs):
    """Rows of one weight-1 u or u' condition match the closed form bitwise, the rest to rounding.

    Order-2 and weighted conditions are combinations of level reads, which
    round differently from the combined closed-form row.
    """
    ref_mat, ref_rhs = reference_boundary_rows(chains, halves, bcs)
    for k, bc in enumerate(bcs):
        (d, w), h = bc.weights[0], halves[0 if bc.endpoint == -1 else len(chains) - 1]
        if len(bc.weights) == 1 and d <= 1 and w / h**d == 1.0:
            np.testing.assert_array_equal(mat[k], ref_mat[k])
            assert rhs[k] == ref_rhs[k]
        else:
            np.testing.assert_allclose(mat[k], ref_mat[k], rtol=1e-13, atol=0)
            np.testing.assert_allclose(rhs[k], ref_rhs[k], rtol=1e-13, atol=0)
    return ref_mat, ref_rhs


def assert_solutions_equal(a, b):
    np.testing.assert_array_equal(a.coeffs.a, b.coeffs.a)
    np.testing.assert_array_equal(a.constants, b.constants)


def assert_chains_equal(a, b):
    assert a.levels.keys() == b.levels.keys()
    for k, row in a.levels.items():
        assert len(row) == len(b.levels[k])
        for x, y in zip(row, b.levels[k]):
            np.testing.assert_array_equal(x.a, y.a)


def chain_and_solution(op, f, bcs, m):
    """What solve_bvp(op, f, bcs, m) runs, with the chains it fits."""
    with cache.hold():
        chain = solve_chains(op, function_to_coeffs(f, m))
        return chain, fit_boundary(chain, bcs)


class TestHomogeneousBasisCache:
    """The homogeneous chains and their endpoint reads are built once per (operator, M)."""

    @pytest.mark.parametrize("op", [*fourth_order_ops(30.0, 60.0), MIXED_OP], ids=["linear", "quadratic", "mixed"])
    def test_warm_solve_equals_cold_solve(self, op):
        rhs = lambda y: np.cos(3 * y) + y**2
        bcs = table_1e_bcs()
        homogeneous_basis.cache_clear()
        cold_chain, cold = chain_and_solution(op, rhs, bcs, 64)
        warm_chain, warm = chain_and_solution(op, rhs, bcs, 64)
        assert homogeneous_basis.cache_info().hits == 1
        assert warm_chain.basis is cold_chain.basis
        assert_chains_equal(warm_chain, cold_chain)
        assert_solutions_equal(warm, cold)
        assert_solutions_equal(solve_bvp(op, rhs, bcs, m=64), cold)

    def test_conditions_differing_in_order_weight_or_endpoint(self, fit_systems):
        # every condition below differs from another in one of endpoint, order
        # or weight, and the u'' rows read level 2 beside level 0; a value
        # taken from the wrong read memo entry breaks its row
        d = BoundaryCondition.derivative
        condition_sets = [
            [dirichlet(-1, 0.5), dirichlet(1, -1.0), d(-1, 1, 2.0), d(1, 1, 0.0)],
            [dirichlet(-1, 0.5), dirichlet(1, -1.0), d(-1, 2, 1.0), d(1, 2, 3.0)],
            [dirichlet(-1, 0.5), dirichlet(1, -1.0), BoundaryCondition(-1, ((1, 2.0),), 2.0), d(1, 1, 0.0)],
            [BoundaryCondition(-1, ((0, 1.0), (1, 0.5)), 1.0), dirichlet(1, 4.0), d(-1, 2, 0.0), d(1, 1, -2.0)],
            [dirichlet(-1, -7.0), dirichlet(1, 1.0), d(-1, 1, 0.25), d(1, 1, 5.0)],  # the first keys, new values
        ]
        homogeneous_basis.cache_clear()
        for bcs in condition_sets:
            chain, sol = chain_and_solution(MANUFACTURED_OP, manufactured_f, bcs, 48)
            mat, rhs = fit_systems[-1]
            ref_mat, ref_rhs = assert_boundary_rows_match(mat, rhs, [chain], [1.0], bcs)
            if np.array_equal(mat, ref_mat) and np.array_equal(rhs, ref_rhs):
                np.testing.assert_array_equal(sol.constants, dense_solve(ref_mat, ref_rhs))
            else:
                np.testing.assert_allclose(sol.constants, dense_solve(ref_mat, ref_rhs), rtol=1e-12)
        assert homogeneous_basis.cache_info().misses == 1

    def test_piecewise_intervals_share_one_basis(self, fit_systems, monkeypatch):
        chains = []

        def record(op, f):
            chains.append(factored.solve_chains(op, f))
            return chains[-1]

        monkeypatch.setattr(piecewise, "solve_chains", record)
        bcs = [
            dirichlet(-1, 0.5),
            dirichlet(1, -1.0),
            BoundaryCondition.derivative(-1, 2, 2.0),
            BoundaryCondition(1, ((0, 1.0), (1, 3.0)), 0.0),
        ]
        for end in (1.0, 2.0):  # half-widths 1/2 and 1
            grid = PiecewiseGrid(np.array([-end, 0.0, end]), (32, 32))
            chains.clear()
            homogeneous_basis.cache_clear()
            piecewise_solve_spectral(MANUFACTURED_OP, manufactured_f, grid, bcs)
            assert chains[0].basis is chains[1].basis
            mat, rhs = fit_systems[-1]
            assert_boundary_rows_match(mat[:4], rhs[:4], chains, grid.widths / 2.0, bcs)

    def test_cached_arrays_are_read_only_and_evicted_by_bytes(self, monkeypatch):
        clear_caches()
        chain, first = chain_and_solution(MIXED_OP, np.cos, table_1e_bcs(), 32)
        basis = homogeneous_basis(MIXED_OP, 32)
        assert chain.basis is basis
        for row in basis.levels.values():
            assert all(not c.a.flags.writeable for c in row)
        # u and u' at both ends read level 0 at orders 0 and 1, and nothing else
        assert set(basis._reads) == {(0, end, order) for end in (-1, 1) for order in (0, 1)}
        assert endpoint_row.cache_info().currsize == 4
        rows = [endpoint_row(32, end, order) for end in (-1, 1) for order in (0, 1)]
        assert all(not vals.flags.writeable for vals in [*basis._reads.values(), *rows])
        assert basis.read(0, 1, 1) is basis._reads[0, 1, 1]
        assert endpoint_row(32, 1, 1) is rows[3]
        np.testing.assert_array_equal(rows[3], endpoint_row.__wrapped__(32, 1, 1))
        # the entries' bytes: a basis's chain levels and four reads per level, and each row once
        nbytes = homogeneous_basis.cache_info().nbytes
        chains = sum(c.a.nbytes for level in basis.levels.values() for c in level)
        assert nbytes == chains + 4 * len(basis.levels) * basis.read(0, 1, 1).nbytes
        assert endpoint_row.cache_info().nbytes == 4 * rows[3].nbytes
        # a warm solve uses the basis before the factorizations and rows: the basis is now the least recently used
        # entry, and a bound at the cache's bytes makes the next basis evict it and nothing else
        chain_and_solution(MIXED_OP, np.cos, table_1e_bcs(), 32)
        monkeypatch.setattr(cache, "CACHE_BYTES", cache._total)
        swapped = OperatorFactorization(MIXED_OP.linear[::-1], MIXED_OP.quadratic)  # the same factorizations
        second, _ = chain_and_solution(swapped, np.cos, table_1e_bcs(), 32)
        assert homogeneous_basis.cache_info().currsize == 1
        assert second.basis is not basis
        assert cache._total == cache.CACHE_BYTES
        # a re-solve rebuilds the evicted basis bitwise on every level
        rebuilt, resolved = chain_and_solution(MIXED_OP, np.cos, table_1e_bcs(), 32)
        assert rebuilt.basis is not basis
        assert_chains_equal(rebuilt, chain)
        assert_solutions_equal(resolved, first)
        assert_solutions_equal(solve_bvp(MIXED_OP, np.cos, table_1e_bcs(), m=32), first)
        # the evicted basis is freed while the solution lives
        evicted = weakref.ref(basis)
        del chain, basis, rebuilt
        assert evicted() is None

    def test_bases_at_one_order_read_the_same_row_objects(self, monkeypatch):
        # an endpoint row is kept once per (M, endpoint, order) and shared by every basis and solve on that order
        reads = {}

        def record(c, row):
            reads[op].append(row)
            return apply_endpoint_row(c, row)

        monkeypatch.setattr(factored, "apply_endpoint_row", record)
        clear_caches()
        swapped = OperatorFactorization(MIXED_OP.linear[::-1], MIXED_OP.quadratic)
        bases = []
        for op in (MIXED_OP, swapped):
            reads[op] = []
            bases.append(chain_and_solution(op, np.cos, table_1e_bcs(), 32)[0].basis)
        assert bases[0] is not bases[1]
        first, second = reads.values()
        assert len(first) == len(second) == 4 * 5  # u and u' at both ends, of the particular chain and four more
        assert all(a is b for a, b in zip(first, second))
        rows = [endpoint_row(32, end, order) for end in (-1, 1) for order in (0, 1)]
        assert {id(row) for row in first} == {id(row) for row in rows}
        assert endpoint_row.cache_info().currsize == 4

    def test_piecewise_resolve_hits_every_interval(self, monkeypatch):
        # three widths, three rescaled operators: the re-solve builds none of their bases
        chains = []

        def record(op, f):
            chains.append(factored.solve_chains(op, f))
            return chains[-1]

        monkeypatch.setattr(piecewise, "solve_chains", record)
        grid = PiecewiseGrid(np.array([-1.0, -0.75, 0.0, 1.0]), (24, 32, 24))
        d = BoundaryCondition.derivative
        bcs = [dirichlet(-1, 0.5), dirichlet(1, -1.0), d(-1, 1, 2.0), d(1, 1, 0.0)]
        homogeneous_basis.cache_clear()
        cold = piecewise_solve_spectral(MANUFACTURED_OP, manufactured_f, grid, bcs)
        assert homogeneous_basis.cache_info()[:3] == (0, 3, 3)
        warm = piecewise_solve_spectral(MANUFACTURED_OP, manufactured_f, grid, bcs)
        assert homogeneous_basis.cache_info()[:3] == (3, 3, 3)  # hits, misses, currsize
        for c, w in zip(chains[:3], chains[3:]):
            assert w.basis is c.basis
            assert_chains_equal(w, c)
        for c, w in zip(cold.local_coeffs, warm.local_coeffs):
            assert c.a.tobytes() == w.a.tobytes()
        assert cold.constants.tobytes() == warm.constants.tobytes()

    def test_least_recently_used_evicted_first(self, monkeypatch):
        # five orders of three linear factors: five bases of one size on the same three factorizations
        factors = [FirstOrderOp(a) for a in (1.0, 2.0, 3.0)]
        ops = [OperatorFactorization(linear=p) for p in itertools.islice(itertools.permutations(factors), 5)]
        clear_caches()
        bases = [weakref.ref(homogeneous_basis(op, 64)) for op in ops[:3]]
        size = homogeneous_basis.cache_info().nbytes // 3
        assert all(factored._basis_nbytes(op, 64) == size for op in ops)
        monkeypatch.setattr(cache, "CACHE_BYTES", 3 * size + _first_order_factorization.cache_info().nbytes)
        assert homogeneous_basis(ops[0], 64) is bases[0]()  # now ops[1] is the least recently used
        bases.append(weakref.ref(homogeneous_basis(ops[3], 64)))
        assert [b() is None for b in bases] == [False, True, False, False]
        bases.append(weakref.ref(homogeneous_basis(ops[4], 64)))
        assert [b() is None for b in bases] == [False, True, True, False, False]
        info = homogeneous_basis.cache_info()
        assert (info.hits, info.misses, info.currsize, info.nbytes) == (1, 5, 3, 3 * size)
        assert cache._total == cache.CACHE_BYTES
        homogeneous_basis.cache_clear()
        assert all(b() is None for b in bases)

    def test_a_basis_over_the_bound_is_kept_alone(self, monkeypatch):
        small = OperatorFactorization(linear=(FirstOrderOp(1.0),))
        ops, f, bcs = fourth_order_ops(30.0, 60.0), np.cos, table_1e_bcs()
        clear_caches()
        evicted = weakref.ref(homogeneous_basis(small, 64))
        monkeypatch.setattr(cache, "CACHE_BYTES", 4 << 20)
        chain, first = chain_and_solution(ops[0], f, bcs, 131072)
        info = homogeneous_basis.cache_info()
        assert factored._basis_nbytes(ops[0], 131072) == info.nbytes > cache.CACHE_BYTES
        assert info.currsize == 1 and evicted() is None
        again, second = chain_and_solution(ops[0], f, bcs, 131072)
        assert again.basis is chain.basis and homogeneous_basis.cache_info().hits == 1
        assert_solutions_equal(second, first)
        # a miss makes room before it builds: the next large basis is built with the last one freed
        big, alive_at_build = weakref.ref(chain.basis), []
        del chain, again
        build = homogeneous_basis._build

        def watched(op, m):
            alive_at_build.append(big() is not None)
            return build(op, m)

        monkeypatch.setattr(homogeneous_basis, "_build", watched)
        homogeneous_basis(ops[1], 131072)
        assert alive_at_build == [False]
        # and the next entry, however small, evicts the large one: the bound holds beside the entry just used
        homogeneous_basis(small, 64)
        info = homogeneous_basis.cache_info()
        assert info.currsize == 1 and cache._total <= cache.CACHE_BYTES
        clear_caches()

    def test_a_warm_solve_over_the_bound_makes_nothing(self):
        # (D-+30)(D-+60) at M = 131072 uses a 10.5 MB basis, 18.9 MB of factorizations and 4.2 MB of rows: the
        # solve holds them all, over the shipped bound, and a warm re-solve hits every one
        op, bcs, m = fourth_order_ops(30.0, 60.0)[0], table_1e_bcs(), 131072
        clear_caches()
        first = solve_bvp(op, np.cos, bcs, m=m)
        assert cache._total > cache.CACHE_BYTES
        misses = [kind.cache_info().misses for kind in cache._kinds]
        assert_solutions_equal(solve_bvp(op, np.cos, bcs, m=m), first)
        assert [kind.cache_info().misses for kind in cache._kinds] == misses
        assert homogeneous_basis.cache_info().hits == 1
        # the hold ends with the solve: the next miss evicts what the bound cannot keep
        solve_bvp(OperatorFactorization(linear=(FirstOrderOp(1.0),)), np.cos, [dirichlet(-1, 0.0)], m=64)
        assert cache._total <= cache.CACHE_BYTES
        clear_caches()

    def test_kept_results_hold_only_their_coefficients(self):
        # after the caches are cleared, results keep neither their chains nor the basis
        op, m = fourth_order_ops(30.0, 60.0)[0], 16384
        clear_caches()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [solve_bvp(op, lambda y, k=k: np.cos(k * y), table_1e_bcs(), m=m) for k in range(5)]
            basis = weakref.ref(homogeneous_basis(op, m))
            clear_caches()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert basis() is None
        assert held < 1.5 * sum(sol.coeffs.a.nbytes for sol in kept)

    def test_concurrent_solves_match_serial_solves(self):
        # threads race on the cache's entries of every kind, its count of bytes being built, and the bases'
        # read memos; every result must still be the serial one
        ops = fourth_order_ops(30.0, 60.0)
        d = BoundaryCondition.derivative
        bc_sets = [table_1e_bcs(), [dirichlet(-1, 1.0), dirichlet(1, 0.0), d(-1, 2, 1.0), d(1, 1, 2.0)]]
        jobs = [(ops[k % 2], bc_sets[k // 2 % 2], k) for k in range(16)]

        def solve(job):
            op, bcs, k = job
            return solve_bvp(op, lambda y: np.cos(k * y), bcs, m=2048)

        serial = [solve(job) for job in jobs]
        clear_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(solve, job) for job in jobs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(results, serial):
            np.testing.assert_array_equal(a.coeffs.a, b.coeffs.a)
            np.testing.assert_array_equal(a.constants, b.constants)
        assert cache._building == 0 and not cache._held  # every build gave back its room, every solve its hold
        assert cache._total == sum(nbytes for _, nbytes in cache._entries.values()) <= cache.CACHE_BYTES
