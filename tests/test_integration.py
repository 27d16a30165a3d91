"""Spectral-integration solvers: examples, residual properties, manufactured solutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebbvp import clear_caches
from chebbvp.chebyshev import (
    ChebCoeffs,
    double_integral_rows,
    endpoint_derivative,
    function_to_coeffs,
    integral_rows,
)
from chebbvp.factored import OperatorFactorization, solve_chains
from chebbvp.integration import (
    FirstOrderOp,
    SecondOrderOp,
    _first_order_factorization,
    _second_order_factorization,
    first_order_particular,
    first_order_residual,
    second_order_particular,
    second_order_residual,
)


def homogeneous_starts(factor, m):
    """The homogeneous chains that a one-factor operator starts (level 0 of solve_chains)."""
    if isinstance(factor, FirstOrderOp):
        op = OperatorFactorization(linear=(factor,))
    else:
        op = OperatorFactorization(quadratic=(factor,))
    return solve_chains(op, ChebCoeffs.zeros(m)).levels[0][1:]



class TestFirstOrderParticular:
    def test_pure_integration_t1(self):
        u = first_order_particular(FirstOrderOp(0.0), ChebCoeffs.unit(8, 1))
        expect = np.zeros(9)
        expect[2] = 0.25
        np.testing.assert_allclose(u.a, expect, atol=1e-15)

    def test_pure_integration_t0(self):
        u = first_order_particular(FirstOrderOp(0.0), ChebCoeffs.unit(8, 0))
        expect = np.zeros(9)
        expect[1] = 1.0
        np.testing.assert_allclose(u.a, expect, atol=1e-15)

    def test_manufactured_t2(self):
        # f = (D - 1) T_2 = 4y - (2y^2 - 1); the solution T_2 already has T_0(u) = 0
        f = function_to_coeffs(lambda y: 4 * y - 2 * y**2 + 1, 16)
        u = first_order_particular(FirstOrderOp(1.0), f)
        np.testing.assert_allclose(u.a, ChebCoeffs.unit(16, 2).a, atol=1e-13)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            first_order_particular(FirstOrderOp(1.0), ChebCoeffs.zeros(2))

    def test_integral_condition_exact(self):
        f = function_to_coeffs(np.exp, 20)
        u = first_order_particular(FirstOrderOp(2.5), f)
        assert u.a[0] == 0.0


class TestFirstOrderHomogeneous:
    def test_a_zero_is_constant_half(self):
        u = homogeneous_starts(FirstOrderOp(0.0), 12)[0]
        expect = np.zeros(13)
        expect[0] = 1.0
        np.testing.assert_allclose(u.a, expect, atol=1e-16)

    def test_exponential_ratio(self):
        u = homogeneous_starts(FirstOrderOp(1.0), 32)[0]
        plus, minus = endpoint_derivative(u, 1, 0), endpoint_derivative(u, -1, 0)
        assert plus / minus == pytest.approx(np.e**2, rel=1e-10)

    @pytest.mark.parametrize("a", [-3.0, 0.5, 1e3])
    def test_t0_coefficient_exactly_one(self, a):
        assert homogeneous_starts(FirstOrderOp(a), 16)[0].a[0] == 1.0

    def test_discretely_homogeneous(self):
        (u,) = homogeneous_starts(FirstOrderOp(2.0), 24)
        res = first_order_residual(FirstOrderOp(2.0), u, ChebCoeffs.zeros(24))
        assert np.max(np.abs(res)) <= 1e-14


class TestSecondOrderParticular:
    def test_pure_double_integration(self):
        u = second_order_particular(SecondOrderOp(0.0, 0.0), ChebCoeffs.unit(8, 0))
        expect = np.zeros(9)
        expect[2] = 0.25
        np.testing.assert_allclose(u.a, expect, atol=1e-15)

    def test_manufactured_t3(self):
        # f = (D^2 + 2D + 5) T_3 = 20y^3 + 24y^2 + 9y - 6
        f = function_to_coeffs(lambda y: 20 * y**3 + 24 * y**2 + 9 * y - 6, 16)
        u = second_order_particular(SecondOrderOp(2.0, 5.0), f)
        np.testing.assert_allclose(u.a, ChebCoeffs.unit(16, 3).a, atol=1e-12)

    def test_residual_of_m1_series_is_empty(self):
        # rows n = 2..M-1: none at M = 1
        u = ChebCoeffs(1, np.ones(2))
        assert second_order_residual(SecondOrderOp(1.0, 2.0), u, u).shape == (0,)

    def test_huge_coefficient_residual_at_roundoff(self):
        # (D^2 - a^2) u = -(pi^2 + a^2) sin(pi y) at a = 1e6, M = 30: the
        # particular solution is O(1) wrong as a function, but the banded
        # equations themselves are satisfied to roundoff
        a = 1e6
        op = SecondOrderOp(0.0, -(a**2))
        f = function_to_coeffs(lambda y: -(np.pi**2 + a**2) * np.sin(np.pi * y), 30)
        u = second_order_particular(op, f)
        res = second_order_residual(op, u, f)
        scale = np.max(np.abs(double_integral_rows(f)))
        assert np.max(np.abs(res)) <= 1e-13 * scale

    def test_integral_conditions_exact(self):
        f = function_to_coeffs(np.cos, 20)
        u = second_order_particular(SecondOrderOp(1.0, -2.0), f)
        assert u.a[0] == 0.0 and u.a[1] == 0.0

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            second_order_particular(SecondOrderOp(0.0, 1.0), ChebCoeffs.zeros(4))


class TestSecondOrderHomogeneous:
    def test_trivial_cases_give_half(self):
        for op in [SecondOrderOp(0.0, 0.0), SecondOrderOp(3.0, 0.0)]:
            u = homogeneous_starts(op, 12)[0]
            expect = np.zeros(13)
            expect[0] = 1.0
            np.testing.assert_allclose(u.a, expect, atol=1e-16)

    def test_cosh_space_residual(self):
        op = SecondOrderOp(0.0, -4.0)
        u = homogeneous_starts(op, 32)[0]
        res = second_order_residual(op, u, ChebCoeffs.zeros(32))
        assert np.max(np.abs(res)) <= 1e-12

    def test_second_kind_trivial(self):
        u = homogeneous_starts(SecondOrderOp(0.0, 0.0), 12)[1]
        np.testing.assert_allclose(u.a, ChebCoeffs.unit(12, 1).a, atol=1e-16)

    def test_second_kind_residual(self):
        op = SecondOrderOp(1.0, 0.0)
        u = homogeneous_starts(op, 24)[1]
        res = second_order_residual(op, u, ChebCoeffs.zeros(24))
        assert np.max(np.abs(res)) <= 1e-12

    @pytest.mark.parametrize("op", [SecondOrderOp(1.0, 2.0), SecondOrderOp(-5.0, 100.0)])
    def test_normalizations_exact(self, op):
        u1, u2 = homogeneous_starts(op, 16)
        assert u1.a[0] == 1.0 and u1.a[1] == 0.0
        assert u2.a[0] == 0.0 and u2.a[1] == 1.0


class TestProperties:
    @given(
        st.floats(-50, 50),
        st.integers(6, 48),
        st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_first_order_residual_property(self, a, m, seed):
        op = FirstOrderOp(a)
        f = ChebCoeffs(m, np.random.default_rng(seed).standard_normal(m + 1))
        u = first_order_particular(op, f)
        res = first_order_residual(op, u, f)
        scale = max(np.max(np.abs(integral_rows(f))), 1e-30)
        assert np.max(np.abs(res)) <= 1e-13 * max(scale, np.max(np.abs(u.a)) * max(1.0, abs(a)))

    @given(
        st.floats(-20, 20),
        st.floats(-100, 100),
        st.integers(6, 48),
        st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_second_order_residual_property(self, b, c, m, seed):
        op = SecondOrderOp(b, c)
        f = ChebCoeffs(m, np.random.default_rng(seed).standard_normal(m + 1))
        u = second_order_particular(op, f)
        res = second_order_residual(op, u, f)
        scale = max(np.max(np.abs(double_integral_rows(f))), 1e-30)
        bound = max(scale, np.max(np.abs(u.a)) * max(1.0, abs(b), abs(c)))
        assert np.max(np.abs(res)) <= 1e-13 * bound

    def test_factorization_shared_between_particular_and_homogeneous(self):
        clear_caches()
        op = OperatorFactorization(
            linear=(FirstOrderOp(7.0), FirstOrderOp(-3.0)), quadratic=(SecondOrderOp(1.0, 2.0),)
        )
        rng = np.random.default_rng(0)
        solve_chains(op, ChebCoeffs(16, rng.standard_normal(17)))
        first = _first_order_factorization.cache_info()
        second = _second_order_factorization.cache_info()
        # one miss per factor; every other solve through the factor is a hit:
        # 1 + 1 and 2 + 1 solves through the linear factors, 3 + 2 through the quadratic
        assert (first.misses, second.misses) == (2, 1)
        assert (first.hits, second.hits) == (3, 4)
        # a second right-hand side reuses the homogeneous chains: only the
        # particular chain passes through each factor again
        solve_chains(op, ChebCoeffs(16, rng.standard_normal(17)))
        first2 = _first_order_factorization.cache_info()
        second2 = _second_order_factorization.cache_info()
        assert (first2.misses, second2.misses) == (2, 1)
        assert (first2.hits - first.hits, second2.hits - second.hits) == (2, 1)
