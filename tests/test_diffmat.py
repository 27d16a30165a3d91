"""Differentiation matrices: construction, exactness, endpoint rows."""

import numpy as np
import pytest

from chebbvp.chebyshev import cheb_points
from chebbvp.diffmat import (
    AffineConvectionOp,
    affine_convection_matrix,
    build_diffmat,
    diff_endpoint_row,
)


def chebt(k, y):
    return np.cos(k * np.arccos(np.clip(y, -1, 1)))


class TestBuildDiffmat:
    def test_m1(self):
        d = build_diffmat(1).entries
        np.testing.assert_allclose(d, [[0.5, -0.5], [0.5, -0.5]], atol=1e-16)

    def test_diagonal_is_exact_negative_sum(self):
        d = build_diffmat(9).entries.copy()
        diag = d.diagonal().copy()
        np.fill_diagonal(d, 0.0)
        np.testing.assert_array_equal(diag, -d.sum(axis=1))

    def test_row_sums_vanish(self):
        d = build_diffmat(9).entries
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d.sum(axis=1))) <= 1e-15 * scale
        # constants map to zero exactly at the construction's own summation order
        np.testing.assert_allclose(d @ np.ones(10), 0.0, atol=1e-15 * scale)

    def test_differentiates_t1_to_ones(self):
        d = build_diffmat(8)
        y = cheb_points(8).points
        np.testing.assert_allclose(d.entries @ y, np.ones(9), atol=1e-13)

    def test_differentiates_t2(self):
        d = build_diffmat(8)
        y = cheb_points(8).points
        np.testing.assert_allclose(d.entries @ (2 * y**2 - 1), 4 * y, atol=1e-13)

    @pytest.mark.parametrize("k", range(13))
    def test_polynomial_exactness(self, k):
        m = 12
        d = build_diffmat(m)
        y = cheb_points(m).points
        vals = chebt(k, y)
        theta = np.arccos(np.clip(y[1:-1], -1, 1))
        deriv = np.zeros(m + 1)
        deriv[1:-1] = k * np.sin(k * theta) / np.sin(theta)
        deriv[0] = k * k
        deriv[-1] = (-1.0) ** (k + 1) * k * k
        np.testing.assert_allclose(d.entries @ vals, deriv, atol=1e-12 * max(1, k * k))

    def test_endpoint_rows_reproduce_exp_derivative(self):
        for m in (16, 32, 64):
            d = build_diffmat(m)
            y = cheb_points(m).points
            vals = np.exp(y)
            assert abs((d.entries @ vals)[0] - np.e) <= 1e-10
            assert abs((d.entries @ vals)[-1] - np.exp(-1)) <= 1e-10


class TestEndpointRows:
    @pytest.mark.parametrize("endpoint", [1, -1])
    def test_first_derivative_row_matches_matrix(self, endpoint):
        m = 20
        d = build_diffmat(m).entries
        row = diff_endpoint_row(m, endpoint)
        np.testing.assert_array_equal(row, d[0 if endpoint == 1 else m])

    def test_large_order_first_derivative_available(self):
        row = diff_endpoint_row(8192, -1)
        y = cheb_points(8192).points
        assert row @ (y**2) == pytest.approx(-2.0, abs=1e-6)


class TestOperatorMatrix:
    # p u'' + (q1 y + q0) u' + r u with only q0 = 1 is D itself
    DERIVATIVE = AffineConvectionOp(0.0, 0.0, 1.0, 0.0)

    def test_first_order_identity_scale(self):
        d = build_diffmat(6)
        mat = affine_convection_matrix(self.DERIVATIVE, d, scale=1.0, y_global=cheb_points(6).points)
        np.testing.assert_array_equal(mat, d.entries)

    def test_second_derivative_of_t3(self):
        d = build_diffmat(8)
        y = cheb_points(8).points
        mat = affine_convection_matrix(AffineConvectionOp(1.0, 0.0, 0.0, 0.0), d, scale=1.0, y_global=y)
        np.testing.assert_allclose(mat @ (4 * y**3 - 3 * y), 24 * y, atol=1e-12)

    def test_half_scale_doubles_first_derivative(self):
        d = build_diffmat(6)
        y = cheb_points(6).points
        full = affine_convection_matrix(self.DERIVATIVE, d, scale=1.0, y_global=y)
        half = affine_convection_matrix(self.DERIVATIVE, d, scale=0.5, y_global=y / 2)
        np.testing.assert_allclose(half, 2.0 * full, atol=1e-15)

    def test_affine_convection_rows(self):
        m = 8
        d = build_diffmat(m)
        y = cheb_points(m).points
        op = AffineConvectionOp(diff2=2.0, conv_slope=1.0, conv_const=0.5)
        mat = affine_convection_matrix(op, d, scale=1.0, y_global=y)
        # applied to u = y^2: 2*2 + (y + 0.5) * 2y
        np.testing.assert_allclose(mat @ (y**2), 4.0 + (y + 0.5) * 2 * y, atol=1e-12)
