"""Collocation operator blocks: construction, exactness, endpoint rows."""

import numpy as np
import pytest

from chebbvp.chebyshev import cheb_points
from chebbvp.diffmat import AffineConvectionOp, diff_endpoint_row, operator_block

# p u'' + (q1 y + q0) u' + r u with only q0 = 1 is D itself, with only p = 1 it is D^2
DERIVATIVE = AffineConvectionOp(0.0, 0.0, 1.0, 0.0)
SECOND_DERIVATIVE = AffineConvectionOp(1.0, 0.0, 0.0, 0.0)


def chebt(k, y):
    return np.cos(k * np.arccos(np.clip(y, -1, 1)))


def block(op, m, half=1.0, y_global=None):
    out = np.zeros((m + 1, m + 1))
    operator_block(op, m, half, cheb_points(m).points if y_global is None else y_global, out)
    return out


def textbook_d(m):
    """(c_k/c_j) (-1)^(k+j) / (y_k - y_j), diagonal the negated off-diagonal row sum."""
    y = cheb_points(m).points
    c = np.ones(m + 1)
    c[0] = c[m] = 2.0
    signs = (-1.0) ** np.arange(m + 1)
    diff = y[:, None] - y[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (c[:, None] / c[None, :]) * (signs[:, None] * signs[None, :]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def whole_block(op, m, half, y_global):
    """The operator block built all at once: one (m+1) x (m+1) temporary holds D."""
    y = cheb_points(m).points
    s = (-1.0) ** np.arange(m + 1)
    s[[0, m]] *= 2.0
    d = np.subtract.outer(y, y)
    np.fill_diagonal(d, 1.0)
    np.divide(1.0, d, out=d)
    np.fill_diagonal(d, 0.0)
    d *= s[:, None]
    d /= s[None, :]
    np.fill_diagonal(d, -d.sum(axis=1))
    out = d / s[:, None]
    out *= s[None, :]
    np.subtract(d.diagonal()[:, None], out, out=out)
    out *= d
    out *= 2.0
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    out *= op.diff2 / (half * half)
    d *= ((op.conv_slope * y_global + op.conv_const) / half)[:, None]
    out += d
    out[np.diag_indices(m + 1)] += op.react
    return out


def t_second_derivative(k, y):
    return np.polynomial.chebyshev.Chebyshev.basis(k).deriv(2)(y)


class TestBuildDiffmat:
    def test_m1(self):
        np.testing.assert_allclose(block(DERIVATIVE, 1), [[0.5, -0.5], [0.5, -0.5]], atol=1e-16)

    def test_diagonal_is_exact_negative_sum(self):
        d = block(DERIVATIVE, 9)
        diag = d.diagonal().copy()
        np.fill_diagonal(d, 0.0)
        np.testing.assert_array_equal(diag, -d.sum(axis=1))

    def test_row_sums_vanish(self):
        d = block(DERIVATIVE, 9)
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d.sum(axis=1))) <= 1e-15 * scale
        # constants map to zero exactly at the construction's own summation order
        np.testing.assert_allclose(d @ np.ones(10), 0.0, atol=1e-15 * scale)

    def test_differentiates_t1_to_ones(self):
        y = cheb_points(8).points
        np.testing.assert_allclose(block(DERIVATIVE, 8) @ y, np.ones(9), atol=1e-13)

    def test_differentiates_t2(self):
        y = cheb_points(8).points
        np.testing.assert_allclose(block(DERIVATIVE, 8) @ (2 * y**2 - 1), 4 * y, atol=1e-13)

    @pytest.mark.parametrize("k", range(13))
    def test_polynomial_exactness(self, k):
        m = 12
        y = cheb_points(m).points
        vals = chebt(k, y)
        theta = np.arccos(np.clip(y[1:-1], -1, 1))
        deriv = np.zeros(m + 1)
        deriv[1:-1] = k * np.sin(k * theta) / np.sin(theta)
        deriv[0] = k * k
        deriv[-1] = (-1.0) ** (k + 1) * k * k
        np.testing.assert_allclose(block(DERIVATIVE, m) @ vals, deriv, atol=1e-12 * max(1, k * k))

    def test_endpoint_rows_reproduce_exp_derivative(self):
        for m in (16, 32, 64):
            y = cheb_points(m).points
            du = block(DERIVATIVE, m) @ np.exp(y)
            assert abs(du[0] - np.e) <= 1e-10
            assert abs(du[-1] - np.exp(-1)) <= 1e-10


class TestSecondDerivative:
    @pytest.mark.parametrize("m", [12, 64])
    def test_agrees_with_product_of_first_derivatives(self, m):
        d2, d = block(SECOND_DERIVATIVE, m), block(DERIVATIVE, m)
        product = d @ d
        assert np.max(np.abs(d2 - product)) <= 1e-13 * np.max(np.abs(product))
        # on every T_k'' the recursion is no less accurate than D @ D
        y = cheb_points(m).points
        err, err_product = [], []
        for k in range(m + 1):
            exact = t_second_derivative(k, y)
            ref = max(1.0, np.max(np.abs(exact)))
            err.append(np.max(np.abs(d2 @ chebt(k, y) - exact)) / ref)
            err_product.append(np.max(np.abs(product @ chebt(k, y) - exact)) / ref)
        assert max(err) <= 1.1 * max(err_product)

    def test_diagonal_is_exact_negative_sum(self):
        d2 = block(SECOND_DERIVATIVE, 20)
        diag = d2.diagonal().copy()
        np.fill_diagonal(d2, 0.0)
        np.testing.assert_array_equal(diag, -d2.sum(axis=1))

    def test_vanishes_on_linear_functions(self):
        np.testing.assert_array_equal(block(SECOND_DERIVATIVE, 1), np.zeros((2, 2)))
        d2 = block(SECOND_DERIVATIVE, 16)
        y = cheb_points(16).points
        np.testing.assert_allclose(d2 @ (3 * y - 1), 0.0, atol=1e-12 * np.max(np.abs(d2)))


class TestEndpointRows:
    @pytest.mark.parametrize("endpoint", [1, -1])
    def test_first_derivative_row_matches_matrix(self, endpoint):
        for m in (2, 20, 63, 64, 65, 333, 1024):  # 64-row chunk edges included
            row = diff_endpoint_row(m, endpoint)
            np.testing.assert_array_equal(row, block(DERIVATIVE, m)[0 if endpoint == 1 else m])

    def test_large_order_first_derivative_available(self):
        row = diff_endpoint_row(8192, -1)
        y = cheb_points(8192).points
        assert row @ (y**2) == pytest.approx(-2.0, abs=1e-6)


class TestOperatorMatrix:
    def test_first_order_identity_scale(self):
        # the sign and weight factors are powers of two, so scaling 1/(y_k - y_j)
        # by them gives the correctly rounded textbook entries
        for m in (1, 6, 9, 300):
            np.testing.assert_array_equal(block(DERIVATIVE, m, 1.0, cheb_points(m).points), textbook_d(m))

    def test_second_derivative_of_t3(self):
        y = cheb_points(8).points
        np.testing.assert_allclose(block(SECOND_DERIVATIVE, 8) @ (4 * y**3 - 3 * y), 24 * y, atol=1e-12)

    def test_half_scale_doubles_first_derivative(self):
        y = cheb_points(6).points
        full = block(DERIVATIVE, 6, 1.0, y)
        half = block(DERIVATIVE, 6, 0.5, y / 2)
        np.testing.assert_allclose(half, 2.0 * full, atol=1e-15)

    def test_half_scale_quadruples_second_derivative(self):
        full = block(SECOND_DERIVATIVE, 10)
        np.testing.assert_allclose(block(SECOND_DERIVATIVE, 10, 0.5), 4.0 * full, rtol=1e-15, atol=0)

    def test_affine_convection_rows(self):
        m = 8
        y = cheb_points(m).points
        op = AffineConvectionOp(diff2=2.0, conv_slope=1.0, conv_const=0.5)
        # applied to u = y^2: 2*2 + (y + 0.5) * 2y
        np.testing.assert_allclose(block(op, m) @ (y**2), 4.0 + (y + 0.5) * 2 * y, atol=1e-12)

    def test_reaction_on_the_diagonal_only(self):
        op = AffineConvectionOp(1e-3, 0.7, 0.2, 0.0)
        diff = block(AffineConvectionOp(1e-3, 0.7, 0.2, -3.0), 12) - block(op, 12)
        np.testing.assert_allclose(diff, -3.0 * np.eye(13), atol=1e-12)

    @pytest.mark.parametrize("m", [2, 63, 64, 65, 130, 1024])
    def test_chunked_rows_match_whole_block(self, m):
        # chunk edges at 64-row multiples: the same elementwise operations and row sums
        op = AffineConvectionOp(1e-3, 0.7, 0.2, -3.0)
        y = 0.3 + 0.25 * cheb_points(m).points
        np.testing.assert_array_equal(block(op, m, 0.25, y), whole_block(op, m, 0.25, y))
        np.testing.assert_array_equal(block(DERIVATIVE, m), whole_block(DERIVATIVE, m, 1.0, cheb_points(m).points))

    @pytest.mark.parametrize("m", [8, 300])
    def test_strided_view_gets_the_same_bits(self, m):
        # the collocation backend writes each block reversed into the global matrix
        op = AffineConvectionOp(1e-3, 0.7, 0.2, -3.0)
        y = 0.3 + 0.25 * cheb_points(m).points
        big = np.zeros((m + 11, m + 11))
        view = big[5 : m + 6, 5 : m + 6][::-1, ::-1]
        operator_block(op, m, 0.25, y, view)
        np.testing.assert_array_equal(view, block(op, m, 0.25, y))
        assert not big[:5].any() and not big[m + 6 :].any()
        assert not big[:, :5].any() and not big[:, m + 6 :].any()
