"""Core grid/transform/recurrence tests against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from chebbvp.chebyshev import (
    ChebCoeffs,
    GridValues,
    cheb_points,
    dense_sample,
    double_integral_rows,
    double_integrate_coeffs,
    endpoint_derivative,
    eval_series,
    integral_rows,
    integrate_coeffs,
    to_coeffs,
    to_values,
)


def dct1_direct(x):
    """O(M^2) cosine-sum oracle: 2 * sum'' x_k cos(j k pi / M)."""
    m = len(x) - 1
    j = np.arange(m + 1)
    w = np.ones(m + 1)
    w[0] = w[m] = 0.5
    return 2.0 * np.cos(np.pi * np.outer(j, j) / m) @ (w * x)


def assert_support(c, minimal=True):
    """c.a[c.support:] is +0.0 bit for bit; with minimal, c.a[c.support - 1] is not."""
    bits = c.a.view(np.int64)
    assert 0 <= c.support <= c.m
    assert not bits[c.support :].any()
    if minimal:
        assert c.support == 0 or bits[c.support - 1] != 0


def prefix_vector(m, s, seed):
    """Length-(m + 1) vector, nonzero-looking on [:s] and +0.0 past it, salted with subnormals and -0.0."""
    rng = np.random.default_rng(seed)
    a = np.zeros(m + 1)
    a[:s] = rng.standard_normal(min(s, m + 1))
    for value in (5e-324, -2.5e-310, -0.0, 1e-300, -0.0):
        if s:
            a[rng.integers(s)] = value
    if s >= 2:
        a[s - 1] = -0.0 if seed % 2 else -5e-324  # the last entry inside the prefix is a zero or a subnormal
    return a


def coeff_vectors(max_m=32):
    return st.integers(3, max_m).flatmap(
        lambda m: st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=m + 1, max_size=m + 1
        ).map(lambda xs: ChebCoeffs(m, np.array(xs)))
    )


class TestChebPoints:
    def test_m1(self):
        assert cheb_points(1).points.tolist() == [1.0, -1.0]

    def test_m2(self):
        assert cheb_points(2).points.tolist() == [1.0, 0.0, -1.0]

    def test_m4_interior(self):
        assert cheb_points(4).points[1] == pytest.approx(0.7071067811865476, abs=1e-16)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cheb_points(0)

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError, match="not an integer"):
            cheb_points(16.9)

    def test_integral_float_order(self):
        grid = cheb_points(16.0)
        assert type(grid.m) is int
        np.testing.assert_array_equal(grid.points, cheb_points(16).points)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 33])
    def test_endpoints_exact_and_decreasing(self, m):
        pts = cheb_points(m).points
        assert pts[0] == 1.0 and pts[m] == -1.0
        assert np.all(np.diff(pts) < 0)
        assert np.allclose(pts, np.cos(np.arange(m + 1) * np.pi / m), atol=1e-15)


class TestTransforms:
    def test_constant(self):
        c = to_coeffs(GridValues(6, np.ones(7)))
        expect = np.zeros(7)
        expect[0] = 2.0
        np.testing.assert_allclose(c.a, expect, atol=1e-15)

    def test_pure_mode_t3(self):
        pts = cheb_points(8).points
        c = to_coeffs(GridValues(8, np.cos(3 * np.arccos(pts))))
        expect = np.zeros(9)
        expect[3] = 1.0
        np.testing.assert_allclose(c.a, expect, atol=1e-14)

    def test_y_squared_m4(self):
        pts = cheb_points(4).points
        c = to_coeffs(GridValues(4, pts**2))
        np.testing.assert_allclose(c.a, [1.0, 0.0, 0.5, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("m", [3, 8, 17, 64])
    def test_matches_direct_cosine_sum(self, m):
        rng = np.random.default_rng(m)
        v = rng.standard_normal(m + 1)
        c = to_coeffs(GridValues(m, v))
        oracle = dct1_direct(v) / m
        oracle[m] = 0.0
        np.testing.assert_allclose(c.a, oracle, atol=1e-13)

    def test_values_of_constant(self):
        a = np.zeros(9)
        a[0] = 2.0
        np.testing.assert_allclose(to_values(ChebCoeffs(8, a)).v, 1.0, atol=1e-15)

    def test_values_of_t1_are_grid_points(self):
        a = np.zeros(9)
        a[1] = 1.0
        np.testing.assert_allclose(
            to_values(ChebCoeffs(8, a)).v, cheb_points(8).points, atol=1e-15
        )

    @given(coeff_vectors())
    def test_roundtrip_values_coeffs(self, c):
        back = to_coeffs(to_values(c))
        np.testing.assert_allclose(back.a, c.a, atol=1e-13 * max(1.0, abs(c.a).max()))

    @pytest.mark.parametrize("m", [16, 256, 4096])
    def test_roundtrip_large(self, m):
        rng = np.random.default_rng(m)
        v = rng.standard_normal(m + 1)
        # remove the a[M] component so the roundtrip is an identity
        cleaned = to_values(to_coeffs(GridValues(m, v)))
        again = to_values(to_coeffs(cleaned))
        np.testing.assert_allclose(again.v, cleaned.v, atol=1e-13)

    def test_last_coefficient_always_zero(self):
        c = to_coeffs(GridValues(5, np.random.default_rng(1).standard_normal(6)))
        assert c.a[5] == 0.0

    def test_coeffs_copy_input_without_modifying_it(self):
        src = np.arange(1.0, 7.0)
        c = ChebCoeffs(5, src)
        np.testing.assert_array_equal(src, np.arange(1.0, 7.0))  # a[M] zeroed on the copy only
        np.testing.assert_array_equal(c.a, [1.0, 2.0, 3.0, 4.0, 5.0, 0.0])
        assert not np.shares_memory(c.a, src)
        assert not c.a.flags.writeable
        src[0] = -1.0
        assert c.a[0] == 1.0
        # a read-only input is copied too, into a fresh read-only array
        again = ChebCoeffs(5, c.a)
        assert not np.shares_memory(again.a, c.a) and not again.a.flags.writeable


class TestSupport:
    def test_constructors_keep_the_support(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 7, 64):
            for s in sorted({0, 1, m // 2, m, m + 1}):
                a = prefix_vector(m, s, m + s)
                c = ChebCoeffs(m, a)
                assert_support(c)
                np.testing.assert_array_equal(c.a.view(np.int64)[: c.support], a.view(np.int64)[: c.support])
            assert_support(ChebCoeffs.zeros(m))
            assert ChebCoeffs.zeros(m).support == 0
            for n in range(m):
                assert_support(ChebCoeffs.unit(m, n, -0.5))
                assert ChebCoeffs.unit(m, n).support == n + 1
            assert_support(to_coeffs(GridValues(m, rng.standard_normal(m + 1))))
            assert_support(to_coeffs(GridValues(m, np.zeros(m + 1))))

    def test_negative_zero_lies_inside_the_support(self):
        assert ChebCoeffs(4, np.array([1.0, -0.0, 0.0, 0.0, 0.0])).support == 2
        assert ChebCoeffs(4, np.array([0.0, 0.0, 0.0, 0.0, 5.0])).support == 0  # a[M] is zeroed
        assert ChebCoeffs(4, np.array([0.0, 0.0, np.nan, 0.0, 0.0])).support == 3

    def test_constant_function_has_a_short_support(self):
        c = to_coeffs(GridValues(4096, np.full(4097, 3.0)))
        assert_support(c)
        assert c.a[0] == 6.0


def integral_rows_full(c):
    """integral_rows over every row, the full-length formula."""
    m, a = c.m, c.a
    n = np.arange(1, m)
    return (a[0 : m - 1] - a[2 : m + 1]) / (2.0 * n)


def double_integral_rows_full(c):
    """double_integral_rows over every row, the full-length formula."""
    ap = np.concatenate([c.a, [0.0, 0.0]])
    n = np.arange(2, c.m)
    k = len(n)
    return ap[0:k] / (4.0 * n * (n - 1)) - ap[2 : k + 2] / (2.0 * (n * n - 1)) + ap[4 : k + 4] / (4.0 * n * (n + 1))


@pytest.mark.parametrize("m", [*range(1, 10), 8192, 131072])
def test_support_limited_stencils_are_the_full_formulas_bitwise(m):
    """The stencils compute rows on the support only, and write +0.0 past them.

    Sign-of-zero rule: the support ends after the last entry whose bits are
    not +0.0, so -0.0 and subnormals lie inside it and the tail is +0.0.
    There the full formulas give (+0 - +0) / (2n) = +0.0 and
    +0/d1 - +0/d2 + +0/d3 = +0.0, so every row, and every sign of zero,
    matches bit for bit.  A stated support longer than the scanned one
    (as the solvers may hand over) computes more rows by the same expressions.
    """
    for s in sorted({0, 1, 2, m // 2, m - 2, m - 1, m, m + 1} & set(range(m + 2))):
        a = prefix_vector(m, s, 1000 * m + s)
        scanned = ChebCoeffs(m, a)
        stated = [ChebCoeffs._adopt(m, a.copy(), min(t, m)) for t in (s, s + 3)]
        for c in (scanned, *stated):
            assert integral_rows(c).tobytes() == integral_rows_full(c).tobytes(), (s, c.support)
            assert double_integral_rows(c).tobytes() == double_integral_rows_full(c).tobytes(), (s, c.support)


def clenshaw_full(c, y):
    """eval_series's recurrence started at k = M, over every row."""
    yarr = np.asarray(y, dtype=float)
    b1 = np.zeros_like(yarr)
    b2 = np.zeros_like(yarr)
    for k in range(c.m, 0, -1):
        b1, b2 = c.a[k] + 2.0 * yarr * b1 - b2, b1
    return c.a[0] / 2.0 + yarr * b1 - b2


def test_eval_series_from_the_support_is_the_full_recurrence_bitwise():
    # rows above the support carry b1 = b2 = +0.0, so starting there changes no bit, zeros' signs included
    rng = np.random.default_rng(17)
    ys = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -0.3, 1.0 - 2.0**-52, -1.0 + 2.0**-53])
    for i, m in enumerate([1, 2, 3, 4, 5, 8, 9, 16, 33, 64, 100, 257, 1024, 4096] * 2 + [4096, 4096]):
        s = int(rng.integers(0, m + 2)) if i < 28 else (0 if i == 28 else m)
        c = ChebCoeffs(m, prefix_vector(m, s, i))
        assert eval_series(c, ys).tobytes() == clenshaw_full(c, ys).tobytes(), (m, s)
        for y in ys:
            got = eval_series(c, float(y))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(clenshaw_full(c, float(y))).tobytes(), (m, s, y)


class TestEvalSeries:
    def test_t2_at_zero(self):
        assert eval_series(ChebCoeffs.unit(6, 2), 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_t3_at_minus_one(self):
        assert eval_series(ChebCoeffs.unit(6, 3), -1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_against_trig_oracle(self):
        c = ChebCoeffs(3, np.array([1.0, 2.0, 3.0, 0.0]))
        y = 0.3
        oracle = 1.0 / 2 + 2 * np.cos(np.arccos(y)) + 3 * np.cos(2 * np.arccos(y))
        assert eval_series(c, y) == pytest.approx(oracle, abs=1e-14)

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError):
            eval_series(ChebCoeffs.zeros(4), 1.0000001)

    @pytest.mark.parametrize("y", [np.nan, np.array([0.5, np.nan])], ids=["scalar", "array"])
    def test_rejects_nan(self, y):
        with pytest.raises(ValueError, match="outside"):
            eval_series(ChebCoeffs.unit(4, 1), y)

    def test_vectorized(self):
        c = ChebCoeffs(5, np.array([0.4, 1.0, -2.0, 0.3, 0.0, 0.0]))
        ys = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(
            eval_series(c, ys), [eval_series(c, float(y)) for y in ys], atol=1e-15
        )

    def test_dense_sample_is_exact_evaluation(self):
        c = ChebCoeffs(7, np.random.default_rng(3).standard_normal(8))
        pts, vals = dense_sample(c, 40)
        np.testing.assert_allclose(vals, eval_series(c, pts), atol=1e-13)


class TestEndpoints:
    def test_t1(self):
        t1 = ChebCoeffs.unit(5, 1)
        assert (endpoint_derivative(t1, 1, 0), endpoint_derivative(t1, -1, 0)) == (1.0, -1.0)

    def test_constant(self):
        t0 = ChebCoeffs.unit(5, 0)
        assert (endpoint_derivative(t0, 1, 0), endpoint_derivative(t0, -1, 0)) == (1.0, 1.0)

    @given(coeff_vectors())
    def test_agrees_with_eval_series(self, c):
        plus, minus = endpoint_derivative(c, 1, 0), endpoint_derivative(c, -1, 0)
        scale = max(1.0, abs(c.a).sum())
        assert abs(plus - eval_series(c, 1.0)) <= 1e-14 * scale
        assert abs(minus - eval_series(c, -1.0)) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 0, 3, 20])
    def test_endpoint_derivative_of_modes(self, n):
        # T_n^(k)(+-1) for k = 0..4 are integers below 2^53 for n <= 20, so
        # the closed form must match chebder exactly
        c = ChebCoeffs.unit(21, n)
        mode = np.zeros(n + 1)
        mode[n] = 1.0
        for k in range(5):
            deriv = npcheb.chebder(mode, k)
            for endpoint in (1, -1):
                assert endpoint_derivative(c, endpoint, k) == npcheb.chebval(endpoint, deriv)
        if n == 3:
            assert endpoint_derivative(c, 1, 2) == 24.0  # (4y^3 - 3y)'' = 24 y


class TestIntegration:
    def test_t0_gives_y(self):
        out = integrate_coeffs(ChebCoeffs.unit(8, 0))
        expect = np.zeros(9)
        expect[1] = 1.0
        np.testing.assert_allclose(out.a, expect, atol=1e-16)

    def test_t1_gives_quarter_t2(self):
        out = integrate_coeffs(ChebCoeffs.unit(8, 1))
        assert out.a[2] == 0.25
        assert np.count_nonzero(out.a) == 1

    def test_t4(self):
        out = integrate_coeffs(ChebCoeffs.unit(8, 4))
        assert out.a[5] == pytest.approx(1.0 / 10)
        assert out.a[3] == pytest.approx(-1.0 / 6)
        assert out.a[0] == 0.0

    def test_double_t0(self):
        out = double_integrate_coeffs(ChebCoeffs.unit(8, 0))
        assert out.a[2] == 0.25
        assert np.count_nonzero(out.a) == 1

    def test_double_t2(self):
        out = double_integrate_coeffs(ChebCoeffs.unit(8, 2))
        assert out.a[4] == pytest.approx(1.0 / 48)
        assert out.a[2] == pytest.approx(-1.0 / 6)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 17])
    def test_double_integral_stencil_bitwise(self, m):
        # the three-term stencil on the zero-padded coefficients, bit for bit;
        # M = 1 has no rows n = 2..M-1 and gives the zero series
        a = np.append(ChebCoeffs(m, np.random.default_rng(m).standard_normal(m + 1)).a, [0.0, 0.0])
        n = np.arange(2, m)
        expect = a[n - 2] / (4.0 * n * (n - 1)) - a[n] / (2.0 * (n * n - 1)) + a[n + 2] / (4.0 * n * (n + 1))
        got = double_integrate_coeffs(ChebCoeffs(m, a[: m + 1]))
        np.testing.assert_array_equal(got.a, np.concatenate([[0.0, 0.0], expect, [0.0]])[: m + 1])

    def test_double_t5_matches_composition(self):
        m = 16
        direct = double_integrate_coeffs(ChebCoeffs.unit(m, 5))
        twice = integrate_coeffs(integrate_coeffs(ChebCoeffs.unit(m, 5)))
        fixed = np.array(twice.a)
        fixed[:2] = 0.0
        np.testing.assert_allclose(direct.a, fixed, atol=1e-15)

    @pytest.mark.parametrize("n", range(11))
    def test_against_symbolic_antiderivative(self, n):
        # acceptance 8: recurrences vs symbolic antiderivatives, n <= 10
        import sympy

        y = sympy.Symbol("y")
        tn = sympy.chebyshevt(n, y)
        anti = sympy.integrate(tn, y)
        m = 16
        out = integrate_coeffs(ChebCoeffs.unit(m, n))
        for yv in np.linspace(-1, 1, 7):
            expect = float(anti.subs(y, sympy.Rational(yv)))
            got = eval_series(out, yv)
            # the recurrence zeroes the T_0 mode; compare up to that constant
            shift = eval_series(out, 0.0) - float(anti.subs(y, 0))
            assert got - expect == pytest.approx(shift, abs=1e-15)

    @given(coeff_vectors(max_m=20), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40)
    def test_linearity(self, c, alpha, beta):
        rng = np.random.default_rng(0)
        d = ChebCoeffs(c.m, rng.standard_normal(c.m + 1))
        combo = ChebCoeffs(c.m, alpha * c.a + beta * d.a)
        lhs = integrate_coeffs(combo).a
        rhs = alpha * integrate_coeffs(c).a + beta * integrate_coeffs(d).a
        np.testing.assert_allclose(lhs, rhs, atol=1e-14 * max(1.0, abs(lhs).max()))

    @pytest.mark.parametrize("n", range(7))
    def test_derivative_of_antiderivative_recovers_mode(self, n):
        # finite differences on a refined evaluation, O(h^2) accuracy
        m = 16
        g = integrate_coeffs(ChebCoeffs.unit(m, n))
        h = 1e-5
        ys = np.linspace(-0.9, 0.9, 19)
        fd = (eval_series(g, ys + h) - eval_series(g, ys - h)) / (2 * h)
        np.testing.assert_allclose(fd, np.cos(n * np.arccos(ys)), atol=5e-8)
