"""Spectrum diagnostics: SVD oracle, localization, condition growth."""

import numpy as np
import pytest

from chebbvp import diagnostics
from chebbvp.banded import BandedMatrix
from chebbvp.diagnostics import (
    condition_vs_parameter,
    dense_export,
    jacobi_svd,
    localization_scores,
    singular_spectrum,
    spectrum_csv,
)
from chebbvp.factored import OperatorFactorization
from chebbvp.integration import FirstOrderOp, SecondOrderOp, factor_matrix


class TestDenseExport:
    def test_first_order_a_zero_is_identity(self):
        np.testing.assert_array_equal(dense_export(FirstOrderOp(0.0), 16), np.eye(15))

    def test_matches_banded_assembly_bitwise(self):
        op = SecondOrderOp(3.0, -7.0)
        dense = dense_export(op, 24)
        banded = factor_matrix(op, 24)
        for i in range(22):
            for j in range(max(0, i - 2), min(22, i + 3)):
                assert dense[i, j] == banded.bands[banded.ku + i - j, j]

    def test_figure2_configuration_shape(self):
        a = dense_export(SecondOrderOp(1e5, -1e6), 128)
        assert a.shape == (126, 126)

    def test_rejects_a_non_factor(self):
        with pytest.raises(TypeError, match="unsupported operator OperatorFactorization"):
            dense_export(OperatorFactorization(linear=(FirstOrderOp(1.0),)), 16)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="2048"):
            dense_export(SecondOrderOp(0.0, 1.0), 4096)


class TestJacobiSvd:
    def test_identity(self):
        rep = singular_spectrum(np.eye(12))
        np.testing.assert_allclose(rep.singular_values, 1.0, atol=1e-14)
        assert rep.condition == pytest.approx(1.0, abs=1e-13)

    def test_diagonal(self):
        sig, _ = jacobi_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(sig, [3.0, 2.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_gram_eigenvalue_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((20, 20))
        sig, v = jacobi_svd(a)
        oracle = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
        np.testing.assert_allclose(sig, oracle, rtol=1e-10)
        # right singular vectors reproduce A v = sigma u with unit u
        np.testing.assert_allclose(np.linalg.norm(a @ v, axis=0), sig, rtol=1e-10)

    def test_nonconvergence_reported(self, monkeypatch):
        dgejsv = diagnostics.lapack.dgejsv

        def fails(*args, **kwargs):
            return dgejsv(*args, **kwargs)[:-1] + (1,)

        monkeypatch.setattr(diagnostics.lapack, "dgejsv", fails)
        rng = np.random.default_rng(5)
        with pytest.raises(RuntimeError, match="converge"):
            jacobi_svd(rng.standard_normal((8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(4)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_svd(a)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 2)])
    def test_empty_or_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square and non-empty"):
            singular_spectrum(np.ones(shape))

    @pytest.mark.parametrize("two_sided", [False, True], ids=["column", "two_sided"])
    @pytest.mark.parametrize("seed", range(3))
    def test_relative_accuracy_on_graded_matrices(self, seed, two_sided):
        """Every sigma to 1e-12 relative against a 50-digit SVD.

        B standard normal; column-graded B diag(10^-j) spans 1e-16 and the
        permuted two-sided graded diag(10^-i) B diag(10^-(15-j)) spans
        1e-30.  On the two-sided ones ``np.linalg.svd`` is off by factors
        of 36 to 590 and dgejsv with JOBA = 'C' or 'E' by up to 2e-2; JOBA
        = 'A' zeroes the small sigma of both kinds.
        """
        mpmath = pytest.importorskip("mpmath")
        n = 16
        rng = np.random.default_rng(seed)
        grade = 10.0 ** -np.arange(n)
        b = rng.standard_normal((n, n))
        if two_sided:
            a = (grade[:, None] * b * grade[::-1])[rng.permutation(n)][:, rng.permutation(n)]
        else:
            a = b * grade
        with mpmath.workdps(50):
            exact = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
            exact = np.sort([float(s) for s in exact])[::-1]
        sig, _ = jacobi_svd(a, compute_vectors=False)
        np.testing.assert_allclose(sig, exact, rtol=1e-12, atol=0)

    def test_condition_invariant_under_permutation(self):
        a = dense_export(SecondOrderOp(10.0, -300.0), 48)
        rng = np.random.default_rng(2)
        p, q = rng.permutation(46), rng.permutation(46)
        c1 = singular_spectrum(a, compute_vectors=False).condition
        c2 = singular_spectrum(a[p][:, q], compute_vectors=False).condition
        assert abs(c1 - c2) <= 1e-8 * c1


class TestLocalization:
    def test_scores_definition(self):
        v = np.zeros((20, 2))
        v[0, 0] = 1.0
        v[15, 1] = 1.0
        np.testing.assert_allclose(localization_scores(v), [1.0, 0.0], atol=1e-15)

    def test_figure2_localization(self):
        rep = singular_spectrum(dense_export(SecondOrderOp(1e5, -1e6), 128))
        assert rep.localization[0] >= 0.9
        assert rep.localization[119] <= 0.1
        assert np.all(np.diff(rep.singular_values) <= 1e-12)


class TestConditionGrowth:
    def test_a_zero_is_order_one(self):
        (_, cond), = condition_vs_parameter([0.0], 64)
        assert cond <= 10.0

    def test_a_100_near_square_law(self):
        (_, cond), = condition_vs_parameter([100.0], 256)
        assert 1e3 <= cond <= 1e5

    def test_a_1000_near_square_law(self):
        (_, cond), = condition_vs_parameter([1000.0], 512)
        assert 1e5 <= cond <= 1e7

    def test_log_log_slope_is_two(self):
        table = condition_vs_parameter([10.0, 100.0, 1000.0], 256)
        conds = [c for _, c in table]
        slope = np.polyfit(np.log10([10.0, 100.0, 1000.0]), np.log10(conds), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestCsvExport:
    def test_format(self):
        rep = singular_spectrum(np.diag([2.0, 1.0]))
        lines = spectrum_csv(rep).strip().splitlines()
        assert lines[0] == "index,sigma,localization"
        assert lines[1].startswith("0,2,")
        assert len(lines) == 3
