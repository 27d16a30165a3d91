"""Banded LU and the LAPACK dense solve against a Python elimination oracle."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebbvp.banded import (
    BandedMatrix,
    SingularSystemError,
    _equilibrate_rows,
    banded_factor,
    banded_solve,
    dense_solve,
)

from elimination import elimination_solve


def random_banded(n, kl, ku, seed, dominant=True):
    rng = np.random.default_rng(seed)
    diags = {}
    for d in range(-kl, ku + 1):
        diags[d] = rng.standard_normal(n - abs(d))
    if dominant:
        diags[0] = diags[0] + (kl + ku + 2.0) * np.sign(diags[0])
    return BandedMatrix.from_diagonals(n, kl, ku, diags)


class TestBandedMatrix:
    def test_out_of_band_entry_is_exact_zero(self):
        dense = random_banded(6, 1, 1, seed=0).todense()
        assert dense[0, 3] == 0.0
        assert dense[5, 2] == 0.0

    def test_dense_agrees_with_entry(self):
        # LAPACK band layout: A[i, j] = bands[ku + i - j, j] inside the band, 0 outside
        a = random_banded(7, 2, 2, seed=1)
        dense = a.todense()
        for i in range(7):
            for j in range(7):
                inside = -a.kl <= j - i <= a.ku
                assert dense[i, j] == (a.bands[a.ku + i - j, j] if inside else 0.0)

    def test_rejects_wide_band(self):
        with pytest.raises(ValueError):
            BandedMatrix.from_diagonals(2, 2, 0, {0: np.ones(2)})


class TestBandedFactorSolve:
    def test_identity_stored_tridiagonal(self):
        a = BandedMatrix.from_diagonals(5, 1, 1, {0: np.ones(5)})
        f = banded_factor(a)
        rhs = np.arange(5.0)
        np.testing.assert_array_equal(banded_solve(f, rhs), rhs)

    def test_permutation_needs_pivoting(self):
        a = BandedMatrix.from_diagonals(2, 1, 1, {1: [1.0], -1: [1.0]})
        f = banded_factor(a)
        np.testing.assert_allclose(banded_solve(f, [1.0, 2.0]), [2.0, 1.0])

    def test_zero_rhs(self):
        f = banded_factor(random_banded(8, 2, 2, seed=2))
        np.testing.assert_array_equal(banded_solve(f, np.zeros(8)), np.zeros(8))

    def test_scaled_identity(self):
        a = BandedMatrix.from_diagonals(6, 1, 1, {0: 2.0 * np.ones(6)})
        f = banded_factor(a)
        e3 = np.zeros(6)
        e3[3] = 1.0
        np.testing.assert_allclose(banded_solve(f, e3), e3 / 2.0)

    def test_pentadiagonal_matches_dense_oracle(self):
        a = random_banded(64, 2, 2, seed=3)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(64)
        x = banded_solve(banded_factor(a), rhs)
        oracle = elimination_solve(a.todense(), rhs)
        np.testing.assert_allclose(x, oracle, rtol=1e-12, atol=1e-12)

    def test_singular_reports_column(self):
        a = BandedMatrix.from_diagonals(3, 1, 1, {0: [1.0, 0.0, 1.0]})
        with pytest.raises(SingularSystemError) as exc:
            banded_factor(a)
        assert exc.value.column is not None

    def test_factors_are_read_only_and_solved_without_a_copy(self):
        # the solver's cache shares these arrays between threads (README "Concurrency")
        n = 100_000
        f = banded_factor(random_banded(n, 2, 2, seed=6))
        assert not f.lu.flags.writeable and not f.ipiv.flags.writeable
        with pytest.raises(ValueError):
            f.lu[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.ipiv[0] = 0
        rhs = np.random.default_rng(7).standard_normal(n)
        tracemalloc.start()
        try:
            x = banded_solve(f, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * rhs.nbytes < f.lu.nbytes / 3
        np.testing.assert_array_equal(x, banded_solve(banded_factor(random_banded(n, 2, 2, seed=6)), rhs))

    def test_dimension_mismatch(self):
        f = banded_factor(random_banded(5, 1, 1, seed=5))
        with pytest.raises(ValueError):
            banded_solve(f, np.ones(4))

    @given(st.integers(3, 64), st.integers(1, 2), st.integers(1, 2), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_banded_vs_dense_property(self, n, kl, ku, seed):
        kl, ku = min(kl, n - 1), min(ku, n - 1)
        a = random_banded(n, kl, ku, seed=seed)
        rhs = np.random.default_rng(seed + 1).standard_normal(n)
        x = banded_solve(banded_factor(a), rhs)
        oracle = elimination_solve(a.todense(), rhs)
        np.testing.assert_allclose(x, oracle, rtol=1e-12, atol=1e-12)

    @given(st.integers(4, 256), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_residual_property(self, n, seed):
        a = random_banded(n, 2, 2, seed=seed)
        rhs = np.random.default_rng(seed + 7).standard_normal(n)
        x = banded_solve(banded_factor(a), rhs)
        res = np.max(np.abs(a.todense() @ x - rhs))
        scale = np.max(np.abs(a.bands)) * max(np.max(np.abs(x)), 1e-300)
        assert res <= 1e-13 * n * scale

    def test_factor_once_solve_many_bitwise(self):
        a = random_banded(32, 2, 2, seed=9)
        f = banded_factor(a)
        rng = np.random.default_rng(10)
        rhss = rng.standard_normal((4, 32))
        once = [banded_solve(f, r) for r in rhss]
        again = [banded_solve(banded_factor(a), r) for r in rhss]
        for x, y in zip(once, again):
            np.testing.assert_array_equal(x, y)


class TestDenseSolve:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(dense_solve(np.eye(3), rhs.copy()), rhs)

    def test_hand_2x2(self):
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(dense_solve(a, np.array([3.0, 1.0])), [2.0, 1.0])

    def test_singular_reported(self):
        with pytest.raises(SingularSystemError, match="exactly singular") as exc:
            dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
        assert exc.value.column == 1  # LAPACK's zero pivot, where the elimination oracle reports it

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_residual_8x8(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        rhs = rng.standard_normal(8)
        x = dense_solve(a.copy(), rhs.copy())
        assert np.max(np.abs(a @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    @given(st.integers(2, 24), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_elimination_oracle_on_graded_rows(self, n, seed):
        # row scales spanning 1e-150..1e150, which the power-of-two
        # equilibration takes out before the LU
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        x_true = rng.standard_normal(n)
        scales = 10.0 ** rng.uniform(-150, 150, n)
        a *= scales[:, None]
        rhs = a @ x_true
        oracle = elimination_solve(a, rhs)
        x = dense_solve(a.copy(), rhs.copy())
        np.testing.assert_allclose(x, oracle, rtol=1e-10, atol=1e-10 * np.max(np.abs(oracle)))

    def test_works_in_place(self):
        # the caller's arrays hold the row-scaled system afterwards
        a = np.array([[3.0, 1.0], [0.25, 0.125]])
        rhs = np.array([5.0, 0.5])
        x = dense_solve(a, rhs)
        np.testing.assert_array_equal(a, [[0.75, 0.25], [0.5, 0.25]])
        np.testing.assert_array_equal(rhs, [1.25, 1.0])
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_copies_nothing(self):
        # a Fortran-ordered system, as both callers allocate it, is factored
        # where it lies; a C-ordered one is factored in a copy to the same bits
        n = 1000
        rng = np.random.default_rng(11)
        a = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
        rhs = rng.standard_normal(n)
        a_f, rhs_f = np.asfortranarray(a), rhs.copy()
        tracemalloc.start()
        try:
            x = dense_solve(a_f, rhs_f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * n * n
        np.testing.assert_array_equal(dense_solve(a, rhs), x)

    def test_resident_memory_grows_by_no_copy(self):
        # tracemalloc cannot see what LAPACK allocates with malloc, so the
        # process's peak resident size is read around the solve in a fresh
        # interpreter; the system is 8 n^2 bytes
        n = 2000
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", RSS_SCRIPT, str(n)], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) < 0.1 * 8 * n * n


RSS_SCRIPT = """
import resource
import sys

import numpy as np
from scipy.linalg import lapack

from chebbvp.banded import dense_solve

n = int(sys.argv[1])
# OpenBLAS sizes its packing buffers by n and keeps them for the process:
# fault them in with an LU outside dense_solve first
lapack.dgetrf(np.eye(n, order="F"), overwrite_a=True)
a = np.empty((n, n), order="F")
rng = np.random.default_rng(13)
rng.standard_normal(out=a)
a[np.diag_indices(n)] += np.sqrt(n)
rhs = rng.standard_normal(n)
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, KiB on Linux
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
dense_solve(a, rhs)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * unit)
"""


class TestEquilibrateRows:
    def test_row_maxima_in_half_open_unit_interval(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-200, 200, 6)[:, None]
        rhs = rng.standard_normal(6)
        a0, rhs0 = a.copy(), rhs.copy()
        _equilibrate_rows(a, rhs)
        row_max = np.max(np.abs(a), axis=1)
        assert np.all((0.5 <= row_max) & (row_max < 1.0))
        # one exact power of two per row, applied to the row and its rhs entry
        scale = a[:, 0] / a0[:, 0]
        assert np.all(np.frexp(scale)[0] == 0.5)
        np.testing.assert_array_equal(a, a0 * scale[:, None])
        np.testing.assert_array_equal(rhs, rhs0 * scale)

    def test_zero_row_left_alone(self):
        a = np.array([[0.0, 0.0], [-3.0, 1.0]])
        rhs = np.array([0.0, 6.0])
        _equilibrate_rows(a, rhs)
        np.testing.assert_array_equal(a, [[0.0, 0.0], [-0.75, 0.25]])
        np.testing.assert_array_equal(rhs, [0.0, 1.5])


class TestEliminationOracle:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(elimination_solve(np.eye(3), rhs), rhs)

    def test_hand_2x2(self):
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(elimination_solve(a, [3.0, 1.0]), [2.0, 1.0])

    def test_singular_reports_column(self):
        with pytest.raises(SingularSystemError) as exc:
            elimination_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])
        assert exc.value.column == 1

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_residual_8x8(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        rhs = rng.standard_normal(8)
        x = elimination_solve(a, rhs)
        assert np.max(np.abs(a @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
