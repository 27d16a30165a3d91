"""Truncated banded solves against the full LAPACK solve they replace.

``banded_solve`` stops a large solve where its solution has underflowed.
The oracle here is one full ``dgbtrs`` on the whole factorization, the call
every banded solve made before the truncation: directly on edge-case
systems, and patched in where the chains call ``banded_solve`` on the
boundary-layer tables.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from chebbvp import factored, integration
from chebbvp.banded import BandedMatrix, banded_factor, banded_solve
from chebbvp.chebyshev import cheb_points, to_values
from chebbvp.cli import builtin_spec_text, main, sweep_cell
from chebbvp.factored import BoundaryCondition, OperatorFactorization, solve_bvp
from chebbvp.integration import FirstOrderOp, SecondOrderOp, first_order_matrix
from chebbvp.problems import exact_function, parse_problem

TINY = np.finfo(float).tiny
SPECS = sorted((Path(__file__).resolve().parents[1] / "src" / "chebbvp" / "specs").glob("*.spec"))


def full_solve(f, rhs):
    """One dgbtrs over every row of f."""
    x, info = lapack.dgbtrs(f.lu, f.kl, f.ku, np.asarray(rhs, dtype=float)[:, None], f.ipiv)
    assert info == 0
    return x[:, 0]


def layer_system(n, a=1e4):
    """(D - a) on n rows with forcing T_0: a solution falling like e^(-j^2/2a), subnormal past row ~3.8k."""
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return banded_factor(first_order_matrix(FirstOrderOp(a), n + 1)), rhs


def has_subnormals(x):
    return bool(np.any((x != 0) & (np.abs(x) < TINY)))


class TestTruncatedSolve:
    def test_underflowed_tail_becomes_exact_zeros(self):
        f, rhs = layer_system(65535)
        x, full = banded_solve(f, rhs), full_solve(f, rhs)
        assert has_subnormals(full) and not has_subnormals(x)
        assert np.max(np.abs(x - full)) < 1e-280
        assert not np.any(x[8192:])

    def test_just_below_the_gate_is_the_full_solve(self):
        f, rhs = layer_system(32767)
        full = full_solve(f, rhs)
        assert has_subnormals(full)  # a truncation would have zeroed them
        np.testing.assert_array_equal(banded_solve(f, rhs), full)

    def test_normal_last_entry_is_the_full_solve(self):
        f, _ = layer_system(65535)
        rhs = np.random.default_rng(11).standard_normal(65535)
        np.testing.assert_array_equal(banded_solve(f, rhs), full_solve(f, rhs))

    def test_zero_rhs(self):
        f, rhs = layer_system(65535)
        np.testing.assert_array_equal(banded_solve(f, np.zeros_like(rhs)), np.zeros_like(rhs))

    def test_pivot_crossing_the_first_rows(self):
        # identity but for rows c, c + 1 = [0 1; t 1]: column c pivots on row c + 1.  The rhs's last normal
        # entry is row 0, so the first try solves rows 0..c, and t x_c = rhs[c + 1] = 1e-310 gives x_c = 1e-10
        # only if the interchange of rows c and c + 1 is kept.
        n, c, t = 32768, 2048, 1e-300
        diag, sub, sup = np.ones(n), np.zeros(n - 1), np.zeros(n - 1)
        diag[c], sub[c], sup[c] = 0.0, t, 1.0
        f = banded_factor(BandedMatrix.from_diagonals(n, 1, 1, {0: diag, -1: sub, 1: sup}))
        assert f.ipiv[c] == c + 1
        rhs = np.zeros(n)
        rhs[0], rhs[c + 1] = 1.0, 1e-310
        x = banded_solve(f, rhs)
        np.testing.assert_array_equal(x, full_solve(f, rhs))
        assert x[c] == pytest.approx(1e-10)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [10, -5000, -1])
    def test_non_finite_rhs_reaches_the_full_solve(self, row, value):
        f, rhs = layer_system(65535)
        rhs[row] = value
        x, full = banded_solve(f, rhs), full_solve(f, rhs)
        assert not np.all(np.isfinite(full))
        np.testing.assert_array_equal(x, full)  # NaNs in the same entries


def full_then_truncated(solve):
    """solve() with every chain solve a full dgbtrs, then with banded_solve, each on a fresh homogeneous basis."""
    out = []
    for solver in (full_solve, banded_solve):
        factored.homogeneous_basis.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integration, "banded_solve", solver)
            out.append(solve())
    factored.homogeneous_basis.cache_clear()
    return out


def layer_problem(kind, a):
    """(operator, f, bcs, exact) of the table 1a, 1c and 1e boundary layers at parameter a (1e: b = 2a)."""
    D = BoundaryCondition.dirichlet
    if kind == "1a":
        op = OperatorFactorization(linear=(FirstOrderOp(-a),))
        return op, lambda y: np.full_like(y, a), [D(-1, 0.0)], exact_function(f"saturating_exp:{a!r}")
    if kind == "1c":
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(a)))
        return op, lambda y: np.zeros_like(y), [D(-1, 1.0), D(1, 2.0)], exact_function(f"exp_ramp:{a!r}:1:2")
    b = 2.0 * a
    if kind == "1e_linear":
        op = OperatorFactorization(linear=(FirstOrderOp(a), FirstOrderOp(-a), FirstOrderOp(b), FirstOrderOp(-b)))
    else:
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -a * a), SecondOrderOp(0.0, -b * b)))
    clamped = [D(-1, 0.0), D(1, 0.0), BoundaryCondition.derivative(-1, 1, 0.0), BoundaryCondition.derivative(1, 1, 0.0)]
    return op, lambda y: np.full_like(y, a * a * b * b), clamped, exact_function(f"cosh_pair:{a!r}:{b!r}")


def subnormals(sol):
    """Nonzero entries below tiny in every chain level of a solution."""
    return sum(int(np.count_nonzero((c.a != 0) & (abs(c.a) < TINY))) for lv in sol.chain.levels.values() for c in lv)


@pytest.mark.parametrize("a", [1e4, 1e5, 1e6])
@pytest.mark.parametrize("m", [65536, 131072])
@pytest.mark.parametrize("kind", ["1a", "1c", "1e_linear", "1e_quadratic"])
def test_boundary_layers_match_the_full_solve(kind, m, a):
    op, f, bcs, exact = layer_problem(kind, a)
    full, truncated = full_then_truncated(lambda: solve_bvp(op, f, bcs, m=m))
    np.testing.assert_array_equal(truncated.constants, full.constants)
    assert np.max(np.abs(truncated.coeffs.a - full.coeffs.a)) < 1e-280
    y = cheb_points(m).points
    errors = [np.max(np.abs(to_values(s.coeffs).v - exact(y))) for s in (full, truncated)]
    assert errors[1] == errors[0]
    # the truncation took effect: it leaves fewer subnormal chain entries.  At M = 65536 and a = 1e6 the
    # homogeneous chains are still normal at row 32800, the last k below n, so their solves end in the full one.
    left, before = subnormals(truncated), subnormals(full)
    assert left < before if m == 131072 else left <= before


@pytest.mark.parametrize("table", ["1a", "1b", "1c", "1e"])
def test_large_table_rows_match_the_full_solve(table):
    # the [sweep] rows at M >= 32768, the only ones a truncated solve reaches
    spec = parse_problem(builtin_spec_text(f"table{table}.spec"))
    rows = [grid for _, grid in spec.sweep.rows if grid >= 32768]
    assert rows
    for grid in rows:
        for column in spec.sweep.columns:
            full, truncated = full_then_truncated(lambda: sweep_cell(replace(spec, grid=grid), column))
            assert truncated == full


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name)
def test_solve_stdout_matches_the_full_solve(spec, capsys):
    def solve():
        return main(["solve", str(spec), "--backend", "spectral"]), capsys.readouterr().out

    full, truncated = full_then_truncated(solve)
    assert truncated == full
