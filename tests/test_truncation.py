"""Truncated chain solves against the full LAPACK solve they replace.

A particular solve whose right-hand side ends below tiny is first made on
a smaller grid's banded system (``integration._particular``).  The oracle
here is one full ``dgbtrs`` on the order-M factorization, the call every
chain solve made before the truncation: directly on edge-case right-hand
sides, and patched in at ``integration._particular`` on the boundary-layer
tables.
"""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from chebbvp import factored, integration, piecewise
from chebbvp.chebyshev import (
    ChebCoeffs,
    GridValues,
    _support,
    cheb_points,
    double_integral_rows,
    function_to_coeffs,
    integral_rows,
    to_coeffs,
    to_values,
)
from chebbvp.cli import builtin_spec_text, main, sweep_cell
from chebbvp.factored import BoundaryCondition, OperatorFactorization, fit_boundary, solve_chains
from chebbvp.integration import (
    FirstOrderOp,
    SecondOrderOp,
    _first_order_factorization,
    _second_order_factorization,
    first_order_particular,
    second_order_particular,
)
from chebbvp.problems import exact_function, parse_problem

TINY = np.finfo(float).tiny
SPECS = sorted((Path(__file__).resolve().parents[1] / "src" / "chebbvp" / "specs").glob("*.spec"))


def full_solve(f, rhs):
    """One dgbtrs over every row of f."""
    x, info = lapack.dgbtrs(f.lu, f.kl, f.ku, np.asarray(rhs, dtype=float)[:, None], f.ipiv)
    assert info == 0
    return x[:, 0]


def full_particular(factorization, op, rho, m, g, support):
    """integration._particular as it was before the truncation: one dgbtrs on the order-M factorization.

    support, g[support:] all +0.0, is not used: every row of g is solved.
    """
    a = np.zeros(m + 1)
    a[m - len(g) : m] = full_solve(factorization(op, m), g)
    return ChebCoeffs(m, a)


def chain_and_full(g, a=1e4, m=65536):
    """The chain solve of rows g through (D - a) on the order-m grid, and the full solve, as level arrays."""
    args = (_first_order_factorization, FirstOrderOp(a), abs(a), m, g, _support(g))
    return integration._particular(*args).a[1:m], full_particular(*args).a[1:m]


def layer_rows(m=65536):
    """Rows forced by T_0 alone: through (D - 1e4) a solution falling like e^(-j^2/2e4), subnormal past row ~3.8k."""
    g = np.zeros(m - 1)
    g[0] = 1.0
    return g


def assert_zero_past_support(c):
    """c.a[c.support:] is +0.0 bit for bit, and support <= M."""
    assert 0 <= c.support <= c.m
    assert not c.a.view(np.int64)[c.support :].any()


def has_subnormals(x):
    return bool(np.any((x != 0) & (np.abs(x) < TINY)))


class TestTruncatedSolve:
    def test_underflowed_tail_becomes_exact_zeros(self):
        x, full = chain_and_full(layer_rows())
        assert has_subnormals(full) and not has_subnormals(x)
        assert np.max(np.abs(x - full)) < 1e-280
        assert not np.any(x[8192:])

    def test_just_below_the_gate_is_the_full_solve(self):
        # 4096 rows: the smallest leading system is no smaller, so the solve is the full one
        x, full = chain_and_full(layer_rows(4097), m=4097)
        assert has_subnormals(full)  # a truncation would have zeroed them
        np.testing.assert_array_equal(x, full)

    def test_normal_last_entry_is_the_full_solve(self):
        g = np.random.default_rng(11).standard_normal(65535)
        x, full = chain_and_full(g)
        np.testing.assert_array_equal(x, full)

    def test_normal_entries_past_the_last_leading_system_are_the_full_solve(self):
        # g ends in +0.0 but is normal up to its last row but one: K would exceed n, so the solve is the full one
        g = np.random.default_rng(11).standard_normal(65535)
        g[-1] = 0.0
        x, full = chain_and_full(g)
        np.testing.assert_array_equal(x, full)

    def test_zero_rhs(self):
        x, _ = chain_and_full(np.zeros(65535))
        np.testing.assert_array_equal(x, np.zeros(65535))

    def test_pivot_crossing_the_first_rows(self):
        # (D^2 + 3e5 D + 2e10) = (D + 1e5)(D + 2e5): the order-M factorization's row interchanges cross row K, so
        # the order-(K + 2) factors differ from its leading columns, yet the leading solve keeps every normal entry
        m, op = 65536, SecondOrderOp(3e5, 2e10)
        f = ChebCoeffs.unit(m, 0)
        full, x = full_then_truncated(lambda: second_order_particular(op, f).a[2:m])
        k = int(np.flatnonzero(x)[-1]) + 1
        assert k < 20480 < m - 2
        assert _second_order_factorization(op, m).ipiv[:20480].max() >= 20480
        normal = np.abs(full) >= TINY
        np.testing.assert_array_equal(x[normal], full[normal])
        assert np.max(np.abs(x - full)) < 1e-280 and has_subnormals(full) and not has_subnormals(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [10, -5000, -1])
    def test_non_finite_rhs_reaches_the_full_solve(self, row, value):
        g = layer_rows()
        g[row] = value
        x, full = chain_and_full(g)
        assert not np.all(np.isfinite(full))
        np.testing.assert_array_equal(x, full)  # NaNs in the same entries

    def test_missed_prediction_falls_back_to_the_full_solve(self, monkeypatch):
        # u'' + 1e8 u: complex roots +-1e4 i, whose chain (Bessel J_n(1e4)) does not decay before row 1e4.  The
        # prediction, made as for a real root of that size, solves 8192 rows; their tail is normal, so the full
        # solve follows and is kept as it is.
        m, op = 65536, SecondOrderOp(0.0, 1e8)
        f = ChebCoeffs.unit(m, 0)
        sizes, solve = [], integration.banded_solve
        monkeypatch.setattr(integration, "banded_solve", lambda fac, rhs: sizes.append(fac.n) or solve(fac, rhs))
        x = second_order_particular(op, f).a[2:m]
        assert sizes == [8192, m - 2]
        np.testing.assert_array_equal(x, full_solve(_second_order_factorization(op, m), double_integral_rows(f)))

    def test_huge_rhs_warns_nothing(self):
        g = layer_rows()
        g[0] = 1e300  # peak / tiny overflows; the budget is taken in logs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, full = chain_and_full(g)
        assert not np.any(x[8192:]) and np.all(np.isfinite(x))
        normal = np.abs(full) >= TINY
        np.testing.assert_array_equal(x[normal], full[normal])

    @pytest.mark.parametrize("rho", [1e-3, 1.0, 1e4, 1e6, 1e12])
    def test_underflow_row_is_the_least_row_whose_decay_reaches_the_budget(self, rho):
        # brute force over every row; at rho = 1e12 the decay never reaches budgets >= 1e-2 below row 65536
        limits = (0, 1, 2, 3, 100, 4095, 12288, 65536)
        decay = np.array([j * math.asinh(j / rho) - j * j / (math.hypot(j, rho) + rho) for j in range(limits[-1])])
        assert np.all(np.diff(decay) > 0)
        for budget in (-math.inf, -1.0, 0.0, 1e-3, 1e-2, 1.0, 40.0, 700.0, 1480.0, 1e6, 1e15):
            for limit in limits:
                reached = np.flatnonzero(decay[:limit] >= budget)
                least = int(reached[0]) if reached.size else limit
                assert integration._underflow_row(rho, budget, limit) == least, (budget, limit)

    def test_underflow_row_without_decay_is_zero(self):
        # rho = 0, the factor D: the chain ends where its right-hand side does
        for budget in (-math.inf, 0.0, 1.0, 1e15):
            for limit in (0, 1, 4095, 65536):
                assert integration._underflow_row(0.0, budget, limit) == 0

    def test_too_small_orders_raise(self):
        with pytest.raises(ValueError, match="M >= 3"):
            first_order_particular(FirstOrderOp(1.0), ChebCoeffs.zeros(2))
        with pytest.raises(ValueError, match="M >= 5"):
            second_order_particular(SecondOrderOp(1.0, 1.0), ChebCoeffs.zeros(4))

    @pytest.mark.parametrize(
        "factorization, op, r",
        [
            (_first_order_factorization, FirstOrderOp(1e6), 1),
            (_second_order_factorization, SecondOrderOp(0.0, -1e12), 2),
            (_second_order_factorization, SecondOrderOp(3e6, 2e12), 2),  # interchanges cross row K
        ],
    )
    def test_smaller_order_factors_are_the_leading_columns(self, factorization, op, r):
        # row n of the system depends on n alone, so the order-(K + r) system is the order-M one's leading K rows
        m, k = 65536, 20480
        big, small = factorization(op, m), factorization(op, k + r)
        assert small.n == k
        lead = k - big.kl  # columns whose pivot search and multipliers lie inside the leading K rows
        np.testing.assert_array_equal(small.lu[:, :lead], big.lu[:, :lead])
        np.testing.assert_array_equal(small.ipiv[:lead], big.ipiv[:lead])
        # inside the leading K x K block the factors agree in every column unless an interchange crosses row K
        band_row = np.arange(big.lu.shape[0])[:, None] - big.kl - big.ku + np.arange(k)
        inside = band_row < k
        if big.ipiv[:k].max() < k:
            np.testing.assert_array_equal(small.lu[inside], big.lu[:, :k][inside])
            np.testing.assert_array_equal(small.ipiv, big.ipiv[:k])
        else:
            assert not np.array_equal(small.lu[inside], big.lu[:, :k][inside])


class TestSupport:
    """Every chain producer hands over a support past which its coefficients are +0.0."""

    @pytest.mark.parametrize(
        "op, particular, factorization, stencil",
        [
            (FirstOrderOp(1e4), first_order_particular, _first_order_factorization, integral_rows),
            (SecondOrderOp(0.0, -1e8), second_order_particular, _second_order_factorization, double_integral_rows),
        ],
    )
    def test_truncated_and_full_particular_solves(self, monkeypatch, op, particular, factorization, stencil):
        m = 65536
        sizes, solve = [], integration.banded_solve
        monkeypatch.setattr(integration, "banded_solve", lambda fac, rhs: sizes.append(fac.n) or solve(fac, rhs))
        truncated = particular(op, ChebCoeffs.unit(m, 0))
        assert sizes[-1] < m - 2 and truncated.support < 8192  # the leading solve was kept
        assert_zero_past_support(truncated)
        dense = ChebCoeffs(m, np.random.default_rng(3).standard_normal(m + 1))
        full = particular(op, dense)
        assert sizes[-1] == len(stencil(dense))  # the order-M system
        assert_zero_past_support(full)
        assert full.support == m
        assert full.a.tobytes() == full_particular(factorization, op, 0.0, m, stencil(dense), m).a.tobytes()

    @pytest.mark.parametrize("kind", ["1a", "1c", "1e_linear", "1e_quadratic"])
    @pytest.mark.parametrize("m", [8192, 65536])
    def test_homogeneous_starts_chains_and_combination(self, kind, m):
        op, f, bcs, _ = layer_problem(kind, 1e4)
        factored.homogeneous_basis.cache_clear()
        chain, sol = chain_and_solution(op, f, bcs, m)
        chains = [c for level in chain.levels.values() for c in level]
        for c in chains + [sol.coeffs]:
            assert_zero_past_support(c)
        assert sol.coeffs.support == max(c.support for c in chain.levels[0])
        if m == 65536:  # the chains truncated, and the combination kept their short support
            assert sol.coeffs.support < m // 4
        factored.homogeneous_basis.cache_clear()

    def test_piecewise_scaled_rhs_that_underflows(self, monkeypatch):
        # on a width-2e-150 interval the order-2 scale h^2 = 1e-300 takes the right-hand side's 1e-30 to zero
        grid = piecewise.PiecewiseGrid(np.array([-1.0, 0.0, 2e-150, 1.0]), (16, 16, 16))
        seen, solve = [], piecewise.solve_chains
        monkeypatch.setattr(piecewise, "solve_chains", lambda op, f: seen.append(f) or solve(op, f))
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0),))
        D = BoundaryCondition.dirichlet
        piecewise.piecewise_solve_spectral(op, lambda y: np.full_like(y, 1e-30), grid, [D(-1, 0.0), D(1, 0.0)])
        fc = to_coeffs(GridValues(16, np.full(17, 1e-30)))
        assert fc.support > 0 and seen[1].support == 0 and not np.any(seen[1].a)
        for f in seen:
            assert_zero_past_support(f)


def full_then_truncated(solve):
    """solve() with every chain solve a full dgbtrs, then with the truncation, each on a fresh homogeneous basis.

    The truncated run must make one banded solve per chain solve: no leading solve is wasted on a missed
    prediction.
    """
    out, calls = [], {"chain": 0, "banded": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for particular in (full_particular, integration._particular):
        factored.homogeneous_basis.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integration, "_particular", counted("chain", particular))
            mp.setattr(integration, "banded_solve", counted("banded", integration.banded_solve))
            out.append(solve())
        if particular is full_particular:
            calls.update(chain=0, banded=0)
    factored.homogeneous_basis.cache_clear()
    assert calls["banded"] == calls["chain"]
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


def chain_and_solution(op, f, bcs, m):
    """What solve_bvp(op, f, bcs, m) runs, with the chains it fits."""
    chain = solve_chains(op, function_to_coeffs(f, m))
    return chain, fit_boundary(chain, bcs)


def subnormals(chain):
    """Nonzero entries below tiny in every level of the chains."""
    return sum(int(np.count_nonzero((c.a != 0) & (abs(c.a) < TINY))) for lv in chain.levels.values() for c in lv)


@pytest.mark.parametrize("a", [1e4, 1e5, 1e6])
@pytest.mark.parametrize("m", [8192, 16384, 65536, 131072])
@pytest.mark.parametrize("kind", ["1a", "1c", "1e_linear", "1e_quadratic"])
def test_boundary_layers_match_the_full_solve(kind, m, a):
    op, f, bcs, exact = layer_problem(kind, a)
    (full_chain, full), (truncated_chain, truncated) = full_then_truncated(lambda: chain_and_solution(op, f, bcs, m))
    np.testing.assert_array_equal(truncated.constants, full.constants)
    assert np.max(np.abs(truncated.coeffs.a - full.coeffs.a)) < 1e-280
    y = cheb_points(m).points
    errors = [np.max(np.abs(to_values(s.coeffs).v - exact(y))) for s in (full, truncated)]
    assert errors[1] == errors[0]
    # the truncation took effect: it leaves fewer subnormal chain entries.  At M = 8192, and at M = 16384 with
    # a >= 1e5, the chains of these layers underflow too late for a leading system of fewer rows than M.
    left, before = subnormals(truncated_chain), subnormals(full_chain)
    assert left < before if m >= 65536 or (m == 16384 and a == 1e4) else left <= before


@pytest.mark.parametrize("table", ["1a", "1b", "1c", "1d", "1e"])
def test_large_table_rows_match_the_full_solve(table):
    # the [sweep] rows at M >= 8192, the only ones with more rows than the smallest leading system
    spec = parse_problem(builtin_spec_text(f"table{table}.spec"))
    rows = [grid for _, grid in spec.sweep.rows if grid >= 8192]
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
