"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Errors against exact solutions are sup norms over the solution's own
(Chebyshev-clustered) collocation points, the metric of the reference
tables.
"""

import time
from dataclasses import replace

import numpy as np

from chebbvp import clear_caches
from chebbvp.banded import banded_factor, banded_solve
from chebbvp.chebyshev import (
    ChebCoeffs,
    GridValues,
    cheb_points,
    eval_series,
    integrate_coeffs,
    to_coeffs,
    to_values,
)
from chebbvp.cli import builtin_spec_text, run, spectrum, sweep_cell
from chebbvp.diagnostics import condition_vs_parameter
from chebbvp.factored import BoundaryCondition, OperatorFactorization, solve_bvp
from chebbvp.integration import FirstOrderOp, SecondOrderOp
from chebbvp.piecewise import sample_piecewise
from chebbvp.problems import parse_problem

from elimination import elimination_solve

D = BoundaryCondition.dirichlet


def report(criterion: str, value, bound, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}  (got {value:.3g}, bound {bound:.3g})")
    return passed


def grid_error(sol, exact):
    y = cheb_points(sol.coeffs.m).points
    return float(np.max(np.abs(to_values(sol.coeffs).v - exact(y))))


def shipped(name):
    return parse_problem(builtin_spec_text(name))


def test_criterion_1_table_1a_error_and_runtime():
    spec = shipped("table1a.spec")
    assert spec.grid == 8192
    clear_caches()  # a cold run: no factorization, basis or endpoint row kept
    t0 = time.perf_counter()
    err = run(spec).error
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-9 and elapsed <= 2.0
    assert report("1 (table 1a, M=8192)", err, 1e-9, ok)
    print(f"  runtime {elapsed:.3f}s (bound 2s)")


def test_criterion_2_table_1b_cancellation():
    spec = shipped("table1b.spec")
    assert spec.grid == 16
    err = run(spec).error
    assert report("2 (table 1b, M=16)", err, 1e-12, err <= 1e-12)


def test_criterion_3_table_1d():
    spec = shipped("table1d.spec")
    assert spec.grid == 32
    err = run(spec).error
    assert report("3 (table 1d, M=32)", err, 1e-12, err <= 1e-12)


def test_criterion_4_table_1e_both_factorizations():
    spec = shipped("table1e.spec")
    assert spec.grid == 16384
    # the linear (D - a)(D + a)(D - b)(D + b) and the quadratic factorization
    e1, e2 = (sweep_cell(spec, column) for column in spec.sweep.columns)
    assert report("4 (table 1e, M=16384, both factorizations)", max(e1, e2), 1e-7, max(e1, e2) <= 1e-7)


def sweep_row(name, index):
    """The spec on the grid of one of its [sweep] rows."""
    spec = shipped(name)
    return replace(spec, grid=spec.sweep.rows[index][1])


def test_criterion_5_table_3_last_row():
    spec = sweep_row("table3.spec", -1)
    assert sum(spec.grid.orders) == 96
    e1, e2 = run(spec, "spectral").error, run(spec, "diffmat").error
    assert report("5 (table 3 last row, 96 points)", max(e1, e2), 1e-9, e1 <= 1e-9 and e2 <= 1e-9)


def test_criterion_6_table_4_row_1():
    spec = sweep_row("table4.spec", 0)
    (column,) = spec.sweep.columns  # the overshoot beyond the boundary values -1 and 1
    ov = sweep_cell(spec, column)
    assert report("6 (table 4 row 1 overshoot)", ov, 1e-12, ov <= 1e-12)


def test_criterion_7_condition_slope_and_localization():
    table = condition_vs_parameter([10.0, 100.0, 1000.0], 256)
    conds = [c for _, c in table]
    slope = float(np.polyfit(np.log10([10.0, 100.0, 1000.0]), np.log10(conds), 1)[0])
    rep = spectrum(shipped("fig2.spec"))
    loc_first, loc_120 = float(rep.localization[0]), float(rep.localization[119])
    ok = 1.8 <= slope <= 2.2 and loc_first >= 0.9 and loc_120 <= 0.1
    assert report("7 (condition slope / localization)", slope, 2.0, ok)
    print(f"  localization: first {loc_first:.3f} (>=0.9), 120th {loc_120:.3f} (<=0.1)")


def _banded_vs_dense_worst():
    worst = 0.0
    rng = np.random.default_rng(42)
    from chebbvp.banded import BandedMatrix

    for n in (8, 16, 32, 64):
        diags = {d: rng.standard_normal(n - abs(d)) for d in range(-2, 3)}
        diags[0] += 6.0 * np.sign(diags[0])
        a = BandedMatrix.from_diagonals(n, 2, 2, diags)
        rhs = rng.standard_normal(n)
        x = banded_solve(banded_factor(a), rhs)
        ref = elimination_solve(a.todense(), rhs)
        worst = max(worst, np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300))
    return worst


def _roundtrip_worst():
    worst = 0.0
    rng = np.random.default_rng(7)
    for m in (64, 1024, 4096):
        v = rng.standard_normal(m + 1)
        clean = to_values(to_coeffs(GridValues(m, v)))
        again = to_values(to_coeffs(clean))
        worst = max(worst, float(np.max(np.abs(again.v - clean.v))))
    return worst


def _recurrence_vs_symbolic_worst():
    import sympy

    y = sympy.Symbol("y")
    worst = 0.0
    for n in range(11):
        anti = sympy.integrate(sympy.chebyshevt(n, y), y)
        out = integrate_coeffs(ChebCoeffs.unit(16, n))
        shift = eval_series(out, 0.0) - float(anti.subs(y, 0))
        for yv in (-1.0, -0.375, 0.25, 1.0):
            expect = float(anti.subs(y, sympy.Rational(yv))) + shift
            worst = max(worst, abs(eval_series(out, yv) - expect))
    return worst


def _manufactured_worst():
    cases = []
    # first order: (D - 1) u = f, u0 = e^y sin(2y)... keep analytic: u0 = cos(2y)
    u0 = np.cos
    cases.append(
        (
            OperatorFactorization(linear=(FirstOrderOp(1.0),)),
            lambda y: -np.sin(y) - np.cos(y),
            [D(1, np.cos(1.0))],
            u0,
            24,
        )
    )
    # full quadratic: (D^2 + 2D + 5) u0 = f, u0 = sin(pi y)
    cases.append(
        (
            OperatorFactorization(quadratic=(SecondOrderOp(2.0, 5.0),)),
            lambda y: (5 - np.pi**2) * np.sin(np.pi * y) + 2 * np.pi * np.cos(np.pi * y),
            [D(-1, 0.0), D(1, 0.0)],
            lambda y: np.sin(np.pi * y),
            32,
        )
    )
    # all-linear fourth order: (D-1)(D+1)(D-2)(D+2) u = (pi^2+1)(pi^2+4) sin(pi y)
    cases.append(
        (
            OperatorFactorization(
                linear=(FirstOrderOp(1.0), FirstOrderOp(-1.0), FirstOrderOp(2.0), FirstOrderOp(-2.0))
            ),
            lambda y: (np.pi**2 + 1) * (np.pi**2 + 4) * np.sin(np.pi * y),
            [
                D(-1, 0.0),
                D(1, 0.0),
                BoundaryCondition.derivative(-1, 1, -np.pi),
                BoundaryCondition.derivative(1, 1, -np.pi),
            ],
            lambda y: np.sin(np.pi * y),
            32,
        )
    )
    # mixed linear + quadratic, order 3: (D-1)(D^2+2) u0, u0 = sin(pi y)
    cases.append(
        (
            OperatorFactorization(linear=(FirstOrderOp(1.0),), quadratic=(SecondOrderOp(0.0, 2.0),)),
            lambda y: (2 - np.pi**2) * (np.pi * np.cos(np.pi * y) - np.sin(np.pi * y)),
            [D(-1, 0.0), D(1, 0.0), BoundaryCondition.derivative(1, 1, -np.pi)],
            lambda y: np.sin(np.pi * y),
            32,
        )
    )
    # two quadratics: (D^2-1)(D^2+D+3) u0, u0 = cos y
    cases.append(
        (
            OperatorFactorization(quadratic=(SecondOrderOp(0.0, -1.0), SecondOrderOp(1.0, 3.0))),
            lambda y: -4 * np.cos(y) + 2 * np.sin(y),
            [
                D(-1, np.cos(1.0)),
                D(1, np.cos(1.0)),
                BoundaryCondition.derivative(-1, 1, np.sin(1.0)),
                BoundaryCondition.derivative(1, 1, -np.sin(1.0)),
            ],
            np.cos,
            24,
        )
    )
    worst = 0.0
    for op, rhs, bcs, exact, m in cases:
        worst = max(worst, grid_error(solve_bvp(op, rhs, bcs, m=m), exact))
    return worst


def _interface_continuity_worst():
    spec = sweep_row("table3.spec", -1)
    worst = 0.0
    for backend in ("spectral", "diffmat"):
        sol = run(spec, backend).solution
        _, vals = sample_piecewise(sol)
        unorm = np.max(np.abs(vals))
        for i in range(spec.grid.n_intervals - 1):
            jump = abs(
                eval_series(sol.local_coeffs[i], 1.0) - eval_series(sol.local_coeffs[i + 1], -1.0)
            )
            worst = max(worst, jump / unorm)
    return worst


def test_criterion_8_property_suites():
    checks = [
        ("banded vs dense oracle", _banded_vs_dense_worst(), 1e-12),
        ("transform roundtrip", _roundtrip_worst(), 1e-13),
        ("integration recurrences vs symbolic", _recurrence_vs_symbolic_worst(), 1e-15),
        ("manufactured-solution recovery", _manufactured_worst(), 1e-11),
        ("interface continuity / ||u||", _interface_continuity_worst(), 1e-9),
    ]
    ok = True
    for name, value, bound in checks:
        passed = value <= bound
        ok = ok and passed
        print(f"\nACCEPTANCE 8 [{name}]: {'PASS' if passed else 'FAIL'}  (got {value:.3g}, bound {bound:.3g})")
    assert ok
