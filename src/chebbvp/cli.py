"""Command-line front end: solve problem files, reproduce the error tables.

    chebbvp solve <file> [--backend spectral|diffmat] [--time] [--tol X]
    chebbvp tables <1a|1b|1c|1d|1e|3|4>
    chebbvp diag <file>

CSV goes to stdout (byte-identical for identical inputs); timings and
diagnostics go to stderr.  Exit codes: 0 ok, 1 tolerance failure, 2 input
error.

Errors against a named exact solution are measured in the sup norm over the
solution's own collocation points.  That sampling is Chebyshev-clustered,
so boundary layers are sampled at the resolution the solver worked at, and
it is the metric under which the reference error tables are reproducible;
an off-grid sampling would be floored by polynomial best-approximation of
the exact solution (about 1e-11 for sin(pi y) at M = 16) rather than by the
solver.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import diffmat as _diffmat_mod
from . import integration as _integration_mod
from .banded import SingularSystemError
from .chebyshev import to_values
from .diagnostics import dense_export, singular_spectrum, spectrum_csv
from .factored import BoundaryCondition, OperatorFactorization, solve_bvp
from .integration import FirstOrderOp, SecondOrderOp
from .diffmat import AffineConvectionOp
from .piecewise import (
    PiecewiseGrid,
    PiecewiseSolution,
    overshoot,
    piecewise_solve_diffmat,
    piecewise_solve_spectral,
    sample_piecewise,
)
from .problems import ProblemFormatError, ProblemSpec, load_problem


@dataclass(frozen=True)
class RunReport:
    backend: str
    points: int
    error: float | None
    solution: object


def _solution_samples(solution) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(solution, PiecewiseSolution):
        return sample_piecewise(solution)
    from .chebyshev import cheb_points

    return cheb_points(solution.coeffs.m).points, to_values(solution.coeffs).v


def run(spec: ProblemSpec, backend: str | None = None) -> RunReport:
    """Solve one problem spec and report the grid-sampled sup-norm error."""
    backend = backend or spec.backend
    if backend not in ("spectral", "diffmat"):
        raise ValueError(f"unknown backend {backend!r}")
    if isinstance(spec.operator, AffineConvectionOp) and backend != "diffmat":
        raise ValueError("the affine-convection operator requires the diffmat backend")

    if backend == "spectral":
        if spec.is_piecewise:
            solution = piecewise_solve_spectral(spec.operator, spec.rhs, spec.grid, list(spec.bcs))
        else:
            solution = solve_bvp(spec.operator, spec.rhs, list(spec.bcs), m=spec.grid)
    else:
        grid = spec.grid if spec.is_piecewise else PiecewiseGrid(np.array([-1.0, 1.0]), (spec.grid,))
        solution = piecewise_solve_diffmat(spec.operator, spec.rhs, grid, list(spec.bcs))

    pts, vals = _solution_samples(solution)
    error = None
    if spec.exact is not None:
        error = float(np.max(np.abs(vals - spec.exact(pts))))
    points = sum(spec.grid.orders) if spec.is_piecewise else spec.grid
    return RunReport(backend, points, error, solution)


def _clear_setup_caches():
    _integration_mod._first_order_factorization.cache_clear()
    _integration_mod._second_order_factorization.cache_clear()
    _diffmat_mod.diff_endpoint_row.cache_clear()


def _timed_run(spec: ProblemSpec, backend: str | None):
    """Cold run prices setup + solve; a warm rerun (cached factorizations) prices the solve."""
    _clear_setup_caches()
    t0 = time.perf_counter()
    report = run(spec, backend)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    run(spec, backend)
    warm = time.perf_counter() - t0
    print(f"setup_seconds={max(cold - warm, 0.0):.6f}", file=sys.stderr)
    print(f"solve_seconds={warm:.6f}", file=sys.stderr)
    return report


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _table_single(which: str):
    """Rows of tables 1a-1d: (header, parameter, Ms, op, rhs, bcs, exact)."""
    D = BoundaryCondition.dirichlet
    if which == "1a":
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(-a),))
        rhs = lambda y: np.full_like(y, a)
        exact = lambda y: -np.expm1(-a * (y + 1.0))
        return "a", a, (1024, 4096, 8192, 16384, 65536), op, rhs, [D(-1, 0.0)], exact
    if which == "1b":
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(-a),))
        rhs = lambda y: np.pi * np.cos(np.pi * y) + a * np.sin(np.pi * y)
        exact = lambda y: np.sin(np.pi * y)
        return "a", a, (8, 16, 32, 1024, 65536), op, rhs, [D(-1, 0.0)], exact
    if which == "1c":
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(a)))
        rhs = lambda y: np.zeros_like(y)
        exact = lambda y: 2.0 + np.expm1(a * (y - 1.0)) / -np.expm1(-2.0 * a)
        return "a", a, (1024, 4096, 8192, 16384, 32768), op, rhs, [D(-1, 1.0), D(1, 2.0)], exact
    if which == "1d":
        c = 1e4
        op = OperatorFactorization(quadratic=(SecondOrderOp(0.0, c),))
        rhs = lambda y: (-np.pi**2 + c) * np.sin(np.pi * y)
        exact = lambda y: np.sin(np.pi * y)
        return "c", c, (8, 16, 32, 1024, 16384), op, rhs, [D(-1, 0.0), D(1, 0.0)], exact
    raise ValueError(which)


def _grid_error(solution, exact) -> float:
    pts, vals = _solution_samples(solution)
    return float(np.max(np.abs(vals - exact(pts))))


def reproduce_tables(which: str) -> str:
    """CSV reproduction of one of the reference error tables."""
    D = BoundaryCondition.dirichlet
    out = []
    if which in ("1a", "1b", "1c", "1d"):
        pname, pval, ms, op, rhs, bcs, exact = _table_single(which)
        out.append(f"{pname},M,error")
        for m in ms:
            err = _grid_error(solve_bvp(op, rhs, bcs, m=m), exact)
            out.append(f"{_fmt(pval)},{m},{_fmt(err)}")
    elif which == "1e":
        a, b = 1e6, 2e6
        rhs = lambda y: np.full_like(y, a * a * b * b)
        bcs = [
            D(-1, 0.0),
            D(1, 0.0),
            BoundaryCondition.derivative(-1, 1, 0.0),
            BoundaryCondition.derivative(1, 1, 0.0),
        ]
        from .problems import exact_function

        exact = exact_function(f"cosh_pair:{a}:{b}")
        op1 = OperatorFactorization(
            linear=(FirstOrderOp(a), FirstOrderOp(-a), FirstOrderOp(b), FirstOrderOp(-b))
        )
        op2 = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -a * a), SecondOrderOp(0.0, -b * b)))
        out.append("a,b,M,error1,error2")
        for m in (1024, 8192, 16384, 131072):
            e1 = _grid_error(solve_bvp(op1, rhs, bcs, m=m), exact)
            e2 = _grid_error(solve_bvp(op2, rhs, bcs, m=m), exact)
            out.append(f"{_fmt(a)},{_fmt(b)},{m},{_fmt(e1)},{_fmt(e2)}")
    elif which == "3":
        a = 1e6
        op = OperatorFactorization(linear=(FirstOrderOp(0.0), FirstOrderOp(a)))
        rhs = lambda y: np.zeros_like(y)
        bcs = [D(-1, 1.0), D(1, 2.0)]
        exact = lambda y: 2.0 + np.expm1(a * (y - 1.0)) / -np.expm1(-2.0 * a)
        out.append("M1,M2,M3,node2,node3,error1,error2")
        rows = [
            (16, 1024, 32, 0.5, 0.99999),
            (16, 4096, 32, 0.5, 0.99999),
            (32, 128, 32, 0.999, 0.99999),
            (32, 64, 32, 0.9999, 0.99999),
            (32, 32, 32, 0.99995, 0.99999),
        ]
        for m1, m2, m3, n2, n3 in rows:
            grid = PiecewiseGrid(np.array([-1.0, n2, n3, 1.0]), (m1, m2, m3))
            e1 = _grid_error(piecewise_solve_spectral(op, rhs, grid, bcs), exact)
            e2 = _grid_error(piecewise_solve_diffmat(op, rhs, grid, bcs), exact)
            out.append(f"{m1},{m2},{m3},{_fmt(n2)},{_fmt(n3)},{_fmt(e1)},{_fmt(e2)}")
    elif which == "4":
        eps = 1e-12
        s = np.sqrt(eps)
        op = AffineConvectionOp(diff2=eps, conv_slope=1.0, conv_const=0.0)
        rhs = lambda y: np.zeros_like(y)
        bcs = [D(-1, -1.0), D(1, 1.0)]
        out.append("m,node4,overshoot")
        for m, node4 in ((32, 5.0), (32, 3.0), (32, 7.0), (24, 5.0)):
            grid = PiecewiseGrid(np.array([-1.0, -8 * s, -3 * s, node4 * s, 8 * s, 1.0]), (m,) * 5)
            sol = piecewise_solve_diffmat(op, rhs, grid, bcs)
            ov = overshoot(sol, -1.0, 1.0, samples=10000)
            out.append(f"{m},{_fmt(node4)}*sqrt(eps),{_fmt(ov)}")
    else:
        raise ValueError(f"unknown table {which!r} (expected 1a, 1b, 1c, 1d, 1e, 3, or 4)")
    return "\n".join(out) + "\n"


def builtin_spec_text(name: str) -> str:
    """Text of a shipped problem file (e.g. 'table1a.spec')."""
    return resources.files("chebbvp").joinpath("specs", name).read_text(encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chebbvp", description="Spectral-integration BVP solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file and report the error")
    p_solve.add_argument("file")
    p_solve.add_argument("--backend", choices=("spectral", "diffmat"))
    p_solve.add_argument("--time", action="store_true", help="report setup/solve timings on stderr")
    p_solve.add_argument("--tol", type=float, help="exit 1 unless error <= tol")

    p_tables = sub.add_parser("tables", help="reproduce a reference error table as CSV")
    p_tables.add_argument("which", choices=("1a", "1b", "1c", "1d", "1e", "3", "4"))

    p_diag = sub.add_parser("diag", help="singular spectrum of the problem's coefficient system")
    p_diag.add_argument("file")

    args = parser.parse_args(argv)

    try:
        if args.command == "solve":
            spec = load_problem(args.file)
            report = _timed_run(spec, args.backend) if args.time else run(spec, args.backend)
            print("backend,points,error")
            err_s = "" if report.error is None else _fmt(report.error)
            print(f"{report.backend},{report.points},{err_s}")
            if args.tol is not None and (
                report.error is None or not np.isfinite(report.error) or report.error > args.tol
            ):
                print(f"error exceeds tolerance {args.tol:g}", file=sys.stderr)
                return 1
            return 0
        if args.command == "tables":
            sys.stdout.write(reproduce_tables(args.which))
            return 0
        if args.command == "diag":
            spec = load_problem(args.file)
            if isinstance(spec.operator, OperatorFactorization):
                ops = list(spec.operator.linear) + list(spec.operator.quadratic)
                if len(ops) != 1:
                    raise ValueError("diag expects a single linear or quadratic factor")
                op = ops[0]
            else:
                raise ValueError("diag supports factored operators only")
            if spec.is_piecewise:
                raise ValueError("diag expects a single grid order m")
            sys.stdout.write(spectrum_csv(singular_spectrum(dense_export(op, spec.grid))))
            return 0
    except (ProblemFormatError, SingularSystemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
