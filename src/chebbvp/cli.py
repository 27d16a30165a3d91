"""Command-line front end: solve problem files, reproduce the error tables.

    chebbvp solve <file> [--backend spectral|diffmat] [--time] [--tol X]
    chebbvp tables <id>     (the [sweep] of specs/table<id>.spec, one id per shipped table spec)
    chebbvp diag <file>

CSV goes to stdout (byte-identical for identical inputs); timings and
diagnostics go to stderr.  Exit codes: 0 ok, 1 tolerance failure, 2 input
error (a grid too large to allocate is one).

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
import re
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import clear_caches
from .banded import SingularSystemError
from .diagnostics import SpectrumReport, dense_export, singular_spectrum, spectrum_csv
from .piecewise import (
    PiecewiseGrid,
    PiecewiseSolution,
    overshoot,
    piecewise_solve_diffmat,
    piecewise_solve_spectral,
    sample_piecewise,
)
from .problems import ProblemFormatError, ProblemSpec, load_problem, parse_problem


@dataclass(frozen=True, eq=False)
class RunReport:
    backend: str
    points: int
    error: float | None
    solution: PiecewiseSolution


def run(spec: ProblemSpec, backend: str | None = None) -> RunReport:
    """Solve one problem spec and report the grid-sampled sup-norm error.

    A single grid of order m is solved as the one interval [-1, 1] of a
    piecewise grid, on either backend.
    """
    backend = backend or spec.backend
    if backend not in ("spectral", "diffmat"):
        raise ValueError(f"unknown backend {backend!r}")

    grid = spec.grid if spec.is_piecewise else PiecewiseGrid(np.array([-1.0, 1.0]), (spec.grid,))
    solve = piecewise_solve_spectral if backend == "spectral" else piecewise_solve_diffmat
    solution = solve(spec.operator, spec.rhs, grid, list(spec.bcs))

    pts, vals = sample_piecewise(solution)
    error = None
    if spec.exact is not None:
        error = float(np.max(np.abs(vals - spec.exact(pts))))
    return RunReport(backend, sum(grid.orders), error, solution)


def _timed_run(spec: ProblemSpec, backend: str | None):
    """Cold run prices setup + solve; a warm rerun (cached factorizations and homogeneous basis) prices the solve."""
    clear_caches()
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


_SPECS = resources.files("chebbvp").joinpath("specs")
# the shipped specs/table<id>.spec files are the list of tables
TABLES = tuple(sorted(m[1] for p in _SPECS.iterdir() if (m := re.fullmatch(r"table(.+)\.spec", p.name))))


def sweep_cell(spec: ProblemSpec, column) -> float:
    """One table cell: the spec solved with a [sweep] column's backend and operator."""
    backend, operator, measure_overshoot = column
    report = run(replace(spec, operator=operator), backend)
    if measure_overshoot:
        values = [bc.value for bc in spec.bcs]
        return overshoot(report.solution, min(values), max(values), samples=10000)
    return report.error


def reproduce_tables(which: str) -> str:
    """CSV reproduction of one reference error table, from the [sweep] of its shipped spec."""
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r} (expected one of {', '.join(TABLES)})")
    spec = parse_problem(builtin_spec_text(f"table{which}.spec"))
    out = [spec.sweep.header]
    for label, grid in spec.sweep.rows:
        cells = [_fmt(sweep_cell(replace(spec, grid=grid), column)) for column in spec.sweep.columns]
        out.append(",".join([label, *cells]))
    return "\n".join(out) + "\n"


def spectrum(spec: ProblemSpec) -> SpectrumReport:
    """Singular spectrum of the coefficient system of a one-factor spec on its single grid."""
    factors = getattr(spec.operator, "linear", ()) + getattr(spec.operator, "quadratic", ())
    if len(factors) != 1 or spec.is_piecewise:
        raise ValueError("diag expects one linear or quadratic factor and a single grid order m")
    return singular_spectrum(dense_export(factors[0], spec.grid))


def builtin_spec_text(name: str) -> str:
    """Text of a shipped problem file (e.g. 'table1a.spec')."""
    return _SPECS.joinpath(name).read_text(encoding="utf-8")


def _tolerance(text: str) -> float:
    """--tol: a number >= 0, inf included.  error > NaN is False for every error, so NaN is an input error."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not tol >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return tol


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chebbvp", description="Spectral-integration BVP solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file and report the error")
    p_solve.add_argument("file")
    p_solve.add_argument("--backend", choices=("spectral", "diffmat"))
    p_solve.add_argument("--time", action="store_true", help="report setup/solve timings on stderr")
    p_solve.add_argument("--tol", type=_tolerance, help="exit 1 unless error <= tol")

    p_tables = sub.add_parser("tables", help="reproduce a reference error table as CSV")
    p_tables.add_argument("which", choices=TABLES)

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
            sys.stdout.write(spectrum_csv(spectrum(load_problem(args.file))))
            return 0
    # a grid too large to allocate (numpy's MemoryError) is an input error too
    except (ProblemFormatError, SingularSystemError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
