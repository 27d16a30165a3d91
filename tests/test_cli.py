"""Problem-file parsing, builtin functions, CLI behavior, table reproduction."""

import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from chebbvp import clear_caches
from chebbvp.chebyshev import cheb_points, to_values
from chebbvp.cli import TABLES, builtin_spec_text, main, reproduce_tables, run, sweep_cell
from chebbvp.diffmat import AffineConvectionOp
from chebbvp.factored import BoundaryCondition, OperatorFactorization, homogeneous_basis, solve_bvp
from chebbvp.integration import FirstOrderOp, _first_order_factorization, _second_order_factorization
from chebbvp.piecewise import PiecewiseGrid, overshoot, sample_piecewise
from chebbvp.problems import (
    ProblemFormatError,
    ProblemSpec,
    exact_function,
    load_problem,
    parse_problem,
    parse_rhs_expr,
)

SPECS = Path(__file__).resolve().parents[1] / "src" / "chebbvp" / "specs"

MINIMAL_FIRST_ORDER = """
[operator]
linear 1

[rhs]
expr = const:0

[grid]
m = 16

[bc]
at=-1 d0=1 value=0
"""


# (old, new, line, message): MINIMAL_FIRST_ORDER with old replaced by new (appended when old is None), the
# line the parser names (None where the error belongs to no one line), and the start of the message
BAD_INPUTS = [
    pytest.param("const:0", "1 + + sinpi", 6, "empty term in rhs expression", id="rhs-empty-term"),
    pytest.param("const:0", "2*tanpi", 6, "unknown rhs basis 'tanpi'", id="rhs-basis"),
    pytest.param("expr = const:0", "f = const:0", 6, "unknown rhs key 'f'", id="rhs-key"),
    pytest.param(None, "[exact]\nname = sinpi:1\n", 14, "exact solution 'sinpi' takes 0 parameter(s)", id="exact-count"),
    pytest.param(None, "[exact]\nsolution = sinpi\n", 14, "unknown exact key 'solution'", id="exact-key"),
    pytest.param(None, "[exact]\nname = erf_step:0\n", 14, "exact solution 'erf_step' needs eps > 0", id="erf-zero"),
    pytest.param(None, "[exact]\nname = erf_step:-1e-3\n", 14, "exact solution 'erf_step' needs eps > 0", id="erf-neg"),
    pytest.param(
        None, "[exact]\nname = cosh_pair:1e3:1e3\n", 14, "exact solution 'cosh_pair' needs b tanh b != a tanh a",
        id="cosh-equal",
    ),
    pytest.param(
        None, "[exact]\nname = cosh_pair:1e-200:2e-200\n", 14, "exact solution 'cosh_pair' needs b tanh b != a tanh a",
        id="cosh-underflow",
    ),
    pytest.param(None, "[exact]\nname = exp_ramp:0:1:2\n", 14, "exact solution 'exp_ramp' needs a != 0", id="ramp-zero"),
    pytest.param(
        None, "[exact]\nname = saturating_exp:-400\n", 14, "exact solution 'saturating_exp' needs a >= -ln(DBL_MAX)/2",
        id="saturating-overflow",
    ),
    pytest.param("\n[operator]", "x = 1\n[operator]", 1, "content before any [section]", id="before-section"),
    pytest.param("[operator]\nlinear 1\n", "", None, "missing [operator] section", id="no-operator"),
    pytest.param("[grid]\nm = 16\n", "", None, "missing [grid] section", id="no-grid"),
    pytest.param("value=0", "value=0 dirichlet", 12, "expected key=value, got 'dirichlet'", id="bc-token"),
    pytest.param("value=0", "value=0 side=left", 12, "unknown boundary-condition key 'side'", id="bc-key"),
    pytest.param("at=-1", "at=0", 12, "boundary condition needs at=-1 or at=+1", id="bc-at"),
    pytest.param(" value=0", "", 12, "boundary condition needs value=", id="bc-value"),
    pytest.param("d0=1 ", "", 12, "boundary condition needs a nonzero weight", id="bc-no-weight"),
    pytest.param("d0=1", "d0=0", 12, "boundary condition needs a nonzero weight", id="bc-zero-weight"),
    pytest.param(
        "linear 1", "cubic 1", 3, "expected 'linear a', 'quadratic b c', or 'ysecond p q1 q0 r', got 'cubic 1'",
        id="operator-line",
    ),
]


class TestParseProblem:
    def test_minimal_first_order(self):
        spec = parse_problem(MINIMAL_FIRST_ORDER)
        assert spec.operator.order == 1
        assert spec.grid == 16
        assert spec.backend == "spectral"

    def test_bc_count_mismatch(self):
        text = MINIMAL_FIRST_ORDER + "at=+1 d0=1 value=0\n"
        with pytest.raises(ProblemFormatError, match="order 1 needs exactly 1 boundary conditions, got 2"):
            parse_problem(text)

    def test_shipped_table1e_file(self):
        spec = parse_problem(builtin_spec_text("table1e.spec"))
        assert spec.operator.order == 4
        assert len(spec.operator.quadratic) == 2
        assert len(spec.operator.linear) == 0
        assert len(spec.bcs) == 4

    def test_unknown_key_has_line_number(self):
        text = MINIMAL_FIRST_ORDER.replace("m = 16", "points = 16")
        with pytest.raises(ProblemFormatError, match=r"line \d+: unknown grid key"):
            parse_problem(text)

    def test_malformed_number(self):
        text = MINIMAL_FIRST_ORDER.replace("linear 1", "linear one")
        with pytest.raises(ProblemFormatError, match="malformed number"):
            parse_problem(text)

    def test_non_increasing_nodes(self):
        text = MINIMAL_FIRST_ORDER.replace("m = 16", "nodes = -1 0.5 0.5 1\norders = 8 8 8")
        with pytest.raises(ProblemFormatError, match="strictly increasing"):
            parse_problem(text)

    def test_ysecond_selects_diffmat(self):
        spec = parse_problem(builtin_spec_text("table4.spec"))
        assert isinstance(spec.operator, AffineConvectionOp)
        assert spec.backend == "diffmat"
        assert spec.is_piecewise

    def test_backend_follows_the_operator(self):
        spec = parse_problem(MINIMAL_FIRST_ORDER)
        assert "backend" not in {f.name for f in fields(ProblemSpec)}
        assert replace(spec, operator=AffineConvectionOp(1.0, 0.0, 0.0, 1.0)).backend == "diffmat"
        with pytest.raises(TypeError):
            ProblemSpec(spec.operator, spec.rhs, spec.grid, spec.bcs, backend="diffmat")

    def test_minus_pi_token(self):
        spec = parse_problem(MINIMAL_FIRST_ORDER.replace("linear 1", "linear -pi").replace("const:0", "-pi*sinpi"))
        assert spec.operator.linear == (FirstOrderOp(-np.pi),)
        np.testing.assert_array_equal(spec.rhs(np.array([0.5])), [-np.pi])

    def test_ysecond_rejects_mixed_factors(self):
        text = MINIMAL_FIRST_ORDER.replace("linear 1", "linear 1\nysecond 1 1 0 0")
        with pytest.raises(ProblemFormatError, match="ysecond"):
            parse_problem(text)

    def test_unknown_section(self):
        with pytest.raises(ProblemFormatError, match="unknown section"):
            parse_problem("[stuff]\nx = 1\n")

    @pytest.mark.parametrize(
        "old, new",
        [("value=0", "value=nan"), ("d0=1", "d0=nan"), ("const:0", "nan*sinpi"), ("linear 1", "linear inf")],
    )
    def test_non_finite_number(self, old, new):
        with pytest.raises(ProblemFormatError, match=r"line \d+: number .* is not finite"):
            parse_problem(MINIMAL_FIRST_ORDER.replace(old, new))

    @pytest.mark.parametrize(
        "old, new", [("m = 16", "m = 16.9"), ("m = 16", "nodes = -1 0 1\norders = 32.7 32")], ids=["m", "orders"]
    )
    def test_non_integer_grid_order(self, old, new):
        with pytest.raises(ProblemFormatError, match=r"line \d+: grid order .* is not an integer"):
            parse_problem(MINIMAL_FIRST_ORDER.replace(old, new))

    def test_integral_float_grid_order_accepted(self):
        assert parse_problem(MINIMAL_FIRST_ORDER.replace("m = 16", "m = 16.0")).grid == 16

    @pytest.mark.parametrize("weights, value", [(((0, float("nan")),), 0.0), (((0, 1.0),), float("inf"))])
    def test_boundary_condition_rejects_non_finite(self, weights, value):
        with pytest.raises(ValueError, match="finite"):
            BoundaryCondition(-1, weights, value)


class TestBuiltinFunctions:
    def test_rhs_const(self):
        f = parse_rhs_expr("const:2.5")
        np.testing.assert_array_equal(f(np.array([0.0, 1.0])), [2.5, 2.5])

    def test_rhs_terms_with_pi(self):
        f = parse_rhs_expr("pi*cospi + 1e6*sinpi")
        y = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(
            f(y), np.pi * np.cos(np.pi * y) + 1e6 * np.sin(np.pi * y), rtol=1e-15
        )

    def test_rhs_exponent_signs_are_not_term_separators(self):
        f = parse_rhs_expr("1e+06*sinpi + 2.5E+3")
        y = np.linspace(-1, 1, 5)
        np.testing.assert_array_equal(f(y), 1e6 * np.sin(np.pi * y) + 2500.0)
        # a basis ending in 'e' is still split off
        np.testing.assert_array_equal(parse_rhs_expr("one+y")(np.array([0.5])), [1.5])

    def test_rhs_bare_number_and_y(self):
        f = parse_rhs_expr("2 + 3*y")
        np.testing.assert_allclose(f(np.array([0.5])), [3.5])

    def test_saturating_exp(self):
        u = exact_function("saturating_exp:1e6")
        assert u(np.array([-1.0]))[0] == 0.0
        assert u(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_exp_ramp_endpoints(self):
        u = exact_function("exp_ramp:1e6:1:2")
        np.testing.assert_allclose(u(np.array([-1.0, 1.0])), [1.0, 2.0], atol=1e-12)
        # interior plateau at the left value
        assert u(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_exp_ramp_is_the_layer_form_bitwise(self):
        y = cheb_points(16384).points
        u = exact_function("exp_ramp:1e6:1:2")(y)
        np.testing.assert_array_equal(u, 2.0 + np.expm1(1e6 * (y - 1.0)) / -np.expm1(-2e6))

    def test_saturating_exp_large_negative_parameter_is_accepted(self):
        u = exact_function("saturating_exp:-300")
        assert u(np.array([1.0]))[0] == -np.expm1(600.0)

    def test_exp_ramp_negative_parameter_does_not_overflow(self):
        y = cheb_points(4096).points
        u = exact_function("exp_ramp:-1000:1:2")(y)  # warnings are errors here
        assert np.all(np.isfinite(u)) and np.all((u >= 1.0) & (u <= 2.0))
        assert (u[-1], u[0]) == (1.0, 2.0)  # y = -1 and y = 1

    def test_exp_ramp_negative_parameter_matches_the_direct_form(self):
        y = np.linspace(-1.0, 1.0, 2001)
        u = exact_function("exp_ramp:-3:1:2")(y)
        direct = 2.0 + np.expm1(-3.0 * (y - 1.0)) / -np.expm1(6.0)
        np.testing.assert_allclose(u, direct, rtol=0, atol=4 * np.spacing(2.0))

    def test_exp_ramp_small_parameter_limit(self):
        u = exact_function("exp_ramp:1e-9:0:1")
        # a -> 0 limit is the linear ramp (y+1)/2
        np.testing.assert_allclose(u(np.array([0.0])), [0.5], atol=1e-6)

    def test_cosh_pair_matches_cosh_form(self):
        a, b = 2.0, 3.0
        u = exact_function(f"cosh_pair:{a}:{b}")
        ta, tb = np.tanh(a), np.tanh(b)
        k = 1.0 / (b * tb - a * ta)
        y = np.linspace(-1, 1, 9)
        direct = 1.0 - b * tb * k * np.cosh(a * y) / np.cosh(a) + a * ta * k * np.cosh(b * y) / np.cosh(b)
        np.testing.assert_allclose(u(y), direct, atol=1e-14)

    def test_cosh_pair_satisfies_clamped_conditions(self):
        u = exact_function("cosh_pair:2:3")
        np.testing.assert_allclose(u(np.array([-1.0, 1.0])), [0.0, 0.0], atol=1e-15)
        h = 1e-6
        fd = (u(np.array([1.0])) - u(np.array([1.0 - h]))) / h
        assert abs(fd[0]) <= 1e-5
        # the boundary-layer parameters keep the endpoint values pinned too
        u_big = exact_function("cosh_pair:1e6:2e6")
        np.testing.assert_allclose(u_big(np.array([-1.0, 1.0])), [0.0, 0.0], atol=1e-12)

    def test_erf_step(self):
        u = exact_function("erf_step:1e-12")
        np.testing.assert_allclose(u(np.array([-1.0, 0.0, 1.0])), [-1.0, 0.0, 1.0], atol=1e-15)

    def test_unknown_exact(self):
        with pytest.raises(ProblemFormatError, match="unknown exact"):
            exact_function("mystery:1")


class TestRun:
    def test_table1a_spec(self):
        report = run(parse_problem(builtin_spec_text("table1a.spec")))
        assert report.error <= 100 * 3.81267e-11
        assert report.points == 8192

    def test_table3_spec_both_backends(self):
        spec = parse_problem(builtin_spec_text("table3.spec"))
        e1 = run(spec, "spectral").error
        e2 = run(spec, "diffmat").error
        assert e1 <= 1e-9 and e2 <= 1e-9
        assert run(spec).points == 96

    @pytest.mark.parametrize("name", ["table1a", "table1b", "table1c", "table1d", "table1e", "fig2"])
    def test_single_grid_matches_solve_bvp_bitwise(self, name):
        # run solves a single grid as the one interval [-1, 1]
        spec = parse_problem(builtin_spec_text(f"{name}.spec"))
        assert not spec.is_piecewise
        report = run(spec, "spectral")
        direct = solve_bvp(spec.operator, spec.rhs, list(spec.bcs), m=spec.grid)
        (local,) = report.solution.local_coeffs
        assert local.a.tobytes() == direct.coeffs.a.tobytes()
        assert report.points == spec.grid
        if spec.exact is None:
            assert report.error is None
        else:
            pts, vals = cheb_points(spec.grid).points, to_values(direct.coeffs).v
            assert report.error == float(np.max(np.abs(vals - spec.exact(pts))))

    @pytest.mark.parametrize(
        "factors",
        ["quadratic 0 -1\nquadratic 0 -4", "linear 1\nlinear -1\nlinear 2\nlinear -2"],
        ids=["quadratic", "linear"],
    )
    def test_third_derivative_conditions_at_large_m(self, factors):
        # (D^2 - 1)(D^2 - 4) u = f for u = sin(pi y) + y, with u'' = 0 and
        # u''' = pi^3 at both ends, solved as one interval at m = 65536
        k, pi3 = np.pi**4 + 5 * np.pi**2 + 4, np.pi**3
        spec = parse_problem(
            f"[operator]\n{factors}\n[rhs]\nexpr = {k!r}*sinpi + 4*y\n[grid]\nm = 65536\n[bc]\n"
            f"at=-1 d2=1 value=0\nat=+1 d2=1 value=0\nat=-1 d3=1 value={pi3!r}\nat=+1 d3=1 value={pi3!r}\n"
        )
        pts, vals = sample_piecewise(run(spec).solution)
        assert np.max(np.abs(vals - (np.sin(np.pi * pts) + pts))) <= 1e-13

    def test_affine_operator_requires_diffmat(self):
        spec = parse_problem(builtin_spec_text("table4.spec"))
        with pytest.raises(ValueError, match="diffmat"):
            run(spec, "spectral")


def same_grid(a, b):
    if isinstance(a, PiecewiseGrid) and isinstance(b, PiecewiseGrid):
        return a.orders == b.orders and a.nodes.tolist() == b.nodes.tolist()
    return a == b


SWEEP_FIRST_ORDER = MINIMAL_FIRST_ORDER + """
[exact]
name = const:0

[sweep]
header = M,error
row = 16 ; m = 16
"""


class TestSweep:
    @pytest.mark.parametrize("which", TABLES)
    def test_spec_grid_is_a_row_with_the_same_error(self, which):
        spec = parse_problem(builtin_spec_text(f"table{which}.spec"))
        rows = [grid for _, grid in spec.sweep.rows if same_grid(grid, spec.grid)]
        assert len(rows) == 1
        # the column that solves the problem as written (for 1e, the quadratic one)
        (column,) = [c for c in spec.sweep.columns if c[:2] == (spec.backend, spec.operator)]
        report = run(spec)
        if column[2]:
            values = [bc.value for bc in spec.bcs]
            got = overshoot(report.solution, min(values), max(values), samples=10000)
        else:
            got = report.error
        assert got == sweep_cell(replace(spec, grid=rows[0]), column)

    def test_default_column_is_the_problem_backend(self):
        spec = parse_problem(SWEEP_FIRST_ORDER)
        assert spec.sweep.header == "M,error"
        assert spec.sweep.rows == (("16", 16),)
        assert spec.sweep.columns == (("spectral", spec.operator, False),)

    def test_linear_column_splits_table1e_into_its_exact_roots(self):
        spec = parse_problem(builtin_spec_text("table1e.spec"))
        backend, operator, _ = spec.sweep.columns[0]
        assert backend == "spectral"
        assert operator == OperatorFactorization(tuple(FirstOrderOp(r) for r in (1e6, -1e6, 2e6, -2e6)))

    def test_linear_split_has_no_cancellation(self):
        text = SWEEP_FIRST_ORDER.replace("linear 1", "quadratic 1e8 1")
        text = text.replace("at=-1 d0=1 value=0", "at=-1 d0=1 value=0\nat=+1 d0=1 value=0")
        spec = parse_problem(text + "columns = spectral:linear\n")
        roots = [f.a for f in spec.sweep.columns[0][1].linear]
        # -1e-8 to 16 digits; -b/2 + sqrt(b^2/4 - c) cancels to -7.45e-9
        np.testing.assert_allclose(roots, [-1e-8, -1e8], rtol=1e-15)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("rows = 16 ; m = 16", "unknown sweep key 'rows'"),
            ("columns = spectral:fast", "unknown sweep column 'spectral:fast'"),
            ("columns = collocation", "unknown sweep column 'collocation'"),
            ("row = 32", "sweep row needs a grid"),
            ("row = 32 ; n = 32", "unknown grid key 'n'"),
            ("row = 32 ; m = 32.5", "grid order '32.5' is not an integer"),
            ("row = 8 ; m = 8 ; nodes = -1 0 1", "give either m, or both nodes and orders"),
        ],
    )
    def test_malformed_sweep_has_line_number(self, line, match):
        text = SWEEP_FIRST_ORDER + line + "\n"
        lineno = len(text.splitlines())
        with pytest.raises(ProblemFormatError, match=rf"^line {lineno}: {match}"):
            parse_problem(text)

    @pytest.mark.parametrize(
        "name, old, new, match",
        [
            ("table1e.spec", "quadratic 0 -1e12", "quadratic 0 1e12", "complex roots"),
            ("table4.spec", "diffmat:overshoot", "diffmat:linear", "needs a factored operator"),
        ],
    )
    def test_linear_column_on_an_operator_it_cannot_split(self, name, old, new, match):
        text = builtin_spec_text(name)
        lineno = next(i for i, l in enumerate(text.splitlines(), 1) if l.startswith("columns"))
        with pytest.raises(ProblemFormatError, match=rf"^line {lineno}: .*{match}"):
            parse_problem(text.replace(old, new))

    def test_sweep_without_rows(self):
        with pytest.raises(ProblemFormatError, match="needs a header and at least one row"):
            parse_problem(MINIMAL_FIRST_ORDER + "[sweep]\nheader = M,error\n")


class TestTables:
    def test_1d_rows(self):
        lines = reproduce_tables("1d").strip().splitlines()
        assert lines[0] == "c,M,error"
        assert len(lines) == 6
        errs = {int(l.split(",")[1]): float(l.split(",")[2]) for l in lines[1:]}
        for m, err in errs.items():
            if m >= 16:
                assert err <= 1e-11

    def test_3_rows(self):
        lines = reproduce_tables("3").strip().splitlines()
        assert lines[0] == "M1,M2,M3,node2,node3,error1,error2"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[-2]) <= 1e-9 and float(last[-1]) <= 1e-9

    def test_4_rows(self):
        lines = reproduce_tables("4").strip().splitlines()
        assert lines[0] == "m,node4,overshoot"
        assert len(lines) == 5
        assert float(lines[1].split(",")[-1]) <= 1e-12

    def test_1a_to_1e_independent_of_blas_threads(self):
        # OpenBLAS reads its thread count at load time, so each count runs in a
        # fresh interpreter.  Table 3 adds its spectral column (error1), whose
        # piecewise fit runs on LAPACK, without the m2 = 4096 diffmat solve.
        script = "from dataclasses import replace\n"
        script += "from chebbvp.cli import _fmt, builtin_spec_text, reproduce_tables, sweep_cell\n"
        script += "from chebbvp.problems import parse_problem\n"
        script += "for w in ('1a', '1b', '1c', '1d', '1e'):\n"
        script += "    print(reproduce_tables(w), end='')\n"
        script += "spec = parse_problem(builtin_spec_text('table3.spec'))\n"
        script += "assert spec.sweep.columns[0][0] == 'spectral'\n"
        script += "for label, grid in spec.sweep.rows:\n"
        script += "    print(label, _fmt(sweep_cell(replace(spec, grid=grid), spec.sweep.columns[0])))\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert out.returncode == 0, out.stderr
            outs.append(out.stdout)
        assert len(outs[0].splitlines()) == 34  # five headers, 24 rows and table 3's five
        assert outs[0] == outs[1] == outs[2]

    def test_deterministic_output(self):
        assert reproduce_tables("1d") == reproduce_tables("1d")

    def test_unknown_table(self, capsys):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_tables("2")
        with pytest.raises(SystemExit) as exit_info:
            main(["tables", "2"])
        assert exit_info.value.code == 2

    def test_tables_are_the_shipped_table_specs(self):
        assert TABLES == tuple(sorted(p.stem[len("table") :] for p in SPECS.glob("table*.spec")))
        assert TABLES == ("1a", "1b", "1c", "1d", "1e", "3", "4")


class TestMain:
    def _spec_path(self, tmp_path, text):
        p = tmp_path / "problem.spec"
        p.write_text(text)
        return str(p)

    def test_solve_ok(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, builtin_spec_text("table1b.spec"))
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "backend,points,error"
        assert out[1].startswith("spectral,16,")

    def test_solve_tolerance_failure(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, builtin_spec_text("table1b.spec"))
        assert main(["solve", path, "--tol", "1e-30"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "-0.5"])
    def test_solve_nan_or_negative_tolerance_exits_2(self, capsys, tol):
        # error > nan is False whatever the error, so a NaN tolerance would always pass
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", str(SPECS / "table1a.spec"), "--tol", tol])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: expected a number >= 0, got '{tol}'" in captured.err

    def test_solve_infinite_tolerance_passes(self, capsys):
        assert main(["solve", str(SPECS / "table1a.spec"), "--tol", "inf"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("spectral,8192,")

    def test_solve_tolerance_failure_on_nan_error(self, tmp_path, capsys):
        # the right-hand side overflows to inf, so the solution and its error are NaN
        text = MINIMAL_FIRST_ORDER.replace("const:0", "1e308*one + 1e308*one") + "[exact]\nname = const:0\n"
        path = self._spec_path(tmp_path, text)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", path, "--tol", "1e-9"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "spectral,16,nan"

    @pytest.mark.parametrize("grid", ["m = 16.9", "nodes = -1 0 1\norders = 32.7 32"], ids=["m", "orders"])
    def test_solve_non_integer_grid_order_exits_2(self, tmp_path, capsys, grid):
        path = self._spec_path(tmp_path, MINIMAL_FIRST_ORDER.replace("m = 16", grid))
        assert main(["solve", path]) == 2
        assert "is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["spectral", "diffmat"])
    def test_solve_zero_grid_order_exits_2(self, tmp_path, capsys, backend):
        # one message for the rule on both backends, single grid or piecewise
        path = self._spec_path(tmp_path, MINIMAL_FIRST_ORDER.replace("m = 16", "m = 0"))
        assert main(["solve", path, "--backend", backend]) == 2
        assert "grid order must be >= 1, got 0" in capsys.readouterr().err

    def test_solve_oversized_collocation_system_exits_2(self, tmp_path, capsys):
        text = builtin_spec_text("table3.spec").replace("orders = 32 32 32\n", "orders = 4096 4096 4096\n", 1)
        path = self._spec_path(tmp_path, text)
        assert main(["solve", path, "--backend", "diffmat"]) == 2
        assert "8193 unknowns, got m = 4096 and 12289 unknowns" in capsys.readouterr().err

    def test_solve_singular_collocation_system_exits_2(self, tmp_path, capsys):
        # u'' = 0 with u'(-1) = u'(1) = 0 on one m = 2 interval leaves the constant free
        text = MINIMAL_FIRST_ORDER.replace("linear 1", "quadratic 0 0").replace("m = 16", "m = 2")
        text = text.replace("at=-1 d0=1 value=0", "at=-1 d1=1 value=0\nat=+1 d1=1 value=0")
        path = self._spec_path(tmp_path, text)
        assert main(["solve", path, "--backend", "diffmat"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: dense system is exactly singular\n"

    def test_solve_parse_error(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, "[operator]\nlinear nope\n")
        assert main(["solve", path]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, lineno, match", BAD_INPUTS)
    def test_bad_input_exits_2_with_its_line(self, tmp_path, capsys, old, new, lineno, match):
        text = MINIMAL_FIRST_ORDER.replace(old, new, 1) if old else MINIMAL_FIRST_ORDER + new
        prefix = "" if lineno is None else f"line {lineno}: "
        with pytest.raises(ProblemFormatError, match="^" + re.escape(prefix + match)):
            parse_problem(text)
        path = self._spec_path(tmp_path, text)
        for argv in (["solve", path], ["solve", path, "--tol", "1"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {prefix}{match}")

    def test_factorization_caches_are_bounded(self):
        caches = (_first_order_factorization, _second_order_factorization)
        clear_caches()
        reproduce_tables("1e")
        # a whole table run factors each (factor, order) once: nothing is evicted
        assert all(cache.cache_info().misses == cache.cache_info().currsize for cache in caches)
        reproduce_tables("1a")
        reproduce_tables("1c")
        for k in range(40):
            _first_order_factorization(FirstOrderOp(k + 0.5), 4096)
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize == 32 and info.currsize <= 32
        assert _first_order_factorization.cache_info().currsize == 32
        clear_caches()

    @pytest.mark.parametrize("name", ["table1a", "table1c", "table1d", "table1e", "table3"])
    def test_time_flag_warm_rerun_makes_no_factorization(self, tmp_path, name):
        path = self._spec_path(tmp_path, builtin_spec_text(f"{name}.spec"))
        clear_caches()
        assert main(["solve", path, "--time"]) == 0
        for cache in (_first_order_factorization, _second_order_factorization):
            info = cache.cache_info()
            # nothing was evicted, so each factorization was made once, by the cold run, and the warm rerun hit it
            assert info.misses == info.currsize
            assert info.hits >= info.misses

    def test_missing_file(self, capsys):
        assert main(["solve", "/no/such/file.spec"]) == 2

    def test_time_flag_keeps_stdout_clean(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, builtin_spec_text("table1b.spec"))
        assert main(["solve", path, "--time"]) == 0
        captured = capsys.readouterr()
        assert "solve_seconds" in captured.err
        assert "solve_seconds" not in captured.out

    def test_time_flag_cold_run_builds_the_homogeneous_basis(self, tmp_path):
        path = self._spec_path(tmp_path, builtin_spec_text("table1b.spec"))
        run(load_problem(path))
        assert homogeneous_basis.cache_info().currsize == 1
        clear_caches()
        assert homogeneous_basis.cache_info().currsize == 0
        assert main(["solve", path, "--time"]) == 0
        # the cold run builds the basis, the warm rerun finds it
        info = homogeneous_basis.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_solve_deterministic_stdout(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, builtin_spec_text("table1d.spec"))
        main(["solve", path])
        first = capsys.readouterr().out
        main(["solve", path])
        assert capsys.readouterr().out == first

    def test_diag_fig2(self, tmp_path, capsys):
        path = self._spec_path(tmp_path, builtin_spec_text("fig2.spec"))
        assert main(["diag", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,sigma,localization"
        assert len(lines) == 127  # 126 singular values of the M=128 system

    @pytest.mark.parametrize(
        "text",
        [
            builtin_spec_text("table1e.spec"),
            builtin_spec_text("table4.spec"),
            MINIMAL_FIRST_ORDER.replace("m = 16", "nodes = -1 0 1\norders = 16 16"),
        ],
        ids=["two_factors", "affine", "piecewise"],
    )
    def test_diag_needs_one_factor_on_one_grid(self, tmp_path, capsys, text):
        assert main(["diag", self._spec_path(tmp_path, text)]) == 2
        assert "diag expects one linear or quadratic factor" in capsys.readouterr().err

    def test_tables_subcommand(self, capsys):
        assert main(["tables", "1b"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "a,M,error"
