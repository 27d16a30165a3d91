"""Problem files: a line-based format for operators, grids, and conditions.

Format (sections in any order, '#' starts a comment):

    [operator]
    linear 0              # factor (D - a), one per line, applied first
    linear 1e6
    # quadratic <b> <c>   -> factor (D^2 + b D + c), listed after the linear ones
    # ysecond <p> <q1> <q0> <r> -> p u'' + (q1 y + q0) u' + r u (diffmat backend only)

    [rhs]
    expr = const:0
    # or a sum of terms: 'pi*cospi + 1e6*sinpi', bases: one, y, sinpi, cospi

    [grid]
    m = 8192
    # or piecewise:  nodes = -1 0.99995 0.99999 1
    #                orders = 32 32 32

    [bc]
    at=-1 d0=1 value=0    # sum_d (d<k>=coeff) u^(k)(at) = value

    [exact]
    name = exp_ramp:1e6:1:2   # optional, enables error reporting

    [sweep]               # optional, the rows of 'chebbvp tables'; solve/diag ignore it
    header = a,b,M,error1,error2
    columns = spectral:linear spectral
    # one error cell per column on backend spectral or diffmat; ':linear' splits
    # each real-rooted quadratic factor, ':overshoot' gives the excursion beyond
    # the boundary values; default: one column on the problem's backend
    row = 1e+06,2e+06,1024 ; m = 1024   # label cells as printed ; [grid] keys

Exact-solution builtins: const:<k>; sinpi; saturating_exp:<a> for
1 - e^{-a(y+1)}, a >= -ln(DBL_MAX)/2 so that its value at y = 1 is a float;
exp_ramp:<a>:<ul>:<ur> for the two-value exponential layer profile, at
y = 1 for a > 0 and at y = -1 for a < 0; cosh_pair:<a>:<b> for the clamped
fourth-order layer solution; erf_step:<eps> for the internal-layer
error-function profile.  All are evaluated in expm1/stable forms so that
layer regions do not lose more digits than the arithmetic itself must.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import erf

from .chebyshev import grid_order
from .diffmat import AffineConvectionOp
from .factored import BoundaryCondition, OperatorFactorization, check_boundary_conditions
from .integration import FirstOrderOp, SecondOrderOp
from .piecewise import PiecewiseGrid


class ProblemFormatError(ValueError):
    """Problem-file validation failure, annotated with the offending line."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Sweep:
    """[sweep]: the CSV header, (label, grid) rows and (backend, operator, overshoot) columns."""

    header: str
    rows: tuple[tuple[str, int | PiecewiseGrid], ...]
    columns: tuple[tuple[str, OperatorFactorization | AffineConvectionOp, bool], ...]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    operator: OperatorFactorization | AffineConvectionOp
    rhs: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    grid: int | PiecewiseGrid
    bcs: tuple[BoundaryCondition, ...]
    exact: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    sweep: Sweep | None = None

    @property
    def is_piecewise(self) -> bool:
        return isinstance(self.grid, PiecewiseGrid)

    @property
    def backend(self) -> str:
        """diffmat for an AffineConvectionOp, spectral for a factored operator."""
        return "diffmat" if isinstance(self.operator, AffineConvectionOp) else "spectral"


_RHS_BASES = {
    "one": lambda y: np.ones_like(y),
    "y": lambda y: np.asarray(y, dtype=float),
    "sinpi": lambda y: np.sin(np.pi * y),
    "cospi": lambda y: np.cos(np.pi * y),
}


def _number(token: str, line: int) -> float:
    token = token.strip()
    if token == "pi":
        return math.pi
    if token == "-pi":
        return -math.pi
    try:
        value = float(token)
    except ValueError:
        raise ProblemFormatError(f"malformed number {token!r}", line) from None
    if not math.isfinite(value):
        raise ProblemFormatError(f"number {token!r} is not finite", line)
    return value


def _grid_order(token: str, line: int) -> int:
    value = _number(token, line)
    try:
        return grid_order(value)
    except ValueError:
        raise ProblemFormatError(f"grid order {token.strip()!r} is not an integer", line) from None


def parse_rhs_expr(text: str, line: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Sum of '<coef>*<basis>' terms, bare numbers, or 'const:<k>'."""
    text = text.strip()
    if text.startswith("const:"):
        return exact_function(text, line)
    terms = []
    # a '+' after a mantissa and 'e' is an exponent sign, not a term separator
    for raw in re.split(r"(?<![0-9.][eE])\+", text):
        raw = raw.strip()
        if not raw:
            raise ProblemFormatError("empty term in rhs expression", line)
        if "*" in raw:
            coef_s, basis = raw.split("*", 1)
            coef, basis = _number(coef_s, line), basis.strip()
        elif raw in _RHS_BASES:
            coef, basis = 1.0, raw
        else:
            coef, basis = _number(raw, line), "one"
        if basis not in _RHS_BASES:
            raise ProblemFormatError(f"unknown rhs basis {basis!r}", line)
        terms.append((coef, _RHS_BASES[basis]))

    def rhs(y, terms=tuple(terms)):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for coef, fn in terms:
            out += coef * fn(y)
        return out

    return rhs


def exact_function(name: str, line: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Named analytic solutions, in numerically stable forms."""
    parts = name.strip().split(":")
    kind, args = parts[0], [_number(p, line) for p in parts[1:]]

    def need(n):
        if len(args) != n:
            raise ProblemFormatError(f"exact solution {kind!r} takes {n} parameter(s)", line)

    if kind == "const":
        need(1)
        return lambda y: np.full_like(np.asarray(y, dtype=float), args[0])
    if kind == "sinpi":
        need(0)
        return lambda y: np.sin(np.pi * y)
    if kind == "saturating_exp":
        need(1)
        a = args[0]
        if -2.0 * a > math.log(sys.float_info.max):  # the value at y = 1 is below -DBL_MAX
            raise ProblemFormatError("exact solution 'saturating_exp' needs a >= -ln(DBL_MAX)/2", line)
        return lambda y: -np.expm1(-a * (y + 1.0))
    if kind == "exp_ramp":
        need(3)
        a, ul, ur = args
        if a == 0.0:
            raise ProblemFormatError("exact solution 'exp_ramp' needs a != 0", line)
        if a < 0.0:  # the layer at y = -1, in the mirrored form whose exponents stay <= 0
            return lambda y: ul + (ul - ur) * np.expm1(a * (y + 1.0)) / -np.expm1(2.0 * a)
        return lambda y: ur + (ur - ul) * np.expm1(a * (y - 1.0)) / -np.expm1(-2.0 * a)
    if kind == "cosh_pair":
        need(2)
        a, b = args
        ta, tb = np.tanh(a), np.tanh(b)
        if b * tb == a * ta:  # |a| = |b| (x tanh x is even), or both products underflow
            raise ProblemFormatError("exact solution 'cosh_pair' needs b tanh b != a tanh a", line)
        k = 1.0 / (b * tb - a * ta)

        def phi(x, y):
            return (np.exp(x * (y - 1.0)) + np.exp(-x * (y + 1.0))) / (1.0 + np.exp(-2.0 * x))

        return lambda y: 1.0 - b * tb * k * phi(a, y) + a * ta * k * phi(b, y)
    if kind == "erf_step":
        need(1)
        if not args[0] > 0.0:
            raise ProblemFormatError("exact solution 'erf_step' needs eps > 0", line)
        s = math.sqrt(2.0 * args[0])
        scale = erf(1.0 / s)
        return lambda y: -1.0 + (erf(y / s) + scale) / scale
    raise ProblemFormatError(f"unknown exact solution {kind!r}", line)


def _split_sections(text: str):
    """Yield (section, line_number, payload) for every non-empty line."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("operator", "rhs", "grid", "bc", "exact", "sweep"):
                raise ProblemFormatError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ProblemFormatError("content before any [section]", lineno)
        yield section, lineno, line


def _parse_bc_line(line: str, lineno: int) -> BoundaryCondition:
    at = None
    value = None
    weights = []
    for token in line.split():
        if "=" not in token:
            raise ProblemFormatError(f"expected key=value, got {token!r}", lineno)
        key, _, val = token.partition("=")
        if key == "at":
            at = _number(val, lineno)
        elif key == "value":
            value = _number(val, lineno)
        elif key.startswith("d") and key[1:].isdigit():
            weights.append((int(key[1:]), _number(val, lineno)))
        else:
            raise ProblemFormatError(f"unknown boundary-condition key {key!r}", lineno)
    if at not in (-1.0, 1.0):
        raise ProblemFormatError("boundary condition needs at=-1 or at=+1", lineno)
    if value is None:
        raise ProblemFormatError("boundary condition needs value=", lineno)
    try:
        return BoundaryCondition(int(at), tuple(weights), value)
    except ValueError as exc:
        raise ProblemFormatError(str(exc), lineno) from None


def _parse_grid(entries: list[tuple[str, str, int]]) -> int | PiecewiseGrid | None:
    """Grid from (key, value, line) entries: 'm', or 'nodes' and 'orders'; None if there are none."""
    found = {}
    for key, val, lineno in entries:
        if key not in ("m", "nodes", "orders"):
            raise ProblemFormatError(f"unknown grid key {key!r}", lineno)
        found[key] = val, lineno
    if set(found) <= {"m"}:
        return _grid_order(*found["m"]) if found else None
    if set(found) != {"nodes", "orders"}:
        raise ProblemFormatError("give either m, or both nodes and orders", lineno)
    (nodes, line), (orders, orders_line) = found["nodes"], found["orders"]
    nodes = [_number(p, line) for p in nodes.split()]
    orders = [_grid_order(p, orders_line) for p in orders.split()]
    try:
        return PiecewiseGrid(np.array(nodes), tuple(orders))
    except ValueError as exc:
        raise ProblemFormatError(str(exc), line) from None


def _split_quadratics(operator, line: int) -> OperatorFactorization:
    """Each real-rooted (D^2 + b D + c) as (D - r1)(D - r2), r1 >= r2, after the linear factors."""
    if not isinstance(operator, OperatorFactorization):
        raise ProblemFormatError("':linear' needs a factored operator", line)
    roots = []
    for q in operator.quadratic:
        h, disc = -0.5 * q.b, 0.25 * q.b * q.b - q.c
        if disc < 0:
            raise ProblemFormatError(f"quadratic factor {q.b:g} {q.c:g} has complex roots", line)
        big = h + math.copysign(math.sqrt(disc), h)  # no cancellation; the other root is c / big
        roots += sorted([big, q.c / big if big else 0.0], reverse=True)
    return OperatorFactorization(operator.linear + tuple(map(FirstOrderOp, roots)))


def _parse_sweep(lines: list[tuple[int, str]], spec: ProblemSpec) -> Sweep:
    header, tokens, columns_line, rows = None, [spec.backend], None, []
    for lineno, line in lines:
        key, val = _key_value(line)
        if key == "header":
            header = val
        elif key == "columns":
            tokens, columns_line = val.split(), lineno
        elif key == "row":
            label, *grid_keys = val.split(";")
            grid = _parse_grid([(*_key_value(g), lineno) for g in grid_keys])
            if grid is None:
                raise ProblemFormatError("sweep row needs a grid after ';'", lineno)
            rows.append((label.strip(), grid))
        else:
            raise ProblemFormatError(f"unknown sweep key {key!r}", lineno)
    if header is None or not rows:
        raise ProblemFormatError("[sweep] needs a header and at least one row", lines[0][0])
    columns = []
    for token in tokens:
        col_backend, _, measure = token.partition(":")
        if col_backend not in ("spectral", "diffmat") or measure not in ("", "linear", "overshoot"):
            raise ProblemFormatError(f"unknown sweep column {token!r}", columns_line)
        col_operator = _split_quadratics(spec.operator, columns_line) if measure == "linear" else spec.operator
        columns.append((col_backend, col_operator, measure == "overshoot"))
    return Sweep(header, tuple(rows), tuple(columns))


def _key_value(line: str) -> tuple[str, str]:
    key, _, val = line.partition("=")
    return key.strip(), val.strip()


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem file; raises ProblemFormatError on first error."""
    linear: list[FirstOrderOp] = []
    quadratic: list[SecondOrderOp] = []
    affine: AffineConvectionOp | None = None
    affine_line = 0
    rhs = parse_rhs_expr("const:0")
    grid_entries: list[tuple[str, str, int]] = []
    bcs: list[BoundaryCondition] = []
    exact = None
    sweep_lines: list[tuple[int, str]] = []

    for section, lineno, line in _split_sections(text):
        if section == "operator":
            parts = line.split()
            kind, vals = parts[0], [_number(p, lineno) for p in parts[1:]]
            if kind == "linear" and len(vals) == 1:
                linear.append(FirstOrderOp(vals[0]))
            elif kind == "quadratic" and len(vals) == 2:
                quadratic.append(SecondOrderOp(vals[0], vals[1]))
            elif kind == "ysecond" and len(vals) == 4:
                affine = AffineConvectionOp(vals[0], vals[1], vals[2], vals[3])
                affine_line = lineno
            else:
                raise ProblemFormatError(
                    f"expected 'linear a', 'quadratic b c', or 'ysecond p q1 q0 r', got {line!r}", lineno
                )
        elif section == "rhs":
            key, expr = _key_value(line)
            if key != "expr":
                raise ProblemFormatError(f"unknown rhs key {key!r}", lineno)
            rhs = parse_rhs_expr(expr, lineno)
        elif section == "grid":
            grid_entries.append((*_key_value(line), lineno))
        elif section == "bc":
            bcs.append(_parse_bc_line(line, lineno))
        elif section == "exact":
            key, name = _key_value(line)
            if key != "name":
                raise ProblemFormatError(f"unknown exact key {key!r}", lineno)
            exact = exact_function(name, lineno)
        elif section == "sweep":
            sweep_lines.append((lineno, line))

    if affine is not None and (linear or quadratic):
        raise ProblemFormatError("ysecond cannot be combined with factored terms", affine_line)
    if affine is not None:
        operator = affine
    elif linear or quadratic:
        operator = OperatorFactorization(tuple(linear), tuple(quadratic))
    else:
        raise ProblemFormatError("missing [operator] section")

    grid = _parse_grid(grid_entries)
    if grid is None:
        raise ProblemFormatError("missing [grid] section")

    try:
        check_boundary_conditions(bcs, operator.order)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None

    spec = ProblemSpec(operator=operator, rhs=rhs, grid=grid, bcs=tuple(bcs), exact=exact)
    return replace(spec, sweep=_parse_sweep(sweep_lines, spec)) if sweep_lines else spec


def load_problem(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
