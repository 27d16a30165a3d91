"""Piecewise Chebyshev grids: per-interval solves joined by continuity.

The domain [eta_0, eta_n] is split at user-chosen nodes; each interval is
mapped to [-1, 1], the operator is rescaled (a -> a w/2 for linear factors,
(b, c) -> (b w/2, c w^2/4) for quadratic ones, right-hand side times
(w/2)^r), and the factored-form solver produces one particular and r
homogeneous chains per interval.  The r*n combination constants solve a
dense system of r boundary rows plus r rows per interface.

Interface rows prefer the chain intermediates: the order-j condition
matches (2/w_i)^j times the level-j quantity at the shared node, which for
an all-linear factorization at r = 2 is exactly the ((D - w b/2) u_i)(1)/w_i
derivative-continuity condition.  Inside a quadratic block only even levels
exist, so the odd orders there match the series endpoint derivative of the
level below instead; both functionals are linear in the coefficients and
the two reduce to the same continuity requirements.  Interface and boundary
rows read endpoints through ``chebyshev.endpoint_derivative``, the same
coefficient-space functional as the single-grid boundary fit.

A second backend discretizes each interval with a scaled differentiation
matrix, collocates at interior points, and shares interface values between
neighboring intervals (restricted to total order 2, which is all the dense
collocation row-counting supports).  This backend also accepts the
affine-convection operator with a y-proportional coefficient.  Its
derivative match at a shared node is weak: p times the jump in u' is
balanced against the two intervals' residuals at the node, each weighted by
its Clenshaw-Curtis endpoint weight times the half-width.  That is the
interface equation of the Galerkin form under the grids' own quadrature.
It holds for the exact solution, and it keeps a derivative that one side
cannot resolve (the Gaussian tail of an internal layer, say) from being
forced onto the other side's highest Chebyshev mode.  The rows carry the
interval scales, so their maxima span many orders of magnitude on an
internal-layer grid; each row is scaled by a power of two before the dense
solve, which leaves the exact solution unchanged and keeps partial pivoting
from losing digits to the raw row scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .banded import SingularSystemError, dense_solve
from .chebyshev import (
    ChebCoeffs,
    GridValues,
    cheb_points,
    dense_sample,
    endpoint_derivative,
    eval_series,
    grid_order,
    to_coeffs,
)
from .diffmat import (
    AffineConvectionOp,
    affine_convection_matrix,
    build_diffmat,
    build_operator_matrix,
    diff_endpoint_row,
)
from .factored import (
    BoundaryCondition,
    ChainSolution,
    OperatorFactorization,
    apply_chain_row,
    check_boundary_conditions,
    combine,
    solve_chains,
)
from .integration import FirstOrderOp, SecondOrderOp

PiecewiseRhs = Union[Callable[[np.ndarray], np.ndarray], Sequence[GridValues]]


@dataclass(frozen=True)
class PiecewiseGrid:
    """Nodes eta_0 < ... < eta_n and the grid order of each interval."""

    nodes: np.ndarray
    orders: tuple[int, ...]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        orders = tuple(grid_order(m) for m in self.orders)
        if len(orders) != len(nodes) - 1:
            raise ValueError("need one grid order per interval")
        if any(m < 1 for m in orders):
            raise ValueError("grid orders must be positive")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "orders", orders)

    @property
    def n_intervals(self) -> int:
        return len(self.orders)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def interval_points(self, i: int) -> np.ndarray:
        """Global points of interval i (0-based), descending like the local grid."""
        lo, hi = self.nodes[i], self.nodes[i + 1]
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        return mid + half * cheb_points(self.orders[i]).points


@dataclass(frozen=True)
class PiecewiseSolution:
    """Per-interval local series; constants are None for the values backend."""

    grid: PiecewiseGrid
    local_coeffs: tuple[ChebCoeffs, ...]
    constants: np.ndarray | None = field(default=None, repr=False)


def rescale_operator(op: OperatorFactorization, w: float) -> tuple[OperatorFactorization, float]:
    """Operator and right-hand-side scale after mapping a width-w interval to [-1, 1]."""
    if w <= 0:
        raise ValueError("interval width must be positive")
    h = w / 2.0
    linear = tuple(FirstOrderOp(f.a * h) for f in op.linear)
    quadratic = tuple(SecondOrderOp(f.b * h, f.c * h * h) for f in op.quadratic)
    return OperatorFactorization(linear, quadratic), h**op.order


def _interval_rhs(f: PiecewiseRhs, grid: PiecewiseGrid, i: int) -> ChebCoeffs:
    if callable(f):
        vals = GridValues(grid.orders[i], np.asarray(f(grid.interval_points(i)), dtype=float))
    else:
        vals = f[i]
        if vals.m != grid.orders[i]:
            raise ValueError(f"interval {i} right-hand side is on order {vals.m}, expected {grid.orders[i]}")
    return to_coeffs(vals)


def _level_functional(chain: ChainSolution, j: int, endpoint: int) -> np.ndarray:
    """Order-j interface quantity of every chain, particular first, at a local endpoint.

    Chains that start below the level read are annihilated by the factors
    above their start, so their entries are exactly zero.
    """
    level, order = (j, 0) if j in chain.levels else (j - 1, 1)
    out = np.zeros(chain.operator.order + 1)
    for h, c in enumerate(chain.levels[level]):
        out[h] = endpoint_derivative(c, endpoint, order)
    return out


def _scaled_bc(bc: BoundaryCondition, half_width: float) -> BoundaryCondition:
    """Fold the (2/w)^d chain-rule factors of a global bc into local weights."""
    weights = tuple((d, w / half_width**d) for d, w in bc.weights)
    return BoundaryCondition(bc.endpoint, weights, bc.value)


def piecewise_solve_spectral(
    op: OperatorFactorization,
    f: PiecewiseRhs,
    grid: PiecewiseGrid,
    bcs: list[BoundaryCondition],
) -> PiecewiseSolution:
    """Spectral-integration backend: factored chains per interval + interface fit."""
    r = op.order
    n = grid.n_intervals
    check_boundary_conditions(bcs, r)
    for m in grid.orders:
        if m < r + 3:
            raise ValueError(f"spectral backend needs every interval order >= {r + 3}")

    widths = grid.widths
    halves = widths / 2.0
    chains = []
    for i in range(n):
        op_i, s = rescale_operator(op, widths[i])
        fc = _interval_rhs(f, grid, i)
        chains.append(solve_chains(op_i, ChebCoeffs(fc.m, fc.a * s)))

    size = r * n
    mat = np.zeros((size, size))
    rhs_vec = np.zeros(size)
    row = 0
    for bc in bcs:
        i = 0 if bc.endpoint == -1 else n - 1
        part, *basis = apply_chain_row(chains[i], _scaled_bc(bc, halves[i]).row(grid.orders[i]))
        mat[row, i * r : (i + 1) * r] = basis
        rhs_vec[row] = bc.value - part
        row += 1

    for i in range(n - 1):  # node between interval i and i+1
        sl, sr = 1.0, 1.0
        for j in range(r):
            left = sl * _level_functional(chains[i], j, 1)
            right = sr * _level_functional(chains[i + 1], j, -1)
            mat[row, i * r : (i + 1) * r] = left[1:]
            mat[row, (i + 1) * r : (i + 2) * r] = -right[1:]
            rhs_vec[row] = right[0] - left[0]
            row += 1
            sl /= halves[i]
            sr /= halves[i + 1]

    try:
        constants = dense_solve(mat, rhs_vec)
    except SingularSystemError as exc:
        raise SingularSystemError(
            "nodes/orders do not determine a unique solution", column=exc.column
        ) from exc
    constants = constants.reshape(n, r)
    local = tuple(combine(chain, c) for chain, c in zip(chains, constants))
    return PiecewiseSolution(grid, local, constants)


def _global_second_order(op) -> SecondOrderOp | AffineConvectionOp:
    if isinstance(op, AffineConvectionOp):
        return op
    if isinstance(op, OperatorFactorization):
        if op.order != 2:
            raise ValueError("differentiation-matrix backend supports total order 2 only")
        if len(op.linear) == 2:
            a1, a2 = op.linear[0].a, op.linear[1].a
            return SecondOrderOp(-(a1 + a2), a1 * a2)
        return op.quadratic[0]
    raise TypeError(f"unsupported operator {type(op).__name__}")


def _endpoint_weight(m: int) -> float:
    """Clenshaw-Curtis weight of either endpoint of the order-m grid on [-1, 1]."""
    return 1.0 / (m * m - 1) if m % 2 == 0 else 1.0 / (m * m)


def _equilibrate_rows(mat: np.ndarray, rhs: np.ndarray) -> None:
    """Scale each row in place by the power of two that brings its max to [0.5, 1).

    Powers of two, as in LAPACK's dgeequb, make the scaling exact; all-zero
    rows are left as they are.
    """
    row_max = np.maximum(mat.max(axis=1), -mat.min(axis=1))
    scale = np.ldexp(1.0, -np.frexp(row_max)[1])
    mat *= scale[:, None]
    rhs *= scale


def piecewise_solve_diffmat(
    op,
    f: PiecewiseRhs,
    grid: PiecewiseGrid,
    bcs: list[BoundaryCondition],
) -> PiecewiseSolution:
    """Differentiation-matrix backend: interior collocation + shared interface values.

    For p u'' + q u' + r u = f, the row of an interface node b between
    intervals L and R reads

        wL R_L(b) + wR R_R(b) - p (u_L'(b) - u_R'(b)) = 0,

    with R the collocation residual of each side at b and w the half-width
    times the Clenshaw-Curtis endpoint weight.  With the strong match
    u_L'(b) = u_R'(b) instead, table 4's eps = 1e-12 layer imposes its
    unresolved tail derivative (about 1e-8 at y = -8e-6) on the outer
    interval.  Interior collocation there can only carry it through the
    T_M-like mode, whose derivative vanishes at the interior points, and
    even the exactly solved system overshoots by about 4e-12 (8e-12 at the
    nodes).  The weak row weights that derivative by p = eps, and the exact
    overshoot drops to about 7e-15.

    The rows carry the interval scales 2/w and (2/w)^2, so their maxima span
    many orders of magnitude on table 4's grid.  Every row is scaled by a
    power of two before the dense solve (row equilibration, Skeel 1980).
    This leaves the exact solution unchanged and keeps partial pivoting from
    losing digits to the raw row scales.
    """
    second = _global_second_order(op)
    n = grid.n_intervals
    check_boundary_conditions(bcs, 2)
    for m in grid.orders:
        if m < 2:
            raise ValueError("differentiation-matrix backend needs every interval order >= 2")

    widths = grid.widths
    halves = widths / 2.0
    orders = grid.orders
    starts = np.concatenate([[0], np.cumsum(orders)])
    size = starts[-1] + 1

    def gidx(i, j):
        # local j descending from the right end; global index ascending in y
        return starts[i] + (orders[i] - j)

    dmats = [build_diffmat(m) for m in orders]
    mat = np.zeros((size, size))
    rhs_vec = np.zeros(size)
    ends = []
    row = 0
    for i in range(n):
        pts = grid.interval_points(i)
        if isinstance(second, AffineConvectionOp):
            li = affine_convection_matrix(second, dmats[i], halves[i], pts)
        else:
            li = build_operator_matrix(second, dmats[i], halves[i])
        if callable(f):
            fvals = np.asarray(f(pts), dtype=float)
        else:
            fv = f[i]
            if fv.m != orders[i]:
                raise ValueError(f"interval {i} right-hand side is on order {fv.m}, expected {orders[i]}")
            fvals = fv.v
        cols = np.array([gidx(i, k) for k in range(orders[i] + 1)])
        for j in range(1, orders[i]):
            mat[row, cols] = li[j]
            rhs_vec[row] = fvals[j]
            row += 1
        # residual rows and right-hand sides at the right (j = 0) and left (j = m) ends
        ends.append((li[0], li[-1], fvals[0], fvals[-1]))

    p = second.diff2 if isinstance(second, AffineConvectionOp) else 1.0
    for i in range(n - 1):  # weak derivative match at the shared node
        cols_l = np.array([gidx(i, k) for k in range(orders[i] + 1)])
        cols_r = np.array([gidx(i + 1, k) for k in range(orders[i + 1] + 1)])
        wl = halves[i] * _endpoint_weight(orders[i])
        wr = halves[i + 1] * _endpoint_weight(orders[i + 1])
        mat[row, cols_l] += wl * ends[i][0] - p * diff_endpoint_row(orders[i], 1) / halves[i]
        mat[row, cols_r] += wr * ends[i + 1][1] + p * diff_endpoint_row(orders[i + 1], -1) / halves[i + 1]
        rhs_vec[row] = wl * ends[i][2] + wr * ends[i + 1][3]
        row += 1

    for bc in bcs:
        i = 0 if bc.endpoint == -1 else n - 1
        cols = np.array([gidx(i, k) for k in range(orders[i] + 1)])
        for d, w in bc.weights:
            if d == 0:
                mat[row, gidx(i, orders[i] if bc.endpoint == -1 else 0)] += w
            else:  # d == 1
                mat[row, cols] += w * diff_endpoint_row(orders[i], bc.endpoint) / halves[i]
        rhs_vec[row] = bc.value
        row += 1

    _equilibrate_rows(mat, rhs_vec)
    try:
        x = np.linalg.solve(mat, rhs_vec)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"piecewise collocation system is singular: {exc}") from exc
    local = []
    for i in range(n):
        vals = x[[gidx(i, j) for j in range(orders[i] + 1)]]
        local.append(to_coeffs(GridValues(orders[i], vals)))
    return PiecewiseSolution(grid, tuple(local), None)


def _locate(grid: PiecewiseGrid, y: float) -> int:
    nodes = grid.nodes
    if y < nodes[0] or y > nodes[-1]:
        raise ValueError(f"{y} outside the solution domain [{nodes[0]}, {nodes[-1]}]")
    i = int(np.searchsorted(nodes, y, side="left"))  # ties go to the left interval
    return max(i, 1) - 1


def eval_piecewise(sol: PiecewiseSolution, y: float) -> float:
    """Evaluate at a global point; node ties resolve to the left interval."""
    i = _locate(sol.grid, float(y))
    lo, hi = sol.grid.nodes[i], sol.grid.nodes[i + 1]
    t = (2.0 * float(y) - (lo + hi)) / (hi - lo)
    return eval_series(sol.local_coeffs[i], min(1.0, max(-1.0, t)))


def sample_piecewise(sol: PiecewiseSolution, per_interval: int | None = None):
    """(points, values) over all intervals, refined to per_interval if given.

    With per_interval None the solution's own collocation points are used
    (interface points appear once per adjacent interval).
    """
    pts_all, vals_all = [], []
    for i, c in enumerate(sol.local_coeffs):
        order = c.m if per_interval is None else max(per_interval, c.m)
        t, v = dense_sample(c, order)
        lo, hi = sol.grid.nodes[i], sol.grid.nodes[i + 1]
        pts_all.append((lo + hi) / 2.0 + (hi - lo) / 2.0 * t)
        vals_all.append(v)
    return np.concatenate(pts_all), np.concatenate(vals_all)


def overshoot(sol: PiecewiseSolution, lo: float, hi: float, samples: int = 10000) -> float:
    """Max excursion beyond [lo, hi] over a dense clustered sampling per interval."""
    if samples < 1000:
        raise ValueError("use at least 1000 samples per interval")
    _, vals = sample_piecewise(sol, per_interval=samples)
    return float(max(0.0, np.max(vals - hi), np.max(lo - vals)))
