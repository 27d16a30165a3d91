"""Piecewise Chebyshev grids: per-interval solves joined by continuity.

The domain [eta_0, eta_n] is split at user-chosen nodes; each interval is
mapped to [-1, 1], the operator is rescaled (a -> a w/2 for linear factors,
(b, c) -> (b w/2, c w^2/4) for quadratic ones, right-hand side times
(w/2)^r), and the factored-form solver produces one particular and r
homogeneous chains per interval.  ``factored.fit_constants``, the fit of a
single grid, solves for the r*n constants with r rows per interface added.

Interface rows read the chain levels as the boundary rows do: the order-j
row matches (2/w_i)^j times level j at the shared node, or, inside a
quadratic block where only even levels exist, the derivative of level
j - 1.  Together the r rows amount to continuity of u, ..., u^(r-1).

A second backend collocates on the same grids.  Its unknowns are the grid
values, ascending in y, with one value per shared node; each interval's
operator block (``diffmat.operator_block``) fills the rows and columns of
its own values, so neighbors share the row and column of their common node.
That row becomes the interface row, and the domain's first and last rows
the two boundary conditions (total order 2 only).  Every operator,
factored or not, takes the one form p u'' + (q1 y + q0) u' + r u
(``AffineConvectionOp``).  Its derivative match at a shared node is weak: p times the jump in u' is
balanced against the two intervals' residuals at the node, each weighted by
its Clenshaw-Curtis endpoint weight times the half-width.  That is the
interface equation of the Galerkin form under the grids' own quadrature.
It holds for the exact solution, and it keeps a derivative that one side
cannot resolve (the Gaussian tail of an internal layer, say) from being
forced onto the other side's highest Chebyshev mode.  The system goes to
``banded.dense_solve``, the same row-equilibrated LAPACK solve as the
spectral backend's fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .banded import dense_solve
from .chebyshev import (
    ChebCoeffs,
    GridValues,
    cheb_points,
    dense_sample,
    eval_series,
    grid_order,
    to_coeffs,
)
from .diffmat import AffineConvectionOp, diff_endpoint_row, operator_block
from .factored import (
    BoundaryCondition,
    OperatorFactorization,
    check_boundary_conditions,
    check_factored,
    combine,
    fit_constants,
    solve_chains,
)
from .integration import FirstOrderOp, SecondOrderOp

# The dense collocation system: every interval m <= 4096 and at most 8193
# unknowns, two full intervals, so the system, which its LU overwrites,
# stays near 540 MB.  Both are checked before it is allocated.
_MAX_DENSE_ORDER = 4096
_MAX_UNKNOWNS = 2 * _MAX_DENSE_ORDER + 1

PiecewiseRhs = Union[Callable[[np.ndarray], np.ndarray], Sequence[GridValues]]


@dataclass(frozen=True, eq=False)
class PiecewiseGrid:
    """Nodes eta_0 < ... < eta_n and the grid order of each interval."""

    nodes: np.ndarray
    orders: tuple[int, ...]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        orders = tuple(grid_order(m) for m in self.orders)
        if len(orders) != len(nodes) - 1:
            raise ValueError("need one grid order per interval")
        if min(orders) < 1:
            raise ValueError(f"grid order must be >= 1, got {min(orders)}")
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


@dataclass(frozen=True, eq=False)
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


def _interval_values(f: PiecewiseRhs, grid: PiecewiseGrid, i: int) -> GridValues:
    """Right-hand side on interval i: f sampled at its points, or the i-th of one GridValues per interval."""
    m = grid.orders[i]
    if callable(f):
        v = f(grid.interval_points(i))
    elif len(f) != grid.n_intervals:
        raise ValueError(f"got {len(f)} right-hand sides for intervals 0 to {grid.n_intervals - 1}")
    else:
        v = f[i].v
    if np.shape(v) != (m + 1,):
        raise ValueError(f"interval {i} right-hand side has shape {np.shape(v)}, expected ({m + 1},)")
    return GridValues(m, v)


def piecewise_solve_spectral(
    op: OperatorFactorization,
    f: PiecewiseRhs,
    grid: PiecewiseGrid,
    bcs: list[BoundaryCondition],
) -> PiecewiseSolution:
    """Spectral-integration backend: factored chains per interval + interface fit."""
    check_factored(op)
    chains = []
    for i, w in enumerate(grid.widths):
        op_i, s = rescale_operator(op, w)
        fc = to_coeffs(_interval_values(f, grid, i))
        chains.append(solve_chains(op_i, ChebCoeffs(fc.m, fc.a * s)))
    constants = fit_constants(chains, grid.widths / 2.0, bcs)
    local = tuple(combine(chain, c) for chain, c in zip(chains, constants))
    return PiecewiseSolution(grid, local, constants)


def _global_second_order(op) -> AffineConvectionOp:
    """The order-2 operator as p u'' + (q1 y + q0) u' + r u."""
    if isinstance(op, AffineConvectionOp):
        return op
    if isinstance(op, OperatorFactorization):
        if op.order != 2:
            raise ValueError("differentiation-matrix backend supports total order 2 only")
        if len(op.linear) == 2:
            a1, a2 = op.linear[0].a, op.linear[1].a
            return AffineConvectionOp(1.0, 0.0, -(a1 + a2), a1 * a2)
        return AffineConvectionOp(1.0, 0.0, op.quadratic[0].b, op.quadratic[0].c)
    raise TypeError(f"unsupported operator {type(op).__name__}")


def _endpoint_weight(m: int) -> float:
    """Clenshaw-Curtis weight of either endpoint of the order-m grid on [-1, 1]."""
    return 1.0 / (m * m - 1) if m % 2 == 0 else 1.0 / (m * m)


def piecewise_solve_diffmat(
    op,
    f: PiecewiseRhs,
    grid: PiecewiseGrid,
    bcs: list[BoundaryCondition],
) -> PiecewiseSolution:
    """Differentiation-matrix backend: interior collocation + shared interface values.

    Interval i's block covers rows and columns starts[i] : starts[i] + m_i + 1
    and is written there reversed, since local points descend from y = +1.
    Before the next block overwrites the shared corner, its two end rows are
    copied; each shared row is then rewritten as the interface row from
    those copies, and rows 0 and size - 1 as the boundary conditions.

    For p u'' + q u' + r u = f, the row of an interface node b between
    intervals L and R reads

        wL R_L(b) + wR R_R(b) - p (u_L'(b) - u_R'(b)) = 0,

    with R the collocation residual of each side at b and w the half-width
    times the Clenshaw-Curtis endpoint weight.  With the strong match
    u_L'(b) = u_R'(b) instead, table 4's eps = 1e-12 layer imposes its
    unresolved tail derivative (about 1e-8 at y = -8e-6) on the outer
    interval.  Interior collocation there can only carry it through the
    T_M-like mode, whose derivative vanishes at the interior points, and
    even the exactly solved system overshoots by about 1e-11 (2.5e-11 at the
    nodes).  The weak row weights that derivative by p = eps, and the exact
    overshoot drops to about 1e-15.

    The rows carry the interval scales 2/w and (2/w)^2, so their maxima span
    many orders of magnitude on table 4's grid.  ``dense_solve`` scales
    every row by a power of two in place before LAPACK's LU, so the raw row
    scales cost no digits.
    """
    second = _global_second_order(op)
    n = grid.n_intervals
    check_boundary_conditions(bcs, 2)
    orders = grid.orders
    if min(orders) < 2:
        raise ValueError("differentiation-matrix backend needs every interval order >= 2")
    halves = grid.widths / 2.0
    starts = np.concatenate([[0], np.cumsum(orders)])
    blocks = [slice(s, s + m + 1) for s, m in zip(starts, orders)]
    size = starts[-1] + 1
    if max(orders) > _MAX_DENSE_ORDER or size > _MAX_UNKNOWNS:
        limit = f"m <= {_MAX_DENSE_ORDER} per interval and {_MAX_UNKNOWNS} unknowns"
        raise ValueError(f"collocation system limited to {limit}, got m = {max(orders)} and {size} unknowns")
    values = [_interval_values(f, grid, i) for i in range(n)]

    mat = np.zeros((size, size), order="F")  # factored in place by dense_solve
    rhs_vec = np.zeros(size)
    ends = []
    for i, (m, b) in enumerate(zip(orders, blocks)):
        operator_block(second, m, halves[i], grid.interval_points(i), mat[b, b][::-1, ::-1])
        rhs_vec[b] = values[i].v[::-1]
        # residual rows and right-hand sides at the left (y = -1) and right (y = +1) ends
        ends.append((mat[[b.start, b.stop - 1], b], rhs_vec[[b.start, b.stop - 1]]))

    p = second.diff2
    for i in range(n - 1):  # weak derivative match at the shared node
        (rows_l, f_l), (rows_r, f_r) = ends[i], ends[i + 1]
        wl = halves[i] * _endpoint_weight(orders[i])
        wr = halves[i + 1] * _endpoint_weight(orders[i + 1])
        row = starts[i + 1]
        mat[row] = 0.0
        dl, dr = diff_endpoint_row(orders[i], 1)[::-1], diff_endpoint_row(orders[i + 1], -1)[::-1]
        mat[row, blocks[i]] += wl * rows_l[1] - p * dl / halves[i]
        mat[row, blocks[i + 1]] += wr * rows_r[0] + p * dr / halves[i + 1]
        rhs_vec[row] = wl * f_l[1] + wr * f_r[0]

    for row, bc in zip((0, size - 1), bcs):  # the domain's end rows
        i = 0 if bc.endpoint == -1 else n - 1
        mat[row] = 0.0
        for d, w in bc.weights:
            if d == 0:
                mat[row, 0 if bc.endpoint == -1 else size - 1] += w
            else:  # d == 1
                mat[row, blocks[i]] += (w * diff_endpoint_row(orders[i], bc.endpoint) / halves[i])[::-1]
        rhs_vec[row] = bc.value

    x = dense_solve(mat, rhs_vec)
    local = tuple(to_coeffs(GridValues(m, x[block][::-1])) for m, block in zip(orders, blocks))
    return PiecewiseSolution(grid, local, None)


def _locate(grid: PiecewiseGrid, y: float) -> int:
    nodes = grid.nodes
    if not nodes[0] <= y <= nodes[-1]:  # NaN included
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
