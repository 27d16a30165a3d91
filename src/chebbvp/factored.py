"""Boundary value problems for operators given in factored form.

An operator L = (D-a_1)...(D-a_m)(D^2+b_1 D+c_1)...(D^2+b_n D+c_n) of order
r = m + 2n is solved by chaining the first- and second-order solvers: one
particular chain driven by f and r homogeneous chains, each started from the
factor it belongs to under normalized integral conditions.  Chain level k
holds the quantity with k "derivatives" relative to the level-0 solution, so
level 0 of the particular chain satisfies L u = f discretely and level 0 of
each homogeneous chain satisfies L u = 0.

The boundary conditions are fitted last.  Each condition is one linear
functional of the Chebyshev coefficients, a weighted sum of the closed-form
endpoint derivative rows T_n^(d)(+-1); it is applied to every basis solution
and to the particular solution, and the resulting r x r dense system
determines the combination constants.  The badly under-resolved pieces of
the particular and homogeneous solutions cancel in this combination, which
is why the grid only needs to resolve the boundary-fitted solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Union

import numpy as np

from .banded import SingularSystemError, dense_solve
from .chebyshev import ChebCoeffs, GridValues, apply_endpoint_row, endpoint_row, function_to_coeffs, to_coeffs
from .integration import (
    FirstOrderOp,
    SecondOrderOp,
    first_order_homogeneous,
    first_order_particular,
    second_order_homogeneous_1,
    second_order_homogeneous_2,
    second_order_particular,
)

ChainLevels = dict[int, ChebCoeffs]


@dataclass(frozen=True)
class OperatorFactorization:
    """Ordered real factors: linear (D - a_i) first, then quadratic (D^2 + b_k D + c_k)."""

    linear: tuple[FirstOrderOp, ...] = ()
    quadratic: tuple[SecondOrderOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(self.linear))
        object.__setattr__(self, "quadratic", tuple(self.quadratic))
        if self.order < 1:
            raise ValueError("factorization must contain at least one factor")

    @property
    def order(self) -> int:
        return len(self.linear) + 2 * len(self.quadratic)

    def chain_levels(self) -> set[int]:
        """Levels at which chain intermediates exist (level 0 always does)."""
        m, n = len(self.linear), len(self.quadratic)
        return {m + 2 * n - j for j in range(1, m + 1)} | {2 * (n - k) for k in range(1, n + 1)} | {0}


@dataclass(frozen=True)
class BoundaryCondition:
    """sum_d coeff_d * u^(d)(endpoint) = value, endpoint in {-1, +1}."""

    endpoint: int
    weights: tuple[tuple[int, float], ...]
    value: float

    def __post_init__(self):
        if self.endpoint not in (-1, 1):
            raise ValueError("endpoint must be -1 or +1")
        ws = tuple((int(d), float(w)) for d, w in self.weights)
        if not ws or all(w == 0.0 for _, w in ws):
            raise ValueError("boundary condition needs a nonzero weight")
        if any(d < 0 for d, _ in ws):
            raise ValueError("derivative orders must be nonnegative")
        if not all(isfinite(w) for _, w in ws) or not isfinite(self.value):
            raise ValueError("boundary-condition weights and value must be finite")
        object.__setattr__(self, "weights", ws)

    @staticmethod
    def dirichlet(endpoint: int, value: float) -> "BoundaryCondition":
        return BoundaryCondition(endpoint, ((0, 1.0),), value)

    @staticmethod
    def derivative(endpoint: int, order: int, value: float) -> "BoundaryCondition":
        return BoundaryCondition(endpoint, ((order, 1.0),), value)

    @property
    def max_order(self) -> int:
        return max(d for d, _ in self.weights)

    def row(self, m: int) -> np.ndarray:
        """Coefficient-space row of the condition on an order-m series."""
        return sum(w * endpoint_row(m, self.endpoint, d) for d, w in self.weights)


@dataclass(frozen=True)
class ChainSolution:
    """Particular and homogeneous chains of one operator on one grid."""

    operator: OperatorFactorization
    m: int
    particular: ChainLevels
    homogeneous: tuple[ChainLevels, ...]


@dataclass(frozen=True)
class Solution:
    """Boundary-fitted solution u = u_p + sum_j C_j u_bar^j."""

    coeffs: ChebCoeffs
    constants: np.ndarray = field(repr=False)
    chain: ChainSolution = field(repr=False)


def solve_particular_chain(op: OperatorFactorization, f: ChebCoeffs) -> ChainLevels:
    """Chain of particular solves from (D - a_1) u_{r-1} = f down to level 0."""
    _check_order(op, f.m)
    r, nq = op.order, len(op.quadratic)
    levels: ChainLevels = {}
    cur = f
    for j, lin in enumerate(op.linear, start=1):
        cur = first_order_particular(lin, cur)
        levels[r - j] = cur
    for k, quad in enumerate(op.quadratic, start=1):
        cur = second_order_particular(quad, cur)
        levels[2 * (nq - k)] = cur
    return levels


def solve_homogeneous_chain(op: OperatorFactorization, h: int, m: int) -> ChainLevels:
    """Chain of the h-th homogeneous solution (1 <= h <= r).

    h <= m_lin starts from (D - a_h) u = 0 with T_0 = 1; h = m_lin + 2i - 1
    and h = m_lin + 2i start from the i-th quadratic factor with T_0 = 1,
    T_1 = 0 and T_0 = 0, T_1 = 1 respectively.  The start is pushed through
    every remaining factor under zero integral conditions.
    """
    _check_order(op, m)
    mlin, nq = len(op.linear), len(op.quadratic)
    r = op.order
    if not 1 <= h <= r:
        raise ValueError(f"homogeneous index must be in 1..{r}")
    levels: ChainLevels = {}
    if h <= mlin:
        cur = first_order_homogeneous(op.linear[h - 1], m)
        levels[r - h] = cur
        start_quad = 1
        for j in range(h + 1, mlin + 1):
            cur = first_order_particular(op.linear[j - 1], cur)
            levels[r - j] = cur
    else:
        i = (h - mlin + 1) // 2
        quad = op.quadratic[i - 1]
        if (h - mlin) % 2 == 1:
            cur = second_order_homogeneous_1(quad, m)
        else:
            cur = second_order_homogeneous_2(quad, m)
        levels[2 * (nq - i)] = cur
        start_quad = i + 1
    for k in range(start_quad, nq + 1):
        cur = second_order_particular(op.quadratic[k - 1], cur)
        levels[2 * (nq - k)] = cur
    return levels


def solve_chains(op: OperatorFactorization, f: ChebCoeffs) -> ChainSolution:
    homo = tuple(solve_homogeneous_chain(op, h, f.m) for h in range(1, op.order + 1))
    return ChainSolution(op, f.m, solve_particular_chain(op, f), homo)


def check_boundary_conditions(bcs: list[BoundaryCondition], r: int):
    """An order-r operator takes exactly r conditions, each of order below r."""
    if len(bcs) != r:
        raise ValueError(f"operator of order {r} needs exactly {r} boundary conditions, got {len(bcs)}")
    for bc in bcs:
        if bc.max_order >= r:
            raise ValueError(f"boundary derivative order {bc.max_order} must be < operator order {r}")


def fit_boundary(chain: ChainSolution, bcs: list[BoundaryCondition]) -> Solution:
    """Fit the r combination constants to r boundary conditions."""
    r = chain.operator.order
    check_boundary_conditions(bcs, r)
    basis = [chain.homogeneous[h][0] for h in range(r)]
    part = chain.particular[0]

    mat = np.empty((r, r))
    rhs = np.empty(r)
    for i, bc in enumerate(bcs):
        row = bc.row(chain.m)
        mat[i] = [apply_endpoint_row(b, row) for b in basis]
        rhs[i] = bc.value - apply_endpoint_row(part, row)
    try:
        constants = dense_solve(mat, rhs)
    except SingularSystemError as exc:
        raise SingularSystemError(
            "boundary conditions do not determine a unique solution", column=exc.column
        ) from exc
    combined = part.a + sum(constants[j] * basis[j].a for j in range(r))
    return Solution(ChebCoeffs(chain.m, combined), constants, chain)


RightHandSide = Union[ChebCoeffs, GridValues, Callable[[np.ndarray], np.ndarray]]


def _as_coeffs(f: RightHandSide, m: int | None) -> ChebCoeffs:
    if isinstance(f, ChebCoeffs):
        return f
    if isinstance(f, GridValues):
        return to_coeffs(f)
    if callable(f):
        if m is None:
            raise ValueError("grid order m is required when f is a callable")
        return function_to_coeffs(f, m)
    raise TypeError(f"unsupported right-hand side {type(f).__name__}")


def _check_order(op: OperatorFactorization, m: int):
    if m < op.order + 3:
        raise ValueError(f"order-{op.order} factored solve needs M >= {op.order + 3}, got {m}")


def solve_bvp(
    op: OperatorFactorization,
    f: RightHandSide,
    bcs: list[BoundaryCondition],
    m: int | None = None,
) -> Solution:
    """Solve L u = f on [-1, 1] with r boundary conditions at the endpoints."""
    fc = _as_coeffs(f, m)
    return fit_boundary(solve_chains(op, fc), bcs)
