"""Boundary value problems for operators given in factored form.

An operator L = (D-a_1)...(D-a_m)(D^2+b_1 D+c_1)...(D^2+b_n D+c_n) of order
r = m + 2n is solved by chaining the first- and second-order solvers.
``solve_chains`` walks the factors once, in order.  At each factor, every
chain already running gets one particular solve through it (the particular
chain, driven by f, first), and then the factor starts its own homogeneous
chains: one for a linear factor, normalized to T_0 = 1, and two for a
quadratic one, normalized to T_0 = 1 and to T_1 = 1.  Chain level k holds
the quantity with k "derivatives" relative to the level-0 solution, so level
0 of the particular chain satisfies L u = f discretely and level 0 of each
homogeneous chain satisfies L u = 0.

The boundary conditions are fitted last, by one fit for single and
piecewise grids (a single grid is one interval).  Each condition is one
linear functional of the Chebyshev coefficients, a weighted sum of the
closed-form endpoint derivative rows T_n^(d)(+-1), applied to every chain of
its end interval; interfaces add r rows each, and one dense system
determines the combination constants.  The badly under-resolved pieces of
the particular and homogeneous solutions cancel in this combination, which
is why the grid only needs to resolve the boundary-fitted solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Sequence, Union

import numpy as np

from .banded import SingularSystemError, dense_solve
from .chebyshev import ChebCoeffs, GridValues, apply_endpoint_row, endpoint_row, function_to_coeffs, to_coeffs
from .integration import FirstOrderOp, SecondOrderOp, first_order_particular, second_order_particular


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
    """Particular and homogeneous chains of one operator on one grid.

    levels[k] holds level k of the particular chain, then of homogeneous
    chains 1, 2, ... in the order the factors start them.  A homogeneous
    chain started below level k has no entry there: the factors above its
    start annihilate it, so it is exactly zero at level k.
    """

    operator: OperatorFactorization
    m: int
    levels: dict[int, tuple[ChebCoeffs, ...]]


@dataclass(frozen=True)
class Solution:
    """Boundary-fitted solution u = u_p + sum_j C_j u_bar^j."""

    coeffs: ChebCoeffs
    constants: np.ndarray = field(repr=False)
    chain: ChainSolution = field(repr=False)


def solve_chains(op: OperatorFactorization, f: ChebCoeffs) -> ChainSolution:
    """Particular and homogeneous chains, built in one pass over the factors.

    Every chain already running is pushed through each factor by one
    particular solve under zero integral conditions.  The factor then starts
    its own homogeneous chains the roundabout way, as 1/2 + u* (or T_1 + u*)
    with u* the particular solution for minus the factor applied to 1/2 (or
    T_1).  Each start shares the factor's banded factorization with every
    other solve through it.
    """
    _check_order(op, f.m)
    m, level = f.m, op.order
    running = [f]
    levels: dict[int, tuple[ChebCoeffs, ...]] = {}
    for factor in op.linear + op.quadratic:
        if isinstance(factor, FirstOrderOp):
            solve, level = first_order_particular, level - 1
            # forcing a/2, whose stored T_0 coefficient is a
            starts = ((0, (factor.a,)),)
        else:
            solve, level = second_order_particular, level - 2
            # forcings -c/2 (for 1/2) and -(b + c T_1) (for T_1), stored
            starts = ((0, (-factor.c,)), (1, (-2.0 * factor.b, -factor.c)))
        running = [solve(factor, c) for c in running]
        for unit, forcing in starts:
            g = np.zeros(m + 1)
            g[: len(forcing)] = forcing
            a = solve(factor, ChebCoeffs(m, g)).a.copy()
            a[unit] = 1.0
            running.append(ChebCoeffs(m, a))
        levels[level] = tuple(running)
    return ChainSolution(op, m, levels)


def check_boundary_conditions(bcs: list[BoundaryCondition], r: int):
    """An order-r operator takes exactly r conditions, each of order below r."""
    if len(bcs) != r:
        raise ValueError(f"operator of order {r} needs exactly {r} boundary conditions, got {len(bcs)}")
    for bc in bcs:
        if bc.max_order >= r:
            raise ValueError(f"boundary derivative order {bc.max_order} must be < operator order {r}")


def fit_boundary(chain: ChainSolution, bcs: list[BoundaryCondition]) -> Solution:
    """Fit the r combination constants to r boundary conditions."""
    constants = fit_constants([chain], [1.0], bcs)[0]
    return Solution(combine(chain, constants), constants, chain)


def fit_constants(
    chains: Sequence[ChainSolution], halves: Sequence[float], bcs: list[BoundaryCondition]
) -> np.ndarray:
    """Combination constants, shape (n, r), of the chains of n adjacent intervals.

    Interval i is mapped to [-1, 1] from half-width halves[i].  The r
    boundary rows come first, then r level-matching rows per interface.
    """
    n, r = len(chains), chains[0].operator.order
    check_boundary_conditions(bcs, r)
    mat = np.zeros((r * n, r * n))
    rhs = np.zeros(r * n)
    for row, bc in enumerate(bcs):
        i = 0 if bc.endpoint == -1 else n - 1
        vals = _level_functional(chains[i], 0, _scaled_bc(bc, halves[i]).row(chains[i].m))
        mat[row, i * r : (i + 1) * r] = vals[1:]
        rhs[row] = bc.value - vals[0]
    row = r
    for i in range(n - 1):  # node between interval i and i+1
        sl, sr = 1.0, 1.0
        for j in range(r):
            # order j reads level j, or the derivative of level j - 1 where a quadratic skips it
            level, order = (j, 0) if j in chains[i].levels else (j - 1, 1)
            left = sl * _level_functional(chains[i], level, endpoint_row(chains[i].m, 1, order))
            right = sr * _level_functional(chains[i + 1], level, endpoint_row(chains[i + 1].m, -1, order))
            mat[row, i * r : (i + 1) * r] = left[1:]
            mat[row, (i + 1) * r : (i + 2) * r] = -right[1:]
            rhs[row] = right[0] - left[0]
            row += 1
            sl /= halves[i]
            sr /= halves[i + 1]
    try:
        constants = dense_solve(mat, rhs)
    except SingularSystemError as exc:
        raise SingularSystemError(
            "boundary conditions do not determine a unique solution on this grid", column=exc.column
        ) from exc
    return constants.reshape(n, r)


def _scaled_bc(bc: BoundaryCondition, half_width: float) -> BoundaryCondition:
    """Fold the (2/w)^d chain-rule factors of a global bc into local weights."""
    weights = tuple((d, w / half_width**d) for d, w in bc.weights)
    return BoundaryCondition(bc.endpoint, weights, bc.value)


def _level_functional(chain: ChainSolution, level: int, row: np.ndarray) -> np.ndarray:
    """An endpoint row applied to one level of every chain, particular first.

    Chains that start below the level read are annihilated by the factors
    above their start, so their entries are exactly zero.
    """
    out = np.zeros(chain.operator.order + 1)
    for h, c in enumerate(chain.levels[level]):
        out[h] = apply_endpoint_row(c, row)
    return out


def combine(chain: ChainSolution, constants: np.ndarray) -> ChebCoeffs:
    """u = u_p + sum_j C_j u_bar^j from level 0 of the chains."""
    part, *basis = chain.levels[0]
    return ChebCoeffs(chain.m, part.a + sum(c * b.a for c, b in zip(constants, basis)))


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
