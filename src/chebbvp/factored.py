"""Boundary value problems for operators given in factored form.

An operator L = (D-a_1)...(D-a_m)(D^2+b_1 D+c_1)...(D^2+b_n D+c_n) of order
r = m + 2n is solved by chaining the first- and second-order solvers.
Each factor pushes every chain already running through one particular
solve, and then starts its own homogeneous chains: one for a linear factor,
normalized to T_0 = 1, and two for a quadratic one, normalized to T_0 = 1
and to T_1 = 1.  Chain level k holds the quantity with k "derivatives"
relative to the level-0 solution, so level 0 of the particular chain
satisfies L u = f discretely and level 0 of each homogeneous chain
satisfies L u = 0.

The homogeneous chains depend only on the operator and M, so
``homogeneous_basis`` builds them once and keeps the last (operator, M) in
a one-entry cache, together with their endpoint reads.  ``solve_chains``
then pushes only f through the factors: with the banded factorizations
cached too, a repeated solve on one operator costs one banded solve per
factor.

The boundary conditions are fitted last, by one fit for single and
piecewise grids (a single grid is one interval).  Every row, boundary and
interface alike, combines order-0/1 endpoint reads of the chain levels; the
factors reduce u^(d), d >= 2, to such reads, so no row weighs the chains'
top coefficients by more than T_n'(+-1) = +-n^2.  One dense system,
row-equilibrated and solved by LAPACK (``banded.dense_solve``), determines
the combination constants.  The badly under-resolved pieces of the
particular and homogeneous solutions cancel in this combination, which is
why the grid only needs to resolve the boundary-fitted solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from typing import Callable, Sequence, Union

import numpy as np

from .banded import SingularSystemError, dense_solve
from .chebyshev import (
    ChebCoeffs,
    GridValues,
    apply_endpoint_row,
    endpoint_row,
    function_to_coeffs,
    grid_order,
    to_coeffs,
)
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
        ws = tuple((grid_order(d, "derivative order"), float(w)) for d, w in self.weights)
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


@dataclass(frozen=True, eq=False)
class HomogeneousBasis:
    """Homogeneous chains of one operator on one grid order.

    levels[k] holds level k of homogeneous chains 1, 2, ... in the order the
    factors start them; a chain started below level k has no entry there.
    Neither the chains nor their endpoint reads depend on f, so ``read``
    keeps each read, keyed by level, endpoint and order.
    """

    levels: dict[int, tuple[ChebCoeffs, ...]]
    _reads: dict = field(default_factory=dict, init=False, repr=False)

    def read(self, level: int, endpoint: int, order: int, row: np.ndarray) -> np.ndarray:
        """row = endpoint_row(m, endpoint, order) on a level of every chain, zero where none (read-only).

        The entry is a pure function of its key, so concurrent writers store equal arrays.
        """
        key = (level, endpoint, order)
        vals = self._reads.get(key)
        if vals is None:
            vals = np.zeros(len(self.levels[0]))
            vals[: len(self.levels[level])] = [apply_endpoint_row(c, row) for c in self.levels[level]]
            vals.setflags(write=False)
            self._reads[key] = vals
        return vals


@dataclass(frozen=True, eq=False)
class ChainSolution:
    """Particular and homogeneous chains of one operator on one grid.

    levels[k] holds level k of the particular chain, then of homogeneous
    chains 1, 2, ... in the order the factors start them.  A homogeneous
    chain started below level k has no entry there: the factors above its
    start annihilate it, so it is exactly zero at level k.  The homogeneous
    entries are those of basis, shared by every solve on the operator and
    grid order.
    """

    operator: OperatorFactorization
    m: int
    levels: dict[int, tuple[ChebCoeffs, ...]]
    basis: HomogeneousBasis = field(repr=False)


@dataclass(frozen=True, eq=False)
class Solution:
    """Boundary-fitted solution u = u_p + sum_j C_j u_bar^j; the chains stay inside the solve."""

    coeffs: ChebCoeffs
    constants: np.ndarray = field(repr=False)


def _factor_steps(op: OperatorFactorization):
    """(factor, particular solver, level below it, homogeneous starts) for each factor in order.

    A start (unit, forcing) is the stored forcing of minus the factor applied
    to 1/2 (unit 0) or to T_1 (unit 1).
    """
    level = op.order
    for factor in op.linear + op.quadratic:
        if isinstance(factor, FirstOrderOp):
            level -= 1
            # forcing a/2, whose stored T_0 coefficient is a
            yield factor, first_order_particular, level, ((0, (factor.a,)),)
        else:
            level -= 2
            # forcings -c/2 (for 1/2) and -(b + c T_1) (for T_1), stored
            yield factor, second_order_particular, level, ((0, (-factor.c,)), (1, (-2.0 * factor.b, -factor.c)))


@lru_cache(maxsize=1)
def homogeneous_basis(op: OperatorFactorization, m: int) -> HomogeneousBasis:
    """The homogeneous chains of op on the order-m grid, built in one pass over the factors.

    Every chain already running is pushed through each factor by one
    particular solve under zero integral conditions.  The factor then starts
    its own homogeneous chains the roundabout way, as 1/2 + u* (or T_1 + u*)
    with u* the particular solution for minus the factor applied to 1/2 (or
    T_1).  Each start shares the factor's banded factorization with every
    other solve through it.  One entry is kept: a solve on the same
    operator and order reuses it, and a solve on another replaces it.
    """
    running: list[ChebCoeffs] = []
    levels: dict[int, tuple[ChebCoeffs, ...]] = {}
    for factor, solve, level, starts in _factor_steps(op):
        running = [solve(factor, c) for c in running]
        for unit, forcing in starts:
            g = np.zeros(m + 1)
            g[: len(forcing)] = forcing
            u = solve(factor, ChebCoeffs._adopt(m, g, len(forcing)))
            s = max(u.support, unit + 1)  # the start is u with its T_unit coefficient set to 1
            a = np.zeros(m + 1)
            a[:s] = u.a[:s]
            a[unit] = 1.0
            running.append(ChebCoeffs._adopt(m, a, s))
        levels[level] = tuple(running)
    return HomogeneousBasis(levels)


def solve_chains(op: OperatorFactorization, f: ChebCoeffs) -> ChainSolution:
    """Particular and homogeneous chains of op on the grid of f.

    The homogeneous chains come from ``homogeneous_basis``; only the
    particular chain, f pushed through each factor by one particular solve
    under zero integral conditions, is solved here.
    """
    _check_order(op, f.m)
    basis = homogeneous_basis(op, f.m)
    part, levels = f, {}
    for factor, solve, level, _ in _factor_steps(op):
        part = solve(factor, part)
        levels[level] = (part,) + basis.levels[level]
    return ChainSolution(op, f.m, levels, basis)


def check_boundary_conditions(bcs: list[BoundaryCondition], r: int):
    """An order-r operator takes exactly r conditions, each of order below r."""
    if len(bcs) != r:
        raise ValueError(f"operator of order {r} needs exactly {r} boundary conditions, got {len(bcs)}")
    for bc in bcs:
        if bc.max_order >= r:
            raise ValueError(f"boundary derivative order {bc.max_order} must be < operator order {r}")


def fit_boundary(chain: ChainSolution, bcs: list[BoundaryCondition]) -> Solution:
    """Fit the r combination constants to r boundary conditions: the combined series and its constants."""
    constants = fit_constants([chain], [1.0], bcs)[0]
    return Solution(combine(chain, constants), constants)


def fit_constants(
    chains: Sequence[ChainSolution], halves: Sequence[float], bcs: list[BoundaryCondition]
) -> np.ndarray:
    """Combination constants, shape (n, r), of the chains of n adjacent intervals.

    Interval i is mapped to [-1, 1] from half-width halves[i].  The r
    boundary rows come first, then r level-matching rows per interface.
    """
    n, r = len(chains), chains[0].operator.order
    check_boundary_conditions(bcs, r)
    mat = np.zeros((r * n, r * n), order="F")
    rhs = np.zeros(r * n)
    for row, bc in enumerate(bcs):
        i = 0 if bc.endpoint == -1 else n - 1
        reads = _derivative_reads(chains[i].operator, bc.weights, halves[i])
        vals = sum(w * _read(chains[i], level, bc.endpoint, order) for (level, order), w in reads.items())
        mat[row, i * r : (i + 1) * r] = vals[1:]
        rhs[row] = bc.value - vals[0]
    row = r
    for i in range(n - 1):  # node between interval i and i+1
        sl, sr = 1.0, 1.0
        for j in range(r):
            # order j reads level j, or the derivative of level j - 1 where a quadratic skips it
            level, order = (j, 0) if j in chains[i].levels else (j - 1, 1)
            left = sl * _read(chains[i], level, 1, order)
            right = sr * _read(chains[i + 1], level, -1, order)
            mat[row, i * r : (i + 1) * r] = left[1:]
            mat[row, (i + 1) * r : (i + 2) * r] = -right[1:]
            rhs[row] = right[0] - left[0]
            row += 1
            sl /= halves[i]
            sr /= halves[i + 1]
    try:
        constants = dense_solve(mat, rhs)
    except SingularSystemError as exc:
        msg = "boundary conditions do not determine a unique solution on this grid"
        raise SingularSystemError(msg, column=exc.column) from exc
    return constants.reshape(n, r)


def _derivative_reads(op: OperatorFactorization, weights, half_width: float) -> dict[tuple[int, int], float]:
    """sum_d w_d u^(d) on an interval of half_width as {(level, order): weight}, order <= 1.

    The factor above level k reduces D^j level_k, j >= 2: D - a by D level_k = level_{k+1} + a level_k,
    and D^2 + b D + c by D^2 level_k = level_{k+2} - b D level_k - c level_k.  Zero weights are not read.
    """
    above = {level: factor for factor, _, level, _ in _factor_steps(op)}
    reads: dict[tuple[int, int], float] = {}
    todo = [(0, d, w / half_width**d) for d, w in weights]  # (level k, order j, weight) of D^j level_k
    while todo:
        k, j, w = todo.pop()
        if j <= 1:
            reads[k, j] = reads.get((k, j), 0.0) + w
        elif isinstance(f := above[k], FirstOrderOp):
            todo += [(k + 1, j - 1, w), (k, j - 1, w * f.a)]
        else:
            todo += [(k + 2, j - 2, w), (k, j - 1, -w * f.b), (k, j - 2, -w * f.c)]
    return {key: w for key, w in reads.items() if w != 0.0}


def _read(chain: ChainSolution, level: int, endpoint: int, order: int) -> np.ndarray:
    """Value (order 0) or derivative (order 1) at endpoint of one level of every chain, particular first."""
    row = endpoint_row(chain.m, endpoint, order)
    out = np.empty(len(chain.levels[0]))
    out[0] = apply_endpoint_row(chain.levels[level][0], row)
    out[1:] = chain.basis.read(level, endpoint, order, row)
    return out


def combine(chain: ChainSolution, constants: np.ndarray) -> ChebCoeffs:
    """u = u_p + sum_j C_j u_bar^j from level 0 of the chains, summed up to one past their largest support.

    Past it every term is +0.0, unless a constant is not finite: then inf * 0 is NaN there, so the sum is full length.
    """
    part, *basis = chain.levels[0]
    m = chain.m
    n = max(c.support for c in chain.levels[0]) + 1 if all(map(isfinite, constants)) else m + 1
    a = part.a[:n] + sum(c * b.a[:n] for c, b in zip(constants, basis))
    if n <= m:
        a, head = np.zeros(m + 1), a
        a[:n] = head
    return ChebCoeffs._adopt(m, a, n - 1)


RightHandSide = Union[ChebCoeffs, GridValues, Callable[[np.ndarray], np.ndarray]]


def _as_coeffs(f: RightHandSide, m: int | None) -> ChebCoeffs:
    if isinstance(f, (ChebCoeffs, GridValues)) and m is not None and m != f.m:
        raise ValueError(f"grid order m = {m} differs from the right-hand side's order {f.m}")
    if isinstance(f, ChebCoeffs):
        return f
    if isinstance(f, GridValues):
        return to_coeffs(f)
    if callable(f):
        if m is None:
            raise ValueError("grid order m is required when f is a callable")
        return function_to_coeffs(f, m)
    raise TypeError(f"unsupported right-hand side {type(f).__name__}")


def check_factored(op):
    """The spectral path solves factored operators; the affine-convection operator has no factors."""
    if not isinstance(op, OperatorFactorization):
        raise ValueError("the affine-convection operator requires the diffmat backend")


def _check_order(op: OperatorFactorization, m: int):
    check_factored(op)
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
