"""Boundary value problems for operators given in factored form.

An operator L = (D-a_1)...(D-a_m)(D^2+b_1 D+c_1)...(D^2+b_n D+c_n) of order
r = m + 2n is solved by chaining its factors.  Each factor, read as its
order and coefficients (D^q + p_1 D^(q-1) + ... + p_q, q = 1 or 2), pushes
every chain already running through one particular solve
(``integration.particular``), and then starts its own homogeneous chains:
one for a linear factor, normalized to T_0 = 1, and two for a quadratic
one, normalized to T_0 = 1 and to T_1 = 1.  Chain level k holds the
quantity with k "derivatives" relative to the level-0 solution, so level 0
of the particular chain satisfies L u = f discretely and level 0 of each
homogeneous chain satisfies L u = 0.

The homogeneous chains depend only on the operator and M, so
``homogeneous_basis`` builds them once per (operator, M) and keeps them,
with the endpoint reads of the fit, in the solver's byte-bounded cache
(``cache``).  Each interval of a piecewise grid has its own rescaled
operator and so its own entry.  ``solve_chains`` then pushes only f
through the factors: with the banded factorizations cached too, a repeated
solve on any grid costs one banded solve per factor and interval.  A solve
holds every entry it uses (``cache.hold``), so the repeated solve finds
them all even when together they exceed the cache's bound.

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
from math import fsum, isfinite
from typing import Callable, Sequence, Union

import numpy as np

from .banded import SingularSystemError, dense_solve
from .cache import hold, memoize
from .chebyshev import (
    ChebCoeffs,
    GridValues,
    apply_endpoint_row,
    endpoint_row,
    function_to_coeffs,
    grid_order,
    to_coeffs,
)
from .integration import FirstOrderOp, SecondOrderOp, particular


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
        finite = all(isfinite(w) for _, w in ws)
        # the weights on one order add up (d0=1 d0=-1 is 0 u), so some order's exact sum must be nonzero
        if finite and all(fsum(w for e, w in ws if e == d) == 0.0 for d, _ in ws):
            raise ValueError("boundary condition needs a nonzero weight")
        if any(d < 0 for d, _ in ws):
            raise ValueError("derivative orders must be nonnegative")
        if not finite or not isfinite(self.value):
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
    """Homogeneous chains of one operator on the order-m grid.

    levels[k] holds level k of homogeneous chains 1, 2, ... in the order the
    factors start them; a chain started below level k has no entry there.
    The chains do not depend on f, so ``read`` keeps each endpoint read,
    keyed by level, endpoint and order.  Each memo entry is a pure function
    of its key, so concurrent writers store equal arrays.
    """

    m: int
    levels: dict[int, tuple[ChebCoeffs, ...]]
    _reads: dict = field(default_factory=dict, init=False, repr=False)

    def read(self, level: int, endpoint: int, order: int) -> np.ndarray:
        """The endpoint row's read of a level of every chain, zero where none (read-only)."""
        key = (level, endpoint, order)
        vals = self._reads.get(key)
        if vals is None:
            row = endpoint_row(self.m, endpoint, order)
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
    """(factor, level below it, homogeneous starts) for each factor in order.

    A start (unit, forcing) is the stored forcing of minus the factor
    D^r + p_1 D^(r-1) + ... + p_r applied to 1/2 (unit 0) or to T_1 (unit 1,
    r = 2 only): -p_r/2, stored as the T_0 coefficient -p_r, and
    -(p_1 + p_2 T_1), stored as (-2 p_1, -p_2).
    """
    level = op.order
    for factor in op.linear + op.quadratic:
        p, level = factor.poly, level - factor.order
        starts = ((0, (-p[-1],)),)
        if factor.order == 2:
            starts += ((1, (-2.0 * p[0], -p[1])),)
        yield factor, level, starts


def _basis_nbytes(op: OperatorFactorization, m: int) -> int:
    """Bytes of op's basis on the order-m grid, known before it is built.

    Its chain levels, and the most its read memo can hold: the fit reads
    orders 0 and 1 only, so four reads per level.
    """
    chains = levels = running = 0
    for *_, starts in _factor_steps(op):
        running += len(starts)
        chains += running
        levels += 1
    return 8 * ((m + 1) * chains + 4 * levels * running)


@memoize(_basis_nbytes)
def homogeneous_basis(op: OperatorFactorization, m: int) -> HomogeneousBasis:
    """The homogeneous chains of op on the order-m grid, built in one pass over the factors.

    Every chain already running is pushed through each factor by one
    particular solve under zero integral conditions.  The factor then starts
    its own homogeneous chains the roundabout way, as 1/2 + u* (or T_1 + u*)
    with u* the particular solution for minus the factor applied to 1/2 (or
    T_1).  Each start shares the factor's banded factorization with every
    other solve through it.  The solver's cache keeps each basis.
    """
    running: list[ChebCoeffs] = []
    levels: dict[int, tuple[ChebCoeffs, ...]] = {}
    for factor, level, starts in _factor_steps(op):
        running = [particular(factor, c) for c in running]
        for unit, forcing in starts:
            g = np.zeros(m + 1)
            g[: len(forcing)] = forcing
            u = particular(factor, ChebCoeffs._adopt(m, g, len(forcing)))
            s = max(u.support, unit + 1)  # the start is u with its T_unit coefficient set to 1
            a = np.zeros(m + 1)
            a[:s] = u.a[:s]
            a[unit] = 1.0
            running.append(ChebCoeffs._adopt(m, a, s))
        levels[level] = tuple(running)
    return HomogeneousBasis(m, levels)


def solve_chains(op: OperatorFactorization, f: ChebCoeffs) -> ChainSolution:
    """Particular and homogeneous chains of op on the grid of f.

    The homogeneous chains come from ``homogeneous_basis``; only the
    particular chain, f pushed through each factor by one particular solve
    under zero integral conditions, is solved here.
    """
    _check_order(op, f.m)
    basis = homogeneous_basis(op, f.m)
    part, levels = f, {}
    for factor, level, _ in _factor_steps(op):
        part = particular(factor, part)
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

    The factor D^r + p_1 D^(r-1) + ... + p_r above level k reduces D^j level_k, j >= 2, by
    D^r level_k = level_{k+r} - sum_i p_i D^(r-i) level_k.  Zero weights are not read.
    """
    above = {level: factor for factor, level, _ in _factor_steps(op)}
    reads: dict[tuple[int, int], float] = {}
    todo = [(0, d, w / half_width**d) for d, w in weights]  # (level k, order j, weight) of D^j level_k
    while todo:
        k, j, w = todo.pop()
        if j <= 1:
            reads[k, j] = reads.get((k, j), 0.0) + w
        else:
            p = above[k].poly
            todo += [(k + len(p), j - len(p), w)] + [(k, j - i, -w * p_i) for i, p_i in enumerate(p, 1)]
    return {key: w for key, w in reads.items() if w != 0.0}


def _read(chain: ChainSolution, level: int, endpoint: int, order: int) -> np.ndarray:
    """Value (order 0) or derivative (order 1) at endpoint of one level of every chain, particular first."""
    out = np.empty(len(chain.levels[0]))
    out[0] = apply_endpoint_row(chain.levels[level][0], endpoint_row(chain.m, endpoint, order))
    out[1:] = chain.basis.read(level, endpoint, order)
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


@hold()
def solve_bvp(
    op: OperatorFactorization,
    f: RightHandSide,
    bcs: list[BoundaryCondition],
    m: int | None = None,
) -> Solution:
    """Solve L u = f on [-1, 1] with r boundary conditions at the endpoints."""
    fc = _as_coeffs(f, m)
    return fit_boundary(solve_chains(op, fc), bcs)
