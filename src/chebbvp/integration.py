"""First- and second-order spectral integration under integral conditions.

A first-order problem (D - a)u = f is integrated once,

    u - a int u + A = int f,

and the T_n coefficients are equated for n = 1..M-1.  With the integral
condition T_0(u) = 0 (alpha_0 = 0) the constant A never enters rows n >= 1,
so the unknowns alpha_1..alpha_{M-1} solve a tridiagonal system

    alpha_n - a (alpha_{n-1} - alpha_{n+1}) / (2n) = (f_{n-1} - f_{n+1}) / (2n).

A second-order problem (D^2 + b D + c)u = f is integrated twice; with
T_0(u) = T_1(u) = 0 the rows n = 2..M-1 form a pentadiagonal system

    alpha_{n-2} c/(4n(n-1)) + alpha_{n-1} b/(2n) + alpha_n (1 - c/(2(n^2-1)))
      - alpha_{n+1} b/(2n) + alpha_{n+2} c/(4n(n+1))
    = f_{n-2}/(4n(n-1)) - f_n/(2(n^2-1)) + f_{n+2}/(4n(n+1)),

with f_M = f_{M+1} = 0.  The integration constants are never represented:
rows n >= r do not involve them, which is precisely why the integral
conditions yield banded systems.  The right-hand sides are
``chebyshev.integral_rows`` and ``double_integral_rows``, the stencils of
``integrate_coeffs`` and ``double_integrate_coeffs``.

Each banded matrix depends only on the factor and M, so its factorization
is cached and shared by every solve through that factor: the particular
chain and the homogeneous starts that ``factored.solve_chains`` builds from
particular solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .banded import BandedFactorization, BandedMatrix, banded_factor, banded_solve
from .chebyshev import (
    ChebCoeffs,
    double_integral_rows,
    double_integrate_coeffs,
    integral_rows,
    integrate_coeffs,
)


@dataclass(frozen=True)
class FirstOrderOp:
    """The factor (D - a)."""

    a: float

    def __post_init__(self):
        if not isfinite(self.a):
            raise ValueError("coefficient a must be finite")


@dataclass(frozen=True)
class SecondOrderOp:
    """The factor (D^2 + b D + c)."""

    b: float
    c: float

    def __post_init__(self):
        if not (isfinite(self.b) and isfinite(self.c)):
            raise ValueError("coefficients b, c must be finite")


def _require_order(m: int, minimum: int, what: str):
    if m < minimum:
        raise ValueError(f"{what} needs grid order M >= {minimum}, got {m}")


def first_order_matrix(op: FirstOrderOp, m: int) -> BandedMatrix:
    """Tridiagonal system for alpha_1..alpha_{M-1} (rows n = 1..M-1)."""
    _require_order(m, 3, "first-order spectral integration")
    n = np.arange(1, m)
    sub = -op.a / (2.0 * n[1:])       # alpha_{n-1}, rows n = 2..M-1
    sup = op.a / (2.0 * n[:-1])       # alpha_{n+1}, rows n = 1..M-2
    return BandedMatrix.from_diagonals(m - 1, 1, 1, {0: np.ones(m - 1), -1: sub, 1: sup})


def second_order_matrix(op: SecondOrderOp, m: int) -> BandedMatrix:
    """Pentadiagonal system for alpha_2..alpha_{M-1} (rows n = 2..M-1)."""
    _require_order(m, 5, "second-order spectral integration")
    b, c = op.b, op.c
    n = np.arange(2, m)
    d0 = 1.0 - c / (2.0 * (n * n - 1))
    d_sub1 = b / (2.0 * n[1:])                     # alpha_{n-1}, rows n = 3..M-1
    d_sub2 = c / (4.0 * n[2:] * (n[2:] - 1))       # alpha_{n-2}, rows n = 4..M-1
    d_sup1 = -b / (2.0 * n[:-1])                   # alpha_{n+1}, rows n = 2..M-2
    d_sup2 = c / (4.0 * n[:-2] * (n[:-2] + 1))     # alpha_{n+2}, rows n = 2..M-3
    return BandedMatrix.from_diagonals(
        m - 2, 2, 2, {0: d0, -1: d_sub1, -2: d_sub2, 1: d_sup1, 2: d_sup2}
    )


@lru_cache(maxsize=256)
def _first_order_factorization(op: FirstOrderOp, m: int) -> BandedFactorization:
    return banded_factor(first_order_matrix(op, m))


@lru_cache(maxsize=256)
def _second_order_factorization(op: SecondOrderOp, m: int) -> BandedFactorization:
    return banded_factor(second_order_matrix(op, m))


def first_order_particular(op: FirstOrderOp, f: ChebCoeffs) -> ChebCoeffs:
    """Particular solution of (D - a)u = f with T_0(u) = 0."""
    m = f.m
    x = banded_solve(_first_order_factorization(op, m), integral_rows(f))
    a = np.zeros(m + 1)
    a[1:m] = x
    return ChebCoeffs(m, a)


def second_order_particular(op: SecondOrderOp, f: ChebCoeffs) -> ChebCoeffs:
    """Particular solution of (D^2 + bD + c)u = f with T_0(u) = T_1(u) = 0."""
    m = f.m
    x = banded_solve(_second_order_factorization(op, m), double_integral_rows(f))
    a = np.zeros(m + 1)
    a[2:m] = x
    return ChebCoeffs(m, a)


def first_order_residual(op: FirstOrderOp, u: ChebCoeffs, f: ChebCoeffs) -> np.ndarray:
    """Rows n = 1..M-1 of u - a int u - int f, recomputed from the recurrences."""
    lhs = u.a - op.a * integrate_coeffs(u).a
    rhs = integrate_coeffs(f).a
    return (lhs - rhs)[1 : u.m]


def second_order_residual(op: SecondOrderOp, u: ChebCoeffs, f: ChebCoeffs) -> np.ndarray:
    """Rows n = 2..M-1 of u + b int u + c iint u - iint f."""
    lhs = u.a + op.b * integrate_coeffs(u).a + op.c * double_integrate_coeffs(u).a
    rhs = double_integrate_coeffs(f).a
    return (lhs - rhs)[2 : u.m]
