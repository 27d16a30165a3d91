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
is cached and shared by every solve through that factor: the homogeneous
chains that ``factored.homogeneous_basis`` builds from particular solves,
once per operator and M, and the particular chain of every right-hand
side.

Row n of either system depends on n alone, never on M, so its leading K
rows are the order-(K + r) system (r = 1 or 2).  A boundary-layer chain's
coefficients fall like those of e^(rho y), by asinh(n/rho) per row with
rho = |a| or the largest |root| of s^2 + b s + c, and underflow long before
row M; LAPACK's sweeps crawl through gradual underflow.  So a solve whose
right-hand side ends below ``tiny`` (the smallest normal float) first
predicts the row N where the chain has fallen by

    ln max|g| - ln tiny + ln(1 + rho) + 40,

from the closed form N asinh(N/rho) - sqrt(N^2 + rho^2) + rho of the summed
decay, and solves the order-(K + r) system alone, with K = max(one past the
right-hand side's last normal entry, N) + 2048 rounded up to a multiple of
4096, so that the solves through one factor share a factorization.  The
result is kept if its last 2048 entries are below ``tiny``, with its
entries from one past the last normal one set to exactly zero; otherwise,
and whenever K >= M - r, the order-M system is solved.  This is the
adaptive truncation of Olver & Townsend (SIAM Review 55, 2013) at the
underflow threshold instead of a tolerance.  "Normal" is ``not abs(v) <
tiny``, so NaN and inf always reach the full solve.  On the boundary-layer
tables the fitted constants are bitwise those of the full solve, and
coefficients move by less than 1e-280.  The smaller systems' factorizations
live in the same caches as every other.  After a truncated solve the chain
carries r + s, with s its last normal entry, as its support
(``ChebCoeffs.support``), so the stencils, copies and combination that
follow run on its nonzero prefix rather than on all M + 1 coefficients.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import asinh, hypot, inf, isfinite, log, log1p

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


# 32 entries per cache: a whole table run makes at most 28 factorizations, and one at M = 131072
# holds 4.7 MB (first order) or 7.9 MB (second order)
@lru_cache(maxsize=32)
def _first_order_factorization(op: FirstOrderOp, m: int) -> BandedFactorization:
    return banded_factor(first_order_matrix(op, m))


@lru_cache(maxsize=32)
def _second_order_factorization(op: SecondOrderOp, m: int) -> BandedFactorization:
    return banded_factor(second_order_matrix(op, m))


def first_order_particular(op: FirstOrderOp, f: ChebCoeffs) -> ChebCoeffs:
    """Particular solution of (D - a)u = f with T_0(u) = 0."""
    return _particular(_first_order_factorization, op, abs(float(op.a)), f.m, integral_rows(f), f.support)


def second_order_particular(op: SecondOrderOp, f: ChebCoeffs) -> ChebCoeffs:
    """Particular solution of (D^2 + bD + c)u = f with T_0(u) = T_1(u) = 0."""
    b, c = float(op.b), float(op.c)
    d = cmath.sqrt(b * b - 4.0 * c)
    rho = max(abs(b + d), abs(b - d)) / 2.0  # the largest |root| of s^2 + b s + c
    return _particular(_second_order_factorization, op, rho, f.m, double_integral_rows(f), f.support)


_TINY = np.finfo(float).tiny
_MARGIN = 2048  # rows solved past the predicted underflow, and required below tiny at the end
_ROUND = 4096  # the leading systems' orders are multiples of this, so solves share their factorization


def _particular(factorization, op, rho: float, m: int, g: np.ndarray, support: int) -> ChebCoeffs:
    """Coefficients alpha_r..alpha_{M-1} (r = M - len(g)) of op's order-M system with right-hand side g.

    ``factorization(op, order)`` is the cached factorization, and g[support:]
    is all +0.0.  A g that ends below tiny is first solved on its leading K
    rows, the order-(K + r) system, and that solve is kept if its last 2048
    entries are below tiny.
    """
    n, r = len(g), m - len(g)
    # no leading system has fewer than 4096 rows
    k = _leading_rows(g, min(support, n), rho) if n > _ROUND and abs(g[-1]) < _TINY else n
    if k < n:
        x = banded_solve(factorization(op, k + r), g[:k])
        s = _last_normal(x)
    if k == n or s > k - _MARGIN:
        x, s = banded_solve(factorization(op, m), g), n
    # allocated after the solve: keeping an array allocated before it made warm dense solves page-fault
    a = np.zeros(m + 1)
    a[r : r + s] = x[:s]
    return ChebCoeffs._adopt(m, a, r + s)


def _leading_rows(g: np.ndarray, support: int, rho: float) -> int:
    """K, a multiple of 4096: 2048 rows past both g's last normal entry and the predicted underflow row.

    n = len(g), the full system, when K would not be smaller.  Only g[:support] is read.
    """
    n, head = len(g), g[:support]
    peak = max(head.max(initial=0.0), -head.min(initial=0.0))
    if not isfinite(peak):
        return n
    # in logs: peak / tiny overflows
    budget = (log(peak) if peak > 0.0 else -inf) - log(_TINY) + log1p(rho) + 40.0
    top = (n - 1) // _ROUND * _ROUND - _MARGIN  # the largest underflow row whose K is below n
    k = _underflow_row(rho, budget, top + 1)
    if k > top:
        return n
    k = max(k, _last_normal(head)) + _MARGIN  # past n when g is normal near its end
    return min(-(-k // _ROUND) * _ROUND, n)


def _underflow_row(rho: float, budget: float, limit: int) -> int:
    """The least N <= limit whose decay sum_{j <= N} asinh(j / rho) reaches budget (limit if none).

    The sum is bounded below by its integral N asinh(N/rho) - sqrt(N^2 + rho^2)
    + rho, so the N found is never too small for a chain that decays as fast.
    """
    if rho == 0.0:
        return 0

    def decay(j: int) -> float:
        # the second term is sqrt(j^2 + rho^2) - rho, written without cancellation
        return j * asinh(j / rho) - j * j / (hypot(j, rho) + rho)

    return bisect_left(range(limit), budget, key=decay)  # decay is increasing


def _last_normal(v: np.ndarray) -> int:
    """One past the last entry of v with not abs(.) < tiny (NaN and inf count), 0 if none."""
    if len(v) == 0:
        return 0
    normal = ~((v > -_TINY) & (v < _TINY))
    last = int(np.argmax(normal[::-1]))
    return len(v) - last if normal[-1 - last] else 0


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
