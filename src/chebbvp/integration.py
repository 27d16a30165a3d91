"""Spectral integration of one factor D^r + p_1 D^(r-1) + ... + p_r (r = 1 or 2) under integral conditions.

The factor is integrated r times, u + p_1 int u + ... + p_r int^r u + P =
int^r f with P of degree below r, and the T_n coefficients are equated for
n = r..M-1.  With T_0(u) = ... = T_{r-1}(u) = 0 the unknowns
alpha_r..alpha_{M-1} solve, for (D - a) with p_1 = -a, a tridiagonal system

    alpha_n + p_1 (alpha_{n-1} - alpha_{n+1}) / (2n) = (f_{n-1} - f_{n+1}) / (2n),

and for (D^2 + b D + c) with p = (b, c) a pentadiagonal one

    alpha_{n-2} p_2/(4n(n-1)) + alpha_{n-1} p_1/(2n) + alpha_n (1 - p_2/(2(n^2-1)))
      - alpha_{n+1} p_1/(2n) + alpha_{n+2} p_2/(4n(n+1))
    = f_{n-2}/(4n(n-1)) - f_n/(2(n^2-1)) + f_{n+2}/(4n(n+1)),

with f_M = f_{M+1} = 0.  The integration constants are never represented:
rows n >= r do not involve them, which is precisely why the integral
conditions yield banded systems.  The right-hand sides are
``chebyshev.integral_rows`` and ``double_integral_rows``, the stencils of
``integrate_coeffs`` and ``double_integrate_coeffs``.  A factor is read
only through its ``order`` r, its ``poly`` (p_1, ..., p_r) and ``rho``.

Each banded matrix depends only on the factor and M, so its factorization
is kept in the solver's cache (``cache``) and shared by every solve through
that factor: the homogeneous chains that ``factored.homogeneous_basis``
builds from particular solves, and the particular chain of every
right-hand side.

Row n of the system depends on n alone, never on M, so its leading K rows
are the order-(K + r) system.  A boundary-layer chain's coefficients fall
like those of e^(rho y), by asinh(n/rho) per row with rho the largest |root|
of s^r + p_1 s^(r-1) + ... + p_r, and underflow long before row M; LAPACK's
sweeps crawl through gradual underflow.  So a solve whose right-hand side
ends below ``tiny`` (the smallest normal float) first predicts the row N
where the chain has fallen by

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
live in the same cache as every other.  After a truncated solve the chain
carries r + s, with s its last normal entry, as its support
(``ChebCoeffs.support``), so the stencils, copies and combination that
follow run on its nonzero prefix rather than on all M + 1 coefficients.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from dataclasses import dataclass
from math import asinh, hypot, inf, isfinite, log, log1p

import numpy as np

from .banded import BandedFactorization, BandedMatrix, banded_factor, banded_solve, factor_nbytes
from .cache import memoize
from .chebyshev import (
    ChebCoeffs,
    double_integral_rows,
    double_integrate_coeffs,
    integral_rows,
    integrate_coeffs,
)


@dataclass(frozen=True)
class FirstOrderOp:
    """The factor (D - a): order 1, poly (-a,)."""

    a: float
    order = 1

    def __post_init__(self):
        if not isfinite(self.a):
            raise ValueError("coefficient a must be finite")

    @property
    def poly(self) -> tuple[float]:
        return (-self.a,)

    @property
    def rho(self) -> float:
        return abs(float(self.a))


@dataclass(frozen=True)
class SecondOrderOp:
    """The factor (D^2 + b D + c): order 2, poly (b, c)."""

    b: float
    c: float
    order = 2

    def __post_init__(self):
        if not (isfinite(self.b) and isfinite(self.c)):
            raise ValueError("coefficients b, c must be finite")

    @property
    def poly(self) -> tuple[float, float]:
        return (self.b, self.c)

    @property
    def rho(self) -> float:
        """The largest |root| of s^2 + b s + c."""
        b, c = float(self.b), float(self.c)
        d = cmath.sqrt(b * b - 4.0 * c)
        return max(abs(b + d), abs(b - d)) / 2.0


def factor_matrix(op, m: int) -> BandedMatrix:
    """The banded system for alpha_r..alpha_{M-1} (rows n = r..M-1, r = op.order)."""
    r, p = op.order, op.poly
    if m < 2 * r + 1:
        raise ValueError(f"order-{r} spectral integration needs grid order M >= {2 * r + 1}, got {m}")
    n = np.arange(r, m)
    diagonals = {-1: p[0] / (2.0 * n[1:]), 1: -p[0] / (2.0 * n[:-1])}  # alpha_{n-1}, alpha_{n+1}
    if r == 1:
        diagonals[0] = np.ones(m - 1)
    else:
        diagonals[0] = 1.0 - p[1] / (2.0 * (n * n - 1))
        diagonals[-2] = p[1] / (4.0 * n[2:] * (n[2:] - 1))  # alpha_{n-2}, rows n = 4..M-1
        diagonals[2] = p[1] / (4.0 * n[:-2] * (n[:-2] + 1))  # alpha_{n+2}, rows n = 2..M-3
    return BandedMatrix.from_diagonals(m - r, r, r, diagonals)


second_order_matrix = factor_matrix  # the name the benchmark's SVD oracle calls


# an entry's bytes: the factors of factor_matrix (4.7 / 7.9 MB at M = 131072); one build under two kinds, one per
# factor order, which the benchmark clears and counts by name
@memoize(lambda op, m: factor_nbytes(m - 1, 1, 1))
def _first_order_factorization(op: FirstOrderOp, m: int) -> BandedFactorization:
    return banded_factor(factor_matrix(op, m))


@memoize(lambda op, m: factor_nbytes(m - 2, 2, 2))
def _second_order_factorization(op: SecondOrderOp, m: int) -> BandedFactorization:
    return banded_factor(factor_matrix(op, m))


# by factor order: the cached factorization, the stencil of int^r f, and int^k
_FACTORIZATIONS = {1: _first_order_factorization, 2: _second_order_factorization}
_STENCILS = {1: integral_rows, 2: double_integral_rows}
_INTEGRALS = {1: integrate_coeffs, 2: double_integrate_coeffs}


def particular(op, f: ChebCoeffs) -> ChebCoeffs:
    """Particular solution of op u = f under the integral conditions T_0(u) = ... = T_{r-1}(u) = 0."""
    return _particular(_FACTORIZATIONS[op.order], op, op.rho, f.m, _STENCILS[op.order](f), f.support)


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


def residual(op, u: ChebCoeffs, f: ChebCoeffs) -> np.ndarray:
    """Rows n = r..M-1 of u + p_1 int u + ... + p_r int^r u - int^r f, recomputed from the recurrences."""
    lhs = u.a
    for k, p in enumerate(op.poly, 1):
        lhs = lhs + p * _INTEGRALS[k](u).a
    return (lhs - _INTEGRALS[op.order](f).a)[op.order : u.m]
