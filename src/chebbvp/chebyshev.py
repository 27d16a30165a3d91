"""Chebyshev grids, value<->coefficient transforms, and integration recurrences.

Series convention used throughout the package: a coefficient vector
``a[0..M]`` represents

    u(y) = a[0]/2 + sum_{j=1}^{M-1} a[j] T_j(y) + 0 * T_M(y),

i.e. the stored leading coefficient is halved in the series and the last
coefficient is always suppressed (``a[M] = 0`` is enforced on every
construction).  Grid points are ``y_j = cos(j pi / M)``, descending from +1
to -1.

A coefficient vector also carries its support, a length s <= M with
``a[s:]`` all +0.0 bit for bit: -0.0 and NaN lie inside it.  The public
constructor finds s by one scan; the solvers hand over s where they already
know it.  Steps that only carry zeros past s (the integration stencils, the
chain combination, the evaluation) work on ``a[:s]`` and write +0.0 past
their rows, bitwise what the full-length formulas give.  Endpoint reads stay
full length: numpy's pairwise sum groups its terms by the array's length.

Transforms between grid values and coefficients are DCT-I pairs:

    a_j = (2/M) * sum''_{k=0}^{M} v_k cos(j k pi / M)

with the double prime halving the k=0 and k=M terms.  The production path
uses ``scipy.fft.dct(type=1)``; the direct cosine summation serves as the
test oracle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.fft import dct


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float).copy()
    out.setflags(write=False)
    return out


def _frozen(cls, **fields):
    """An instance of cls around read-only arrays the caller has just made and gives up: no copy, no checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _support(a: np.ndarray) -> int:
    """One past the last entry of a whose bits are not those of +0.0, 0 if none."""
    bits = a.view(np.int64)
    n = len(bits)
    # a dense vector costs no scan, nor does one of a single parity, whose last entry is an exact zero
    if n and bits[-1]:
        return n
    if n > 1 and bits[-2]:
        return n - 1
    nonzero = np.flatnonzero(bits)
    return int(nonzero[-1]) + 1 if len(nonzero) else 0


@dataclass(frozen=True, eq=False)
class ChebGrid:
    """Chebyshev grid of order M: the M+1 points cos(j pi / M), descending."""

    m: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.m + 1,):
            raise ValueError("points length must be m+1")
        object.__setattr__(self, "points", _readonly(pts))


def grid_order(m, what: str = "grid order") -> int:
    """m as an int: 16 and 16.0 pass, 16.9 raises ValueError naming what rather than being truncated."""
    if isinstance(m, numbers.Integral) or (isinstance(m, numbers.Real) and float(m).is_integer()):
        return int(m)
    raise ValueError(f"{what} {m} is not an integer")


def cheb_points(m: int) -> ChebGrid:
    """Grid of the m+1 Chebyshev points cos(j pi / m), j = 0..m.

    The endpoints and (for even m) the midpoint are pinned to 1, -1, 0
    exactly; rounding in cos would otherwise leave the midpoint at ~6e-17.
    """
    m = grid_order(m)
    if m < 1:
        raise ValueError(f"grid order must be >= 1, got {m}")
    j = np.arange(m + 1)
    pts = np.cos(np.pi * j / m)
    pts[0] = 1.0
    pts[m] = -1.0
    if m % 2 == 0:
        pts[m // 2] = 0.0
    pts.setflags(write=False)
    return _frozen(ChebGrid, m=m, points=pts)


@dataclass(frozen=True, eq=False)
class GridValues:
    """Function values at the m+1 Chebyshev points (descending from +1)."""

    m: int
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.v, dtype=float)
        if vals.shape != (self.m + 1,):
            raise ValueError(f"expected {self.m + 1} values, got {vals.shape}")
        object.__setattr__(self, "v", _readonly(vals))


@dataclass(frozen=True, eq=False)
class ChebCoeffs:
    """Truncated Chebyshev coefficients a[0..M] with a[M] zeroed on construction.

    support is a length s <= M with a[s:] all +0.0 (see the module docstring).
    """

    m: int
    a: np.ndarray = field(repr=False)
    support: int = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        if arr.shape != (self.m + 1,):
            raise ValueError(f"expected {self.m + 1} coefficients, got {arr.shape}")
        arr[self.m] = 0.0
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "support", _support(arr[: self.m]))

    @classmethod
    def _adopt(cls, m: int, a: np.ndarray, support: int | None = None) -> "ChebCoeffs":
        """Coefficients around a fresh length-(m + 1) float array the caller gives up: no copy.

        a[m] is zeroed here.  A support the caller knows (a[support:] all +0.0,
        support <= m) saves the scan.
        """
        a[m] = 0.0
        a.setflags(write=False)
        return _frozen(cls, m=m, a=a, support=_support(a[:m]) if support is None else support)

    @staticmethod
    def zeros(m: int) -> "ChebCoeffs":
        return ChebCoeffs(m, np.zeros(m + 1))

    @staticmethod
    def unit(m: int, n: int, scale: float = 1.0) -> "ChebCoeffs":
        """Coefficient vector of scale * T_n (stored convention: T_0 is a[0]=2)."""
        a = np.zeros(m + 1)
        a[n] = 2.0 * scale if n == 0 else scale
        return ChebCoeffs(m, a)


def to_coeffs(vals: GridValues) -> ChebCoeffs:
    """Interpolation coefficients of grid values; a[M] is forced to zero."""
    a = dct(vals.v, type=1)
    a /= vals.m
    return ChebCoeffs._adopt(vals.m, a)


def to_values(coeffs: ChebCoeffs) -> GridValues:
    """Series values at the grid points; exact inverse of to_coeffs on the a[M]=0 subspace."""
    v = dct(coeffs.a, type=1)
    v /= 2.0
    v.setflags(write=False)
    return _frozen(GridValues, m=coeffs.m, v=v)


def sample_function(f: Callable[[np.ndarray], np.ndarray], m: int) -> GridValues:
    """Sample f at the order-m Chebyshev points."""
    grid = cheb_points(m)
    return GridValues(grid.m, np.asarray(f(grid.points), dtype=float))


def function_to_coeffs(f: Callable[[np.ndarray], np.ndarray], m: int) -> ChebCoeffs:
    return to_coeffs(sample_function(f, m))


def eval_series(coeffs: ChebCoeffs, y):
    """Evaluate the series at y in [-1, 1] by the backward (Clenshaw) recurrence.

    Accepts a scalar or an ndarray; no trigonometric calls, which keeps the
    evaluation accurate near +-1 where boundary layers live.  The recurrence
    starts at the support: rows above it carry b1 = b2 = +0.0.
    """
    yarr = np.asarray(y, dtype=float)
    if not np.all((yarr >= -1.0) & (yarr <= 1.0)):  # NaN included
        raise ValueError("evaluation point outside [-1, 1]")
    a = coeffs.a
    b1 = np.zeros_like(yarr)
    b2 = np.zeros_like(yarr)
    two_y = 2.0 * yarr
    for k in range(coeffs.support - 1, 0, -1):
        b1, b2 = a[k] + two_y * b1 - b2, b1
    out = a[0] / 2.0 + yarr * b1 - b2
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out


def endpoint_row(m: int, endpoint: int, order: int) -> np.ndarray:
    """Weights w with u^(order)(endpoint) = a[0] w[0] + sum_{n>=1} a[n] w[n].

    T_n^(k)(+-1) = (+-1)^(n+k) prod_{j<k} (n^2 - j^2)/(2j+1), and w[0] carries
    the halved a[0].  Every partial product is a derivative of T_n at 1, an
    integer, so multiplying before dividing keeps the weights exact up to
    2^53.  The cost is O(M) at any M: no grid values, no dense matrix.
    """
    if endpoint not in (1, -1):
        raise ValueError("endpoint must be +1 or -1")
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    n2 = np.arange(m + 1, dtype=float) ** 2
    w = np.ones(m + 1)
    for j in range(order):
        w *= n2 - j * j
        w /= 2 * j + 1
    w[0] *= 0.5
    if endpoint == -1:
        w[(order + 1) % 2 :: 2] *= -1.0
    return w


def apply_endpoint_row(coeffs: ChebCoeffs, row: np.ndarray) -> float:
    """The endpoint functional of an endpoint_row: u^(order)(endpoint).

    Summed as a[0] w[0] + sum(a[1:] w[1:]) rather than a dot product, which
    keeps order-0 rows bitwise equal to the plain endpoint sums.
    """
    a = coeffs.a
    return float(a[0] * row[0] + (a[1:] * row[1:]).sum())


def endpoint_derivative(coeffs: ChebCoeffs, endpoint: int, order: int) -> float:
    """Series derivative u^(order)(+-1); order 0 is the endpoint value."""
    return apply_endpoint_row(coeffs, endpoint_row(coeffs.m, endpoint, order))


def integrate_coeffs(coeffs: ChebCoeffs) -> ChebCoeffs:
    """Antiderivative coefficients with the T_0 coefficient set to zero.

    Uses int T_n = T_{n+1}/(2(n+1)) - T_{n-1}/(2(n-1)) for n > 1, int T_1 =
    T_2/4, int T_0 = T_1.  The contribution that would land on index M is
    dropped and a[M] stays zero.
    """
    b = np.zeros(coeffs.m + 1)
    b[1 : coeffs.m] = integral_rows(coeffs)
    return ChebCoeffs(coeffs.m, b)


def double_integrate_coeffs(coeffs: ChebCoeffs) -> ChebCoeffs:
    """Second antiderivative with T_0 and T_1 coefficients set to zero.

    Uses iint T_n = T_{n+2}/(4(n+1)(n+2)) - T_n/(2(n^2-1)) + T_{n-2}/(4(n-1)(n-2))
    for n > 2 together with the low-order special cases; truncation as in
    integrate_coeffs (indices beyond M-1 dropped, virtual a[M+1] = 0).
    """
    c = np.zeros(coeffs.m + 1)
    c[2 : coeffs.m] = double_integral_rows(coeffs)
    return ChebCoeffs(coeffs.m, c)


def integral_rows(coeffs: ChebCoeffs) -> np.ndarray:
    """Coefficients n = 1..M-1 of integrate_coeffs, (a_{n-1} - a_{n+1}) / (2n), as an array.

    Rows past the support s read only +0.0, so rows 1..s are computed and the
    rest are +0.0: entries [:s] are the only ones that can be nonzero.
    """
    m, a = coeffs.m, coeffs.a
    s = max(min(coeffs.support, m - 1), 0)
    out = np.zeros(max(m - 1, 0))
    np.divide(a[0:s] - a[2 : s + 2], np.arange(2.0, 2 * s + 1, 2.0), out=out[:s])  # 2n, n = 1..s
    return out


def double_integral_rows(coeffs: ChebCoeffs) -> np.ndarray:
    """Coefficients n = 2..M-1 of double_integrate_coeffs, as an array (empty for M = 1).

    As in integral_rows, rows 2..s+1 are computed and the rest are +0.0, so
    entries [:s] are the only ones that can be nonzero.
    """
    s = max(min(coeffs.support, coeffs.m - 2), 0)
    out = np.zeros(max(coeffs.m - 2, 0))
    ap = np.concatenate([coeffs.a[: s + 4], [0.0, 0.0]])
    n = np.arange(2, s + 2)
    rows = np.divide(ap[0:s], 4.0 * n * (n - 1), out=out[:s])
    rows -= ap[2 : s + 2] / (2.0 * (n * n - 1))
    rows += ap[4 : s + 4] / (4.0 * n * (n + 1))
    return out


def dense_sample(coeffs: ChebCoeffs, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, values) of the series on a Chebyshev grid of the given order.

    Zero-padding the coefficients makes this an exact polynomial evaluation,
    so a refined clustered sampling costs one DCT.
    """
    if order <= coeffs.m:
        return cheb_points(coeffs.m).points, to_values(coeffs).v
    a = np.zeros(order + 1)
    a[: coeffs.m + 1] = coeffs.a
    return cheb_points(order).points, to_values(ChebCoeffs._adopt(order, a, coeffs.support)).v
