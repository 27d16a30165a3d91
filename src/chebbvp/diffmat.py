"""Chebyshev collocation differentiation on [-1, 1].

Off-diagonal entries of D are (c_k/c_j) (-1)^(k+j) / (y_k - y_j) with
c_0 = c_M = 2 and c_k = 1 otherwise; the diagonal is the negated row sum of
the off-diagonals, so constants map to zero exactly (the stable choice).
The off-diagonal entries of D^2 come from the recursion
D2_kj = 2 D_kj (D_kk - 1/(y_k - y_j)) (Weideman & Reddy 2000; Trefethen,
Spectral Methods in MATLAB, ch. 6), and its diagonal is again the negated
row sum.  ``operator_block`` writes one interval's operator straight into a
view of the collocation system, with no matrix product.

The endpoint rows of D, used by the piecewise collocation backend for its
derivative boundary and interface rows, are built without materializing the
full matrix.  Boundary conditions of the spectral solvers do not use them:
they read endpoint derivatives from the Chebyshev coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .chebyshev import cheb_points


def _signed_weights(m: int) -> np.ndarray:
    """c_k (-1)^k: powers of two, so scaling by them or their ratios is exact."""
    s = (-1.0) ** np.arange(m + 1)
    s[[0, m]] *= 2.0
    return s


@lru_cache(maxsize=64)
def diff_endpoint_row(m: int, endpoint: int) -> np.ndarray:
    """Row of the differentiation matrix at y = +1 (row 0) or y = -1 (row M)."""
    if endpoint not in (1, -1):
        raise ValueError("endpoint must be +1 or -1")
    y = cheb_points(m).points
    s = _signed_weights(m)
    j = 0 if endpoint == 1 else m
    row = np.zeros(m + 1)
    k = np.arange(m + 1) != j
    row[k] = s[j] / s[k] / (y[j] - y[k])
    row[j] = -row.sum()  # full-row sum, bitwise identical to operator_block's D
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class AffineConvectionOp:
    """p u'' + (q1 y + q0) u' + r u with the convection coefficient affine in y.

    Only the differentiation-matrix backend supports this operator; the
    convection coefficient is sampled at the grid points.
    """

    diff2: float
    conv_slope: float
    conv_const: float
    react: float = 0.0

    def __post_init__(self):
        for v in (self.diff2, self.conv_slope, self.conv_const, self.react):
            if not isfinite(v):
                raise ValueError("operator coefficients must be finite")

    @property
    def order(self) -> int:
        return 2


_CHUNK = 64  # rows of the operator block built at a time


def operator_block(
    op: AffineConvectionOp, m: int, half: float, y_global: np.ndarray, out: np.ndarray
) -> None:
    """Write p D^2/h^2 + (q1 y + q0) D/h + r I of the order-m grid into out.

    h is the interval's half-width, the convection is sampled at its global
    points y_global, and out is any (m+1) x (m+1) view (rows and columns in
    local order, descending from y = +1).  The block is built _CHUNK rows at
    a time, so its temporaries hold a few chunks and never the block; the
    factors c_k (-1)^k are powers of two, so D_kj is the correctly rounded
    quotient and its rows are bitwise ``diff_endpoint_row``.
    """
    y = cheb_points(m).points
    s = _signed_weights(m)
    p = op.diff2 / (half * half)
    conv = (op.conv_slope * np.asarray(y_global) + op.conv_const) / half
    for lo in range(0, m + 1, _CHUNK):
        rows = slice(lo, min(lo + _CHUNK, m + 1))
        diag = (np.arange(rows.stop - lo), np.arange(lo, rows.stop))
        a = np.subtract.outer(y[rows], y)
        a[diag] = 1.0
        np.divide(1.0, a, out=a)
        a[diag] = 0.0
        d = a * s[rows, None]
        d /= s
        d[diag] = -d.sum(axis=1)
        # a becomes the D^2 rows: 2 D_kj (D_kk - 1/(y_k - y_j)), diagonal the negated row sum
        np.subtract(d[diag][:, None], a, out=a)
        a *= d
        a *= 2.0
        a[diag] = 0.0
        a[diag] = -a.sum(axis=1)
        a *= p
        d *= conv[rows, None]
        a += d
        a[diag] += op.react
        out[rows] = a
