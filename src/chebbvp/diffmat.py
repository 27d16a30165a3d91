"""Chebyshev collocation differentiation matrices on [-1, 1].

Off-diagonal entries are (c_j/c_k) (-1)^(j+k) / (y_j - y_k) with
c_0 = c_M = 2 and c_k = 1 otherwise; the diagonal is the negated row sum of
the off-diagonals, so constants map to zero exactly (the stable choice).
Second derivatives are formed as the square of the first-derivative matrix,
which is fine at the small per-interval orders used on piecewise grids.
``affine_convection_matrix`` is the one operator matrix of the collocation
backend.

The endpoint rows of D, used by the piecewise collocation backend for its
derivative boundary and interface rows, are built without materializing the
full matrix.  Boundary conditions of the spectral solvers do not use them:
they read endpoint derivatives from the Chebyshev coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite

import numpy as np

from .chebyshev import cheb_points

# full-matrix guard: (m+1)^2 doubles; 4096 keeps one matrix near 134 MB
_MAX_DENSE_ORDER = 4096


@dataclass(frozen=True)
class DiffMatrix:
    """Dense first-derivative matrix mapping grid values of u to values of u'."""

    m: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.m + 1, self.m + 1):
            raise ValueError("entries must be (m+1) x (m+1)")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def _weights(m: int) -> np.ndarray:
    c = np.ones(m + 1)
    c[0] = c[m] = 2.0
    return c


def build_diffmat(m: int) -> DiffMatrix:
    if m < 1:
        raise ValueError("grid order must be >= 1")
    if m > _MAX_DENSE_ORDER:
        raise ValueError(f"dense differentiation matrix limited to m <= {_MAX_DENSE_ORDER}")
    y = cheb_points(m).points
    c = _weights(m)
    signs = (-1.0) ** np.arange(m + 1)
    diff = y[:, None] - y[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (c[:, None] / c[None, :]) * (signs[:, None] * signs[None, :]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return DiffMatrix(m, d)


@lru_cache(maxsize=64)
def diff_endpoint_row(m: int, endpoint: int) -> np.ndarray:
    """Row of the differentiation matrix at y = +1 (row 0) or y = -1 (row M)."""
    if endpoint not in (1, -1):
        raise ValueError("endpoint must be +1 or -1")
    y = cheb_points(m).points
    c = _weights(m)
    signs = (-1.0) ** np.arange(m + 1)
    j = 0 if endpoint == 1 else m
    row = np.zeros(m + 1)
    k = np.arange(m + 1) != j
    row[k] = (c[j] / c[k]) * signs[j] * signs[k] / (y[j] - y[k])
    row[j] = -row.sum()  # full-row sum, bitwise identical to the matrix path
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


def affine_convection_matrix(
    op: AffineConvectionOp, d: DiffMatrix, scale: float, y_global: np.ndarray
) -> np.ndarray:
    """Operator matrix on one interval, convection sampled at the global points."""
    dg = d.entries / scale
    conv = op.conv_slope * np.asarray(y_global) + op.conv_const
    return op.diff2 * (dg @ dg) + conv[:, None] * dg + op.react * np.eye(d.m + 1)
