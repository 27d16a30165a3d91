"""Banded and small dense linear solvers.

The tridiagonal/pentadiagonal coefficient systems are stored diagonal-major
in LAPACK band layout (``bands[ku + i - j, j] = A[i, j]``) and factored with
partial pivoting via ``dgbtrf``/``dgbtrs``; pivoting widens the band by kl
superdiagonals, which the factorization allocates.  The small combination
systems that fit boundary conditions are solved by an in-house Gaussian
elimination with partial pivoting, which doubles as the independent oracle
for the banded path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack


class SingularSystemError(ValueError):
    """Raised when elimination meets an exactly zero pivot."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix: n, bandwidths kl/ku, diagonal-major storage."""

    n: int
    kl: int
    ku: int
    bands: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (0 <= self.kl < self.n and 0 <= self.ku < self.n):
            raise ValueError("bandwidths must satisfy 0 <= kl, ku < n")
        b = np.asarray(self.bands, dtype=float).copy()
        if b.shape != (self.kl + self.ku + 1, self.n):
            raise ValueError(f"bands must have shape {(self.kl + self.ku + 1, self.n)}")
        b.setflags(write=False)
        object.__setattr__(self, "bands", b)

    @staticmethod
    def from_diagonals(n: int, kl: int, ku: int, diagonals: dict[int, np.ndarray]) -> "BandedMatrix":
        """Assemble from {offset: values}; offset d holds A[i, i+d], length n-|d|."""
        bands = np.zeros((kl + ku + 1, n))
        for d, vals in diagonals.items():
            if not (-kl <= d <= ku):
                raise ValueError(f"diagonal offset {d} outside band ({-kl}, {ku})")
            vals = np.asarray(vals, dtype=float)
            if len(vals) != n - abs(d):
                raise ValueError(f"diagonal {d} must have length {n - abs(d)}")
            if d >= 0:
                bands[ku - d, d:] = vals
            else:
                bands[ku - d, : n + d] = vals
        return BandedMatrix(n, kl, ku, bands)

    def todense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for d in range(-self.kl, self.ku + 1):
            if d >= 0:
                out[np.arange(self.n - d), np.arange(d, self.n)] = self.bands[self.ku - d, d:]
            else:
                out[np.arange(-d, self.n), np.arange(self.n + d)] = self.bands[self.ku - d, : self.n + d]
        return out


@dataclass(frozen=True)
class BandedFactorization:
    """LU factors of a banded matrix; reusable for many right-hand sides."""

    n: int
    kl: int
    ku: int
    lu: np.ndarray = field(repr=False)
    ipiv: np.ndarray = field(repr=False)


def banded_factor(a: BandedMatrix) -> BandedFactorization:
    """LU with partial pivoting; fill occupies kl extra superdiagonals."""
    ab = np.zeros((2 * a.kl + a.ku + 1, a.n))
    ab[a.kl :, :] = a.bands
    lu, ipiv, info = lapack.dgbtrf(ab, a.kl, a.ku)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgbtrf")
    if info > 0:
        raise SingularSystemError(
            f"banded matrix is exactly singular at column {info - 1}", column=info - 1
        )
    return BandedFactorization(a.n, a.kl, a.ku, lu, ipiv)


def banded_solve(f: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs against a prior factorization."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (f.n,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {f.n}")
    x, info = lapack.dgbtrs(f.lu, f.kl, f.ku, rhs[:, None], f.ipiv)
    if info != 0:
        raise ValueError(f"dgbtrs failed with info={info}")
    return x[:, 0]


def dense_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting for small dense systems."""
    a = np.array(a, dtype=float)
    b = np.array(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError("rhs length does not match matrix size")
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise SingularSystemError(f"singular system at column {k}", column=k)
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
        b[k + 1 :] -= factors * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x
