"""Banded and dense linear solvers, both on LAPACK.

The tridiagonal/pentadiagonal coefficient systems are stored diagonal-major
in LAPACK band layout (``bands[ku + i - j, j] = A[i, j]``) and factored with
partial pivoting via ``dgbtrf``/``dgbtrs``; pivoting widens the band by kl
superdiagonals, which the factorization allocates.

A factorization's arrays are read-only: the solver's cache shares them
between threads, and ``dgbtrs`` only reads them.

Every dense system, the small boundary and interface fit as well as the
collocation backend's, goes through ``dense_solve``: power-of-two row
equilibration, then LAPACK's LU with partial pivoting (``dgetrf``/
``dgetrs``), which overwrites a Fortran-ordered system with its factors
instead of copying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack


class SingularSystemError(ValueError):
    """Raised when an LU factorization meets an exactly zero pivot."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    lu.setflags(write=False)
    ipiv.setflags(write=False)
    return BandedFactorization(a.n, a.kl, a.ku, lu, ipiv)


def factor_nbytes(n: int, kl: int, ku: int) -> int:
    """Bytes of ``banded_factor``'s result: 2 kl + ku + 1 rows of n doubles of LU and n 32-bit pivots."""
    return n * (8 * (2 * kl + ku + 1) + 4)


def banded_solve(f: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs against a prior factorization: one ``dgbtrs`` over all its rows."""
    x = np.array(rhs, dtype=float)
    if x.shape != (f.n,):
        raise ValueError(f"rhs length {x.shape} does not match system size {f.n}")
    _, info = lapack.dgbtrs(f.lu, f.kl, f.ku, x[:, None], f.ipiv, overwrite_b=True)
    if info != 0:
        raise ValueError(f"dgbtrs failed with info={info}")
    return x


def _equilibrate_rows(mat: np.ndarray, rhs: np.ndarray) -> None:
    """Scale each row in place by the power of two that brings its max to [0.5, 1).

    Powers of two, as in LAPACK's dgeequb, make the scaling exact; all-zero
    rows are left as they are.
    """
    row_max = np.maximum(mat.max(axis=1), -mat.min(axis=1))
    scale = np.ldexp(1.0, -np.frexp(row_max)[1])
    mat *= scale[:, None]
    rhs *= scale


def dense_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs, overwriting the float arrays a and rhs with their row-scaled forms.

    Each row is scaled by a power of two (row equilibration, Skeel 1980),
    which leaves the exact solution unchanged and keeps partial pivoting
    from losing digits to raw row scales that span many orders of
    magnitude.  A Fortran-ordered a is then overwritten by its LU factors,
    so no copy of a large system is made; a C-ordered a is factored in a
    Fortran-ordered copy and gives the same x.
    """
    _equilibrate_rows(a, rhs)
    lu, ipiv, info = lapack.dgetrf(a, overwrite_a=True)
    if info > 0:
        raise SingularSystemError("dense system is exactly singular", column=info - 1)
    x, info = lapack.dgetrs(lu, ipiv, rhs)
    if info != 0:
        raise ValueError(f"dgetrs failed with info={info}")
    return x
