"""Banded and dense linear solvers, both on LAPACK.

The tridiagonal/pentadiagonal coefficient systems are stored diagonal-major
in LAPACK band layout (``bands[ku + i - j, j] = A[i, j]``) and factored with
partial pivoting via ``dgbtrf``/``dgbtrs``; pivoting widens the band by kl
superdiagonals, which the factorization allocates.

A boundary-layer chain's Chebyshev coefficients fall like e^(-n^2/2a) and
underflow long before row M, and LAPACK's sweeps crawl through gradual
underflow: at M = 131072 the subnormal tail of one solve takes most of its
time.  So ``banded_solve`` stops a large solve where its solution has
underflowed (the adaptive truncation of Olver & Townsend, SIAM Review 55,
2013, at the underflow threshold instead of a tolerance).  It solves only
the leading k rows through the same factors, ``dgbtrs`` on ``lu[:, :k]``,
and returns zeros beyond them:

- only systems of at least 32768 rows whose right-hand side ends below
  ``tiny`` (the smallest normal float) try it; every other solve is one
  full ``dgbtrs`` call, because on smaller systems the failed tries cost
  more than the subnormal rows they skip;
- k starts one past the right-hand side's last entry not below ``tiny``,
  plus a 2048-row margin, and grows until no row interchange of the first k
  rows reaches row k or beyond, so the leading forward sweep is the full
  one's;
- the leading solve is kept once its last 2048 entries are all below
  ``tiny``; its entries from one past the last one that is not are set to
  exactly zero.  Otherwise k becomes max(2k, that index + 2048), and a k of
  n or more is the full solve.

"Not below tiny" is ``not abs(v) < tiny``, so NaN and inf count as normal
and non-finite input always reaches the full solve.  What is dropped is the
back-substitution's coupling to subnormal entries: on the boundary-layer
tables at M = 65536 and 131072 the fitted constants are bitwise those of the
full solve, and coefficients move by less than 1e-280.  The truncated solve
only reads the factorization, so it adds no shared state.

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


_TINY = np.finfo(float).tiny
_TRUNCATE_FROM = 32768  # the fewest rows whose solve tries the leading-row truncation
_MARGIN = 2048  # rows solved past the last normal entry, and required below tiny at the end


def banded_solve(f: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs against a prior factorization.

    A system of n >= 32768 rows whose rhs ends below ``tiny`` is solved on
    its leading k rows only.  k starts 2048 past the rhs's last normal
    entry, is closed under the row interchanges, and grows to
    max(2k, s + 2048), s one past the solution's last normal entry, until
    the solution's last 2048 entries are below ``tiny``; its entries from s
    on are then exactly zero.  Every other solve, and a k that reaches n,
    is one full ``dgbtrs``.  Fitted constants built on truncated solves are
    bitwise those of full ones, and coefficients differ by less than 1e-280
    (the boundary-layer tables at M = 65536 and 131072).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (f.n,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {f.n}")
    x = rhs.copy()
    if f.n >= _TRUNCATE_FROM and abs(rhs[-1]) < _TINY:
        k = _last_normal(rhs) + _MARGIN
        while (k := _closed_under_pivoting(f.ipiv, k)) < f.n:
            _solve_leading(f, x, k)
            s = _last_normal(x[:k])
            if s <= k - _MARGIN:
                x[s:] = 0.0
                return x
            x[:k] = rhs[:k]
            k = max(2 * k, s + _MARGIN)
    _solve_leading(f, x, f.n)
    return x


def _solve_leading(f: BandedFactorization, b: np.ndarray, k: int) -> None:
    """Overwrite b[:k] with the solution of the leading k rows through f's factors."""
    _, info = lapack.dgbtrs(f.lu[:, :k], f.kl, f.ku, b[:k, None], f.ipiv[:k], overwrite_b=True)
    if info != 0:
        raise ValueError(f"dgbtrs failed with info={info}")


def _last_normal(v: np.ndarray) -> int:
    """One past the last entry of v with not abs(.) < tiny (NaN and inf count), 0 if none."""
    normal = ~((v > -_TINY) & (v < _TINY))
    last = int(np.argmax(normal[::-1]))
    return len(v) - last if normal[-1 - last] else 0


def _closed_under_pivoting(ipiv: np.ndarray, k: int) -> int:
    """The least k' >= k such that no interchange among the first k' rows reaches row k' or beyond."""
    if k >= len(ipiv) or ipiv[:k].max() < k:
        return k
    reach = np.maximum.accumulate(ipiv)[k - 1 :]  # reach[i]: furthest interchange of rows 0..k-1+i
    return k + int(np.argmax(reach <= np.arange(k - 1, len(ipiv))))


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
