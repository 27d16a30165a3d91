"""Gaussian elimination with partial pivoting, written out in Python.

The package solves every dense system with LAPACK (``banded.dense_solve``).
This independent elimination is the oracle that the banded LU and the
LAPACK path are checked against.
"""

import numpy as np

from chebbvp.banded import SingularSystemError


def elimination_solve(a, rhs) -> np.ndarray:
    """Solve a x = rhs on copies of a and rhs; raises SingularSystemError at a zero pivot."""
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
