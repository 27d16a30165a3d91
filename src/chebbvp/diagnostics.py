"""Conditioning and singular-spectrum diagnostics of the integration systems.

The banded coefficient systems are materialized densely (same assembly, so
entries match the solver's bitwise) and decomposed by LAPACK's
preconditioned one-sided Jacobi SVD ``dgejsv`` (Drmač & Veselić, SIAM J.
Matrix Anal. Appl. 29, 2008).  Its QR preconditioner pivots rows and
columns, so it computes the singular values to high relative accuracy
(Demmel & Veselić, 1992) and the small ones behind the condition numbers
are not lost to the large ones.  Accuracy is anchored in the tests by an
eigenvalue oracle on the Gram matrix and by an extended-precision SVD of
graded matrices.

The "localization score" of a singular vector is the fraction of its
squared mass in the first 10 entries, a testable proxy for singular
vectors carrying most of their energy in the leading Chebyshev modes; that
localization is the conjectured reason boundary-layer solves beat their
condition numbers by many digits.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .integration import FirstOrderOp, SecondOrderOp, factor_matrix

_DENSE_LIMIT = 2048
_LOCAL_HEAD = 10


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Singular values (descending), condition number, optional vectors."""

    singular_values: np.ndarray = field(repr=False)
    condition: float
    right_vectors: np.ndarray | None = field(repr=False)
    localization: np.ndarray | None = field(repr=False)


def dense_export(op, m: int) -> np.ndarray:
    """The spectral-integration system as a dense matrix (analysis only)."""
    if m > _DENSE_LIMIT:
        raise ValueError(f"dense analysis limited to m <= {_DENSE_LIMIT}")
    if not isinstance(op, (FirstOrderOp, SecondOrderOp)):
        raise TypeError(f"unsupported operator {type(op).__name__}")
    return factor_matrix(op, m).todense()


def jacobi_svd(a: np.ndarray, compute_vectors: bool = True):
    """Jacobi SVD with high relative accuracy: (singular values desc, V or None).

    One call to LAPACK's preconditioned Jacobi SVD ``dgejsv``.  JOBA = 'G'
    preconditions with a QR factorization with full (row and column)
    pivoting, which keeps every singular value of D1 C D2 accurate for badly
    scaled diagonal D1, D2.  The default 'A' treats small singular values as
    noise and zeroes those of column-graded matrices, and 'C'/'E' pivot only
    columns and lose digits on two-sided graded ones.  U is not formed.
    """
    w = np.asarray(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix has non-finite entries")
    jobv = 0 if compute_vectors else 3
    sva, _, v, work, _, info = lapack.dgejsv(w, joba=3, jobu=3, jobv=jobv, jobr=1, jobt=0, jobp=0)
    if info != 0:
        raise RuntimeError(f"dgejsv did not converge (info = {info})")
    sigma = sva * (work[0] / work[1])
    order = np.argsort(sigma)[::-1]
    return sigma[order], (v[:, order] if compute_vectors else None)


def localization_scores(vectors: np.ndarray, head: int = _LOCAL_HEAD) -> np.ndarray:
    """Per column: squared mass in the first `head` entries over total."""
    total = np.einsum("ij,ij->j", vectors, vectors)
    lead = np.einsum("ij,ij->j", vectors[:head], vectors[:head])
    return lead / np.where(total > 0, total, 1.0)


def singular_spectrum(a: np.ndarray, compute_vectors: bool = True) -> SpectrumReport:
    """Full SVD-based report of a dense system matrix."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] > _DENSE_LIMIT:
        raise ValueError(f"dense analysis limited to n <= {_DENSE_LIMIT}")
    sigma, v = jacobi_svd(a, compute_vectors=compute_vectors)
    smin = sigma[-1]
    condition = float("inf") if smin == 0.0 else float(sigma[0] / smin)
    loc = localization_scores(v) if v is not None else None
    return SpectrumReport(sigma, condition, v, loc)


def condition_vs_parameter(a_values, m: int) -> list[tuple[float, float]]:
    """Condition numbers of the (D^2 - a^2) system across parameter values."""
    out = []
    for a in a_values:
        report = singular_spectrum(dense_export(SecondOrderOp(0.0, -float(a) ** 2), m), compute_vectors=False)
        out.append((float(a), report.condition))
    return out


def spectrum_csv(report: SpectrumReport) -> str:
    """CSV lines 'index,sigma,localization' for external plotting."""
    buf = io.StringIO()
    buf.write("index,sigma,localization\n")
    loc = report.localization
    for i, s in enumerate(report.singular_values):
        tail = "" if loc is None else f"{loc[i]:.6g}"
        buf.write(f"{i},{s:.6g},{tail}\n")
    return buf.getvalue()
