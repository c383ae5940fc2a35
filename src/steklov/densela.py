"""Minimal dense linear algebra: a partial-pivot LU and a symmetric-definite eigensolve.

`lu_factor` factors a real square matrix once; `LUFactors.solve` solves
with the factors for a vector or a matrix of right-hand sides.
`smallest_magnitude_eigs` returns the k lowest eigenpairs of a
symmetric-definite pencil S x = λ W x (S symmetric, W symmetric positive
definite) from LAPACK's generalized symmetric eigensolver
(`scipy.linalg.eigh`); on a positive semidefinite S they are the k of
smallest modulus.  Both are deterministic: the same input gives the same
bits on the same BLAS.

Solves with the factors go through scipy's LAPACK, and callers' products
with them through scipy's BLAS, never numpy's `@`: numpy and scipy may
link separate OpenBLAS builds, each with its own thread pool.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning

__all__ = [
    "EigenSolveError",
    "LUFactors",
    "SingularMatrixError",
    "lu_factor",
    "smallest_magnitude_eigs",
]


class SingularMatrixError(RuntimeError):
    """Factorization hit an exactly singular pivot."""


class EigenSolveError(RuntimeError):
    """The symmetric-definite eigensolve failed: W is not positive definite, or no convergence."""


@dataclass(frozen=True)
class LUFactors:
    """Packed LU factorization with partial pivoting, PA = LU."""

    lu: np.ndarray
    piv: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (real b: a vector or columns) by getrs, skipping lu_solve's checks."""
        x, info = scipy.linalg.lapack.dgetrs(self.lu, self.piv, b)
        if info:
            raise ValueError(f"dgetrs: illegal value in argument {-info}")
        return x


def lu_factor(a: np.ndarray) -> LUFactors:
    """LU-factorize a square real matrix with partial pivoting.

    Raises
    ------
    SingularMatrixError
        If a pivot is exactly zero (the matrix is singular to working
        precision in some column).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError("matrix is singular: zero pivot in LU factorization")
    return LUFactors(lu=lu, piv=piv)


def smallest_magnitude_eigs(
    s: np.ndarray, w: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of S x = λ W x, ascending, with xᵀ W x = 1.

    Only the lower triangles of S and W are read; degenerate eigenvalues
    get W-orthonormal vectors.  On a positive semidefinite S the k lowest
    are the k of smallest modulus (the name the benchmark traces); an
    indefinite S gives its negative eigenvalues first.

    Raises
    ------
    EigenSolveError
        If W is not positive definite or the eigensolver does not
        converge (LAPACK's `LinAlgError`).
    """
    size = np.shape(s)[0]
    if not 1 <= k <= size:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={size}")
    try:
        values, vectors = scipy.linalg.eigh(s, w, subset_by_index=(0, k - 1))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"symmetric-definite eigensolve failed: {exc}") from exc
    return values, vectors
