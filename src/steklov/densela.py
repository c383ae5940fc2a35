"""Minimal dense linear algebra: partial-pivot LU and small-eigenvalue extraction.

`smallest_magnitude_eigs` returns the k eigenpairs of smallest modulus
of a real square matrix, or of a real pencil A x = λ M x, whose
relevant spectrum is real (as for the Steklov pencil solved here).  It
runs implicitly restarted Arnoldi iteration on A^{-1} M (ARPACK) at
every size, driven either by one LU factorization of a given matrix A
or by a caller's operator x -> A^{-1} M x (the Steklov solve applies its
pencil through the kernels' Fourier band); ARPACK's machine-precision
tolerance and default restart budget are used.  The fixed start
Σ_{m=1}^{k+2} (cos + sin)(2π m j / n), on the n grid entries of the
vectors and zero on any border entries after them, keeps runs bitwise
reproducible; unlike a constant, it has content in every reflection class
of the grid, and an M that annihilates constants (the disk's) cannot zero
it.

Solves with the factors go through scipy's LAPACK, and callers' products
through scipy's BLAS, never numpy's `@`: numpy and scipy may link
separate OpenBLAS builds, whose two thread pools an Arnoldi loop would
make compete for the cores on every step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning
from scipy.sparse.linalg import ArpackError, LinearOperator
from scipy.sparse.linalg import eigs as _arpack_eigs

__all__ = [
    "ComplexEigenvalueError",
    "EigenPairSet",
    "EigenSolveError",
    "LUFactors",
    "SingularMatrixError",
    "lu_factor",
    "smallest_magnitude_eigs",
]

# Relative bound on imaginary parts that count as rounding noise.
_IMAG_TOL = 1e-8


class SingularMatrixError(RuntimeError):
    """Factorization hit an exactly singular pivot."""


class EigenSolveError(RuntimeError):
    """Eigenvalue iteration failed to converge or ARPACK reported an error."""


class ComplexEigenvalueError(EigenSolveError):
    """A requested eigenvalue has an imaginary part beyond tolerance."""


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


def _order_and_realify(
    values: np.ndarray, vectors: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the k smallest-modulus pairs, sorted, with real vectors.

    Imaginary parts below _IMAG_TOL * |value| are rounding noise and are
    truncated; anything larger means the matrix has a genuinely complex
    pair where a real one was expected.  A nearly degenerate real pair
    may come back from the solver as a complex-conjugate pair (tiny
    imaginary values, fully complex vectors v and conj(v)); Re v and
    Im v then span the pair's invariant subspace and replace the two
    columns after orthonormalization; a pair cut by k keeps the first.
    """
    order = np.argsort(np.abs(values), kind="stable")[:k]
    values = values[order]
    vectors = vectors[:, order]

    bad = np.abs(values.imag) > _IMAG_TOL * np.abs(values)
    if np.any(bad):
        raise ComplexEigenvalueError(
            f"eigenvalue {values[np.argmax(bad)]:.6g} has imaginary part beyond "
            f"tolerance {_IMAG_TOL:g}; the requested spectrum is expected to be real"
        )

    real_vectors = np.empty(vectors.shape, dtype=float)
    j = 0
    while j < k:
        v = vectors[:, j]
        pivot = v[np.argmax(np.abs(v))]
        w = v * (np.conj(pivot) / abs(pivot))
        if np.max(np.abs(w.imag)) <= _IMAG_TOL * np.max(np.abs(w.real)):
            real_vectors[:, j] = w.real / np.linalg.norm(w.real)
            j += 1
            continue
        pair_ok = j + 1 == k or abs(np.conj(values[j + 1]) - values[j]) <= _IMAG_TOL * max(
            1.0, abs(values[j])
        )
        if not pair_ok:
            raise ComplexEigenvalueError(
                f"eigenvector {j} is essentially complex and not part of a "
                "conjugate pair; expected a real eigenbasis"
            )
        basis, _ = np.linalg.qr(np.column_stack([v.real, v.imag]))
        real_vectors[:, j : j + 2] = basis[:, : k - j]
        j += 2

    return values.real.astype(complex), real_vectors


@dataclass(frozen=True)
class EigenPairSet:
    """Eigenpairs sorted ascending by modulus, with unit-norm real vectors."""

    values: np.ndarray
    vectors: np.ndarray


def smallest_magnitude_eigs(
    a: np.ndarray | LinearOperator, k: int, border: int = 0
) -> EigenPairSet:
    """Compute the k smallest-modulus eigenpairs of A x = λ M x.

    Shift-invert Arnoldi: ARPACK finds the k largest-modulus
    eigenvalues 1/λ of A^{-1} M.

    Parameters
    ----------
    a : ndarray or LinearOperator
        A real square matrix A with (numerically) real target
        eigenvalues, for the standard problem (M = I), factored here by
        `lu_factor`; or an operator applying A^{-1} M.
    k : int
        Number of eigenpairs, 1 <= k <= N - 2 for vectors of size N.
    border : int
        Trailing entries of the vectors that are not grid values (the
        pencil's two border unknowns); the start vector is zero there.

    Raises
    ------
    SingularMatrixError
        A given matrix is exactly singular (0 is then an eigenvalue; the
        inverse iteration has no meaning).
    EigenSolveError
        ARPACK failed, or did not converge within the restart budget.
    ComplexEigenvalueError
        A requested eigenvalue is complex beyond rounding level.
    """
    if isinstance(a, LinearOperator):
        op = a
    else:
        factors = lu_factor(a)
        op = LinearOperator(factors.lu.shape, matvec=factors.solve, dtype=float)
    size = op.shape[0]
    if not 1 <= k <= size - 2:
        raise ValueError(f"k must satisfy 1 <= k <= n - 2, got k={k}, n={size}")

    ncv = min(size, max(2 * k + 4, 20))
    n = size - border
    phase = np.outer(np.arange(n), np.arange(1, k + 3)) * (2.0 * np.pi / n)
    v0 = np.zeros(size)
    v0[:n] = np.sum(np.cos(phase) + np.sin(phase), axis=1)
    try:
        inv_values, vectors = _arpack_eigs(op, k=k, which="LM", v0=v0, ncv=ncv)
    except ArpackError as exc:  # ArpackNoConvergence is one
        raise EigenSolveError(f"Arnoldi iteration failed: {exc}") from exc

    values, vectors = _order_and_realify(1.0 / inv_values, vectors, k)
    return EigenPairSet(values=values, vectors=vectors)
