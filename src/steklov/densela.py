"""Minimal dense linear algebra: partial-pivot LU and small-eigenvalue extraction.

`smallest_magnitude_eigs` returns the k eigenpairs of smallest modulus
of a real square matrix, or of a real pencil A x = λ M x, whose
relevant spectrum is real (as for the Steklov pencil solved here).  It
runs implicitly restarted Arnoldi iteration on A^{-1} M (ARPACK),
driven by a single LU factorization of A, at every matrix size; ARPACK's
machine-precision tolerance and default restart budget are used.  The
starting vector is the all-ones vector so repeated runs are bitwise
reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator
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
    """Eigenvalue iteration failed to converge."""


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
        """Solve A x = b for one right-hand side or a matrix of them."""
        return scipy.linalg.lu_solve((self.lu, self.piv), b, check_finite=False)


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


def smallest_magnitude_eigs(a: np.ndarray | LUFactors, k: int, m=None) -> EigenPairSet:
    """Compute the k smallest-modulus eigenpairs of A x = λ M x.

    Shift-invert Arnoldi: ARPACK finds the k largest-modulus
    eigenvalues 1/λ of A^{-1} M, applied through one LU factorization
    of A.  M = I gives the standard problem.

    Parameters
    ----------
    a : ndarray or LUFactors
        Real square matrix with (numerically) real target eigenvalues,
        or its LU factors.
    k : int
        Number of eigenpairs, 1 <= k <= n - 2.
    m : callable or None
        x -> M x for the right-hand matrix; None is the identity.

    Raises
    ------
    SingularMatrixError
        A is exactly singular (0 is then an eigenvalue; the inverse
        iteration has no meaning).
    EigenSolveError
        Arnoldi did not converge within the restart budget.
    ComplexEigenvalueError
        A requested eigenvalue is complex beyond rounding level.
    """
    factors = a if isinstance(a, LUFactors) else lu_factor(a)
    n = factors.n
    if not 1 <= k <= n - 2:
        raise ValueError(f"k must satisfy 1 <= k <= n - 2, got k={k}, n={n}")

    matvec = factors.solve if m is None else lambda x: factors.solve(m(x))
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    ncv = min(n, max(2 * k + 4, 20))
    try:
        inv_values, vectors = _arpack_eigs(op, k=k, which="LM", v0=np.ones(n), ncv=ncv)
    except ArpackNoConvergence as exc:
        raise EigenSolveError(f"Arnoldi iteration did not converge: {exc}") from exc

    values, vectors = _order_and_realify(1.0 / inv_values, vectors, k)
    return EigenPairSet(values=values, vectors=vectors)
