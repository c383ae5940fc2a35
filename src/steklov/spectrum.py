"""Steklov spectra from the discrete Dirichlet-to-Neumann matrix Q = P D E.

The boundary condition ∂u/∂n = λ u for a harmonic u = Re f turns, in
the boundary parametrization, into μ'(t) = λ |η'(t)| γ(t) with
γ = Re f(η(t)) and μ = Im f(η(t)).  Since μ = E γ, the boundary trace
satisfies the algebraic eigenvalue problem

    Q x = λ x,    Q = P D E,    P = diag(1/|η'(t_j)|),

whose low eigenvalues approximate the Steklov spectrum.  Q has a
double zero eigenvalue: the genuine constant mode λ_0 = 0 and the
spurious alternating (Nyquist) mode introduced by the even-n
discretization.  Both are removed here.  Eigenvalues are extracted
from Q + I (shifting away the zero cluster) by shift-invert Arnoldi,
one LU factorization of Q + I at every n, and shifted back, which
leaves the eigenvectors untouched.

Eigenvector traces are normalized against the arclength weight,
(2π/n) Σ_j |η'(t_j)| γ(t_j)² = 1, and their sign is fixed so the
largest-magnitude component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import BoundaryCurve, DomainKind, Grid
from .densela import smallest_magnitude_eigs
from .operators import (
    DiscretizationError,
    DtnDiscretization,
    apply_diff_fast,
    build_dtn,
    fourier_diff_matrix,  # noqa: F401  (kept importable here: perfbench traces it by this name)
)

__all__ = [
    "SteklovSpectrum",
    "assemble_q",
    "solve_spectrum",
]

DEFAULT_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class SteklovSpectrum:
    """Computed low Steklov eigenpairs of one domain.

    Attributes
    ----------
    lambdas : ndarray, shape (k,)
        Ascending positive eigenvalues (units: inverse length).
    lambdas_scaled : ndarray or None
        Area-scaled eigenvalues λ √|G| for bounded domains, else None.
    traces : ndarray, shape (n, k)
        Boundary traces γ_j(t), arclength-normalized, sign-fixed.
    conjugates : ndarray, shape (n, k)
        Harmonic conjugates μ_j = E γ_j.
    zero_modes : ndarray, shape (2,)
        The two discarded near-zero eigenvalues (diagnostic).
    residuals : ndarray, shape (k,)
        ||Q γ_j - λ_j γ_j||_2 per mode.
    perimeter, area : float
        Boundary length and enclosed area (bounded complement for
        exterior domains), measured on the same grid.
    """

    curve: BoundaryCurve
    grid: Grid
    n: int
    k: int
    lambdas: np.ndarray
    lambdas_scaled: np.ndarray | None
    traces: np.ndarray
    conjugates: np.ndarray
    zero_modes: np.ndarray
    residuals: np.ndarray
    perimeter: float
    area: float

    @property
    def bounded(self) -> bool:
        return self.curve.kind is DomainKind.BOUNDED_INTERIOR


def assemble_q(disc: DtnDiscretization) -> np.ndarray:
    """Dense Dirichlet-to-Neumann matrix Q = P D E (cached on `disc`).

    D is applied to the columns of E by the real FFT, O(n² log n).
    On the unit disk this reduces to D K.
    """
    if disc.q is None:
        q = apply_diff_fast(disc.E)
        q *= disc.rho[:, None]
        disc.q = q
    return disc.q


def solve_spectrum(curve: BoundaryCurve, n: int, k: int) -> SteklovSpectrum:
    """Compute the first k nonzero Steklov eigenpairs of `curve` at grid size n.

    Requests the k + 2 smallest-magnitude eigenvalues of Q + I,
    shifts back by 1, and discards exactly the two near-zero modes
    (|λ| <= DEFAULT_ZERO_TOL · max(1, λ_max)): the constant
    eigenfunction and the spurious Nyquist mode.

    Raises
    ------
    DiscretizationError
        If the near-zero cluster does not contain exactly two modes;
        the discretization is then unresolved and n should be raised.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 2 > n // 2:
        raise ValueError(f"k + 2 = {k + 2} eigenpairs exceed the resolvable band n/2 = {n // 2}")

    disc = build_dtn(curve, n)
    q = assemble_q(disc)
    # Q + I in Q's own memory layout (column-major from the FFT); adding
    # a row-major identity would transpose n² entries and slow the LU.
    shifted = q.copy(order="K")
    shifted[np.diag_indices(n)] += 1.0
    pairs = smallest_magnitude_eigs(shifted, k + 2)
    lam = pairs.values.real - 1.0
    vectors = pairs.vectors

    zero_gate = DEFAULT_ZERO_TOL * max(1.0, float(np.max(lam)))
    zero_mask = np.abs(lam) <= zero_gate
    found = int(np.sum(zero_mask))
    if found != 2:
        raise DiscretizationError(
            f"expected exactly 2 near-zero modes, found {found} at n={n} "
            f"(gate {zero_gate:.3g}); increase n"
        )
    zero_modes = np.sort(lam[zero_mask])

    lam = lam[~zero_mask]
    vectors = vectors[:, ~zero_mask]
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    vectors = vectors[:, order]
    if lam[0] <= 0.0:
        raise DiscretizationError(
            f"non-positive eigenvalue {lam[0]:.3g} survived zero-mode removal; increase n"
        )

    weights = (2.0 * np.pi / n) * disc.grid.speed
    traces = np.empty_like(vectors)
    for j in range(k):
        g = vectors[:, j]
        g = g / np.sqrt(np.sum(weights * g * g))
        if g[np.argmax(np.abs(g))] < 0.0:
            g = -g
        traces[:, j] = g

    conjugates = disc.E @ traces
    residuals = np.linalg.norm(q @ traces - traces * lam, axis=0)

    area = disc.grid.area
    perim = disc.grid.perimeter
    scaled = lam * np.sqrt(area) if curve.kind is DomainKind.BOUNDED_INTERIOR else None

    return SteklovSpectrum(
        curve=curve,
        grid=disc.grid,
        n=n,
        k=k,
        lambdas=lam,
        lambdas_scaled=scaled,
        traces=traces,
        conjugates=conjugates,
        zero_modes=zero_modes,
        residuals=residuals,
        perimeter=perim,
        area=area,
    )
