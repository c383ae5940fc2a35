"""Steklov spectra from an (n+2)-square pencil; neither E nor Q is formed.

The boundary condition ∂u/∂n = λ u for a harmonic u = Re f turns, in
the boundary parametrization, into μ' = λ W γ with γ = Re f(η(t)),
μ = Im f(η(t)) and W = diag|η'|, and the boundary integral equation
ties the traces by (I - B) μ = -C γ.  With D⁺ the FFT pseudo-inverse of
D and N = [1, alt] (alt_j = (-1)^j) its null space, the first equation
gives μ = λ D⁺ W γ + N (a, b) once Nᵀ W γ = 0.  In x = (γ, a, b) that
is the pencil (`operators.build_pencil`)

    A x = λ M x,   A = [[C, (I - B) N], [Nᵀ W, 0]],   M = [[-(I - B) D⁺ W, 0], [0, 0]],

whose eigenvalues are the nonzero ones of Q = P D E, P = diag(1/|η'|),
without Q's double zero (the constant and the spurious Nyquist mode).
Shift-invert Arnoldi at 0 on A^{-1} M needs one LU of A; μ comes out of
each eigenvector, and the residual is ||(I - B) μ_j + C γ_j||_2.

Traces are normalized to (2π/n) Σ_j |η'(t_j)| γ(t_j)² = 1 with the
largest-magnitude component positive.  A trace tail (Fourier energy in
the bins >= 3n/8) above TRACE_TAIL_WARN issues an UnderResolvedWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .curves import BoundaryCurve, DomainKind, Grid
from .densela import smallest_magnitude_eigs
from .operators import (
    DiscretizationError,
    DtnDiscretization,
    apply_diff_fast,
    build_dtn,  # noqa: F401  (kept importable here: perfbench traces it by this name)
    build_pencil,
    fourier_diff_matrix,  # noqa: F401  (kept importable here: perfbench traces it by this name)
)

__all__ = [
    "SteklovSpectrum",
    "TRACE_TAIL_WARN",
    "UnderResolvedWarning",
    "assemble_q",
    "solve_spectrum",
]

# Converged solves (eigenvalue error <= 1e-11) have trace tails <= 1e-6;
# the kite at n = 64 (error 3e-7) has 3e-5.
TRACE_TAIL_WARN = 1e-5


class UnderResolvedWarning(UserWarning):
    """A trace carries Fourier energy near the Nyquist limit; n should be raised."""


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
        Harmonic conjugates μ_j = E γ_j, recovered from the pencil.
    residuals : ndarray, shape (k,)
        ||(I - B) μ_j + C γ_j||_2 per mode.
    trace_tail : ndarray, shape (k,)
        Relative Fourier tail of each trace (bins >= 3n/8).
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
    residuals: np.ndarray
    trace_tail: np.ndarray
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

    Warns with `UnderResolvedWarning` if a trace tail exceeds
    TRACE_TAIL_WARN.

    Raises
    ------
    DiscretizationError
        If the pencil is singular or an eigenvalue is not positive; the
        discretization is then unresolved and n should be raised.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 2 > n // 2:
        raise ValueError(f"k + 2 = {k + 2} eigenpairs exceed the resolvable band n/2 = {n // 2}")

    grid, b, a, factors = build_pencil(curve, n)

    def apply_m(x):
        g = apply_diff_fast(grid.speed * x[:n], pinv=True)
        return np.concatenate((b @ g - g, [0.0, 0.0]))

    pairs = smallest_magnitude_eigs(factors, k, apply_m)
    order = np.argsort(pairs.values.real, kind="stable")
    lam = pairs.values.real[order]
    vectors = pairs.vectors[:, order]
    if lam[0] <= 0.0:
        raise DiscretizationError(f"non-positive eigenvalue {lam[0]:.3g} at n={n}; increase n")

    weights = (2.0 * np.pi / n) * grid.speed
    vectors = vectors / np.sqrt(np.sum(weights[:, None] * vectors[:n] ** 2, axis=0))
    peak = vectors[np.argmax(np.abs(vectors[:n]), axis=0), np.arange(k)]
    vectors[:, peak < 0.0] *= -1.0
    traces = vectors[:n]
    alt = (-1.0) ** np.arange(n)
    conjugates = apply_diff_fast(grid.speed[:, None] * traces, pinv=True) * lam
    conjugates += vectors[n] + np.outer(alt, vectors[n + 1])
    residuals = np.linalg.norm(conjugates - b @ conjugates + a[:n, :n] @ traces, axis=0)
    energy = np.abs(np.fft.rfft(traces, axis=0)) ** 2
    tail = np.sqrt(np.sum(energy[(3 * n + 7) // 8 :], axis=0) / np.sum(energy, axis=0))
    if np.max(tail) > TRACE_TAIL_WARN:
        warnings.warn(
            f"{curve.name} at n={n}: trace tail {np.max(tail):.2g} > {TRACE_TAIL_WARN:g}; "
            "the spectrum may be under-resolved, increase n",
            UnderResolvedWarning,
            stacklevel=2,
        )

    area = grid.area
    scaled = lam * np.sqrt(area) if curve.kind is DomainKind.BOUNDED_INTERIOR else None

    return SteklovSpectrum(
        curve=curve,
        grid=grid,
        n=n,
        k=k,
        lambdas=lam,
        lambdas_scaled=scaled,
        traces=traces,
        conjugates=conjugates,
        residuals=residuals,
        trace_tail=tail,
        perimeter=grid.perimeter,
        area=area,
    )
