"""Steklov spectra from the pencil, solved through the kernels' Fourier band.

The boundary condition ∂u/∂n = λ u for a harmonic u = Re f turns, in
the boundary parametrization, into μ' = λ W γ with γ = Re f(η(t)),
μ = Im f(η(t)) and W = diag|η'|, and the boundary integral equation
ties the traces by (I - B) μ = -C γ.  With D⁺ the FFT pseudo-inverse of
D and N = [1, alt] (alt_j = (-1)^j) its null space, the first equation
gives μ = λ D⁺ W γ + N (a, b) once Nᵀ W γ = 0.  In x = (γ, a, b) that
is the pencil

    A x = λ M x,   A = [[C, (I - B) N], [Nᵀ W, 0]],   M = [[-(I - B) D⁺ W, 0], [0, 0]],

whose eigenvalues are the nonzero ones of Q = P D E, P = diag(1/|η'|),
without Q's double zero (the constant and the spurious Nyquist mode).
Shift-invert Arnoldi at 0 runs on A^{-1} M.  Neither A, E nor Q is
formed: B and C̃ = C + K enter through their Fourier band
(`operators.kernel_band`), and A through the LU of its band block
(`operators.build_band_pencil`).  One Arnoldi step is an rfft of W x,
the band of B (an m × m product), -K̂ = i on the bins outside the band,
one solve with the band block's factors and an irfft: O(n log n + m²).
Dense products go through scipy's BLAS, the one that owns the factors,
so an Arnoldi step stays on one OpenBLAS thread pool (see
`steklov.densela`).

μ comes out of each eigenvector.  The residual ||(I - B) μ_j + C γ_j||_2
applies B and C̃ through every coefficient of the kernel sample, not
only the band, so it is the grid operator's to the sample's rounding
floor.  `SteklovSpectrum` records the band size m, the sample size m'
and the band tail; they are diagnostics, not warnings (a grid just
below the band, like the kite at n = 160, is resolved).

Traces are normalized to (2π/n) Σ_j |η'(t_j)| γ(t_j)² = 1 with the
largest-magnitude component positive.  A trace tail (Fourier energy in
the bins >= 3n/8) above TRACE_TAIL_WARN issues an UnderResolvedWarning.
`eigenvalue_derivatives` turns the traces of one solve into the shape
derivatives of every eigenvalue, with no further solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigh
from scipy.sparse.linalg import LinearOperator

from .curves import BoundaryCurve, DomainKind, Grid
from .densela import smallest_magnitude_eigs
from .operators import (
    BandPencil,
    DiscretizationError,
    DtnDiscretization,
    apply_diff_fast,
    build_band_pencil,
    build_dtn,  # noqa: F401  (kept importable here: perfbench traces it by this name)
    diff_multiplier,
    fourier_diff_matrix,  # noqa: F401  (kept importable here: perfbench traces it by this name)
)

__all__ = [
    "SteklovSpectrum",
    "TRACE_TAIL_WARN",
    "UnderResolvedWarning",
    "assemble_q",
    "eigenvalue_derivatives",
    "solve_spectrum",
]

# Converged solves (eigenvalue error <= 1e-11) have trace tails <= 1e-6;
# the kite at n = 64 (error 3e-7) has 3e-5.
TRACE_TAIL_WARN = 1e-5
# Consecutive eigenvalues closer than this, relative, form a degenerate pair.
_DEGENERATE_GAP = 1e-10


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
        ||(I - B) μ_j + C γ_j||_2 per mode, with B and C̃ applied
        through the whole kernel sample.
    trace_tail : ndarray, shape (k,)
        Relative Fourier tail of each trace (bins >= 3n/8).
    perimeter, area : float
        Boundary length and enclosed area (bounded complement for
        exterior domains), measured on the same grid.
    band_size, sample_size : int
        The kernels' band m (real Fourier coordinates, at most n) and
        the sample m' it was read from.
    band_tail : float
        The largest real or imaginary part of a kernel coefficient in
        the sample's outer quarter:
        at the rounding floor unless m' reached n first.
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
    band_size: int
    sample_size: int
    band_tail: float

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

    pencil = build_band_pencil(curve, n)
    grid = pencil.grid
    pairs = smallest_magnitude_eigs(_shift_invert(pencil), k, border=2)
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
    traces_hat = np.ascontiguousarray(np.fft.rfft(traces.T, axis=1))
    residuals = _residuals(pencil, traces_hat, conjugates)
    energy = np.abs(traces_hat) ** 2
    tail = np.sqrt(np.sum(energy[:, (3 * n + 7) // 8 :], axis=1) / np.sum(energy, axis=1))
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
        band_size=pencil.band.size,
        sample_size=pencil.band.sample_n,
        band_tail=pencil.band.tail,
    )


def _shift_invert(pencil: BandPencil) -> LinearOperator:
    """x -> A⁻¹ M x for the pencil of `pencil`, in O(n log n + m²) per call.

    With g = D⁺ W γ the right-hand side is F = -(I - B) g: -ĝ plus the
    band of B times ĝ.  Outside the band A acts as -K̂ = i, so there
    Γ = F / i = i ĝ.  The band block gets F on its bins and, in its two
    constraint rows, -Nᵀ W of the Γ just found outside; its solution
    fills the band's bins and the border unknowns n a and n b.
    """
    grid, band, factors = pencil.grid, pencil.band, pencil.factors
    n = grid.n
    nb = band.b_band.shape[0]
    inner = min(nb, n)
    rows_out = np.asfortranarray(pencil.rows[:, inner:n])
    speed, b_band = grid.speed, np.asfortranarray(band.b_band)
    # D⁺, times -1 on the band (F = -ĝ + B ĝ) and times i outside it (Γ = i ĝ)
    mult = diff_multiplier(n, pinv=True)
    mult[: nb // 2] *= -1.0
    mult[nb // 2 :] *= 1j
    slots = np.r_[0:inner, n, n + 1]  # the band block's unknowns in the rfft view
    border = np.array([1, n + 1])  # n a and n b
    wx = np.empty(n)
    out = np.empty(n + 2)  # ARPACK copies it, so each call may overwrite it

    def apply(x):
        f = np.fft.rfft(np.multiply(speed, x[:n], out=wx))
        f *= mult
        fv = f.view(float)
        band_part = fv[:nb]
        band_part -= blas.dgemv(1.0, b_band, band_part)
        rhs = fv[slots]
        if inner < n:
            rhs[[1, -1]] = blas.dgemv(-1.0, rows_out, fv[inner:n])
        fv[slots] = factors.solve(rhs)
        out[n:] = fv[border] / n
        fv[border] = 0.0
        out[:n] = np.fft.irfft(f, n)
        return out

    return LinearOperator((n + 2, n + 2), matvec=apply, dtype=float)


def _residuals(pencil: BandPencil, gamma_hat: np.ndarray, conjugates: np.ndarray) -> np.ndarray:
    """||(I - B) μ_j + C γ_j||_2 per mode, C = -K + C̃, with B and C̃ from the whole sample.

    `gamma_hat` is rfft(γ_j) in row j, row-major.  B and C̃ act on the interleaved
    (re, im) view of the bins the sample carries; beyond them they are zero.
    """
    n, band = pencil.grid.n, pencil.band
    s = band.b_sample.shape[0]
    r = np.ascontiguousarray(np.fft.rfft(conjugates.T, axis=1))
    rv = r.view(float)
    rv[:, :s] -= blas.dgemm(1.0, rv[:, :s], band.b_sample, trans_b=1)
    rv[:, :s] += blas.dgemm(1.0, gamma_hat.view(float)[:, :s], band.c_sample, trans_b=1)
    r[:, 1 : n // 2] += 1j * gamma_hat[:, 1 : n // 2]  # -K γ
    return np.linalg.norm(np.fft.irfft(r, n, axis=1), axis=1)


def _normal_velocity(spectrum: SteklovSpectrum, velocity) -> tuple[np.ndarray, ...]:
    """κ, V_n and ds of `eigenvalue_derivatives` on the grid of `spectrum`."""
    grid = spectrum.grid
    if np.shape(velocity) != (spectrum.n,):
        raise ValueError(f"velocity must have shape ({spectrum.n},), got {np.shape(velocity)}")
    kappa = np.imag(np.conj(grid.eta1) * spectrum.curve.eta2(grid.t)) * grid.rho**3
    vn = np.real(velocity * np.conj(-1j * grid.eta1)) * grid.rho
    return kappa, vn, (2.0 * np.pi / spectrum.n) * grid.speed


def eigenvalue_derivatives(spectrum: SteklovSpectrum, velocity) -> np.ndarray:
    """Shape derivatives λ'_j of every eigenvalue under the boundary velocity V = ∂η.

    `velocity` samples V on the grid, shape (n,).  Hadamard's formula for
    a simple Steklov eigenvalue (Dambrine, Kateb & Lamboley, Ann. IHP
    Anal. Non Linéaire 33, 2016) is

        λ' = ∫_Γ (|∂_τ u|² - λ² u² - λ κ u²) V_n ds,   ∫_Γ u² ds = 1,

    with u = γ, ∂_τ u = γ'/|η'|, κ = Im(conj(η')·η'')/|η'|³, V_n =
    Re(V·conj(ν)) for ν = -iη'/|η'| (out of the domain for both kinds)
    and ds = (2π/n)|η'|.  A degenerate pair (consecutive eigenvalues
    within 1e-10 relative) has no derivative; its two branches get the
    sorted eigenvalues of the integrand's 2 × 2 matrix over the pair's
    traces, relative to their Gram matrix.  O(nk), no solve.

    Only pairs inside the solve are seen.  When k cuts a degenerate pair
    in half, the last mode gets the one-mode formula, whose value depends
    on the vector ARPACK picked in the eigenspace (on the disk with k = 1
    and V = i sin t it reads -1.2486 against the branch value -1.25);
    solve k + 1 modes when the last one may be half of a pair.

    Raises ValueError if `velocity` does not have shape (n,).
    """
    kappa, vn, ds = _normal_velocity(spectrum, velocity)
    lam, u = spectrum.lambdas, spectrum.traces
    du = apply_diff_fast(u) * spectrum.grid.rho[:, None]
    w = (vn * ds)[:, None]
    out = np.sum(w * (du**2 - (lam**2 + lam * kappa[:, None]) * u**2), axis=0)
    for j in np.flatnonzero(np.diff(lam) <= _DEGENERATE_GAP * lam[1:]):
        pair = slice(j, j + 2)
        mean = lam[pair].mean()
        a, b = du[:, pair], u[:, pair]
        h = a.T @ (w * a) - b.T @ (w * (mean**2 + mean * kappa[:, None]) * b)
        out[pair] = eigh(h, b.T @ (ds[:, None] * b), eigvals_only=True)
    return out
