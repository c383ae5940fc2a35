"""Steklov spectra as one symmetric-definite eigenproblem in Fourier coordinates.

The boundary condition ∂u/∂n = λ u for a harmonic u = Re f turns, in
the boundary parametrization, into μ' = λ W γ with γ = Re f(η(t)),
μ = Im f(η(t)) and W = diag|η'|.  On the grid μ = E γ, so the problem
is D E γ = λ W γ.  D E is the DtN operator's quadratic form
(∫ v ∂u/∂n ds = ∫ ∇u·∇v dx), so it is symmetric up to the
discretization error; W is positive definite.

Coordinates.  x is the interleaved (re, im) view of rfft(γ), scaled to
an orthonormal basis: by √(2/n) on the bins 0 < p < n/2 and by √(1/n)
on the constant and the Nyquist bin (whose imaginary slots are zero).
There:

* D K = diag|p|, which on the disk (E = K) is the whole problem;
* E - K lives on the kernels' band |p|, |q| <= L
  (`operators.conjugation_system`, one m-square LU), so
  S = D E = diag|p| + D (Ê - K̂) differs from diag|p| in one block;
* W is the Toeplitz-plus-Hankel matrix of the Fourier coefficients
  of |η'| on the grid.

The solve is Rayleigh–Ritz on the trigonometric polynomials of degree
<= P: the leading blocks S_P and W_P.  D has no constant in its range,
so every eigenvector of a nonzero eigenvalue satisfies (W x)_0 = 0; the
constant's coordinate is eliminated through that constraint (and at
P = n/2 the Nyquist bin's through (W x)_{n/2} = 0), which removes the
two zero eigenvalues of the grid problem wherever they fall in its
spectrum.  One `scipy.linalg.eigh` of the symmetric part of the reduced
S_P against the reduced W_P gives the k lowest eigenpairs
(`densela.smallest_magnitude_eigs`).  On a resolved grid S_P is
positive definite and the Ritz values decrease to the grid's as P
grows; a Ritz value <= 0 therefore shows the grid problem indefinite,
and the solve stops there with a `DiscretizationError`.

P is derived.  It starts at 2(k + 2) and grows until the Ritz vectors'
derivative p·x_p, extrapolated beyond P from its tails beyond 3P/4 and
P/2, has relative norm <= √ε: its energy there is then at rounding, so
the eigenvalues' truncation error stays below the eigensolver's and the
traces are good to their derivatives (`eigenvalue_derivatives`).  Each
step goes to the degree at which the tails' geometric decay predicts
that bound; plain doubling overshoots it (g1 at n = 2048, k = 10: 192
against 122) and made `solve-large` and `crossing` slower.  P is capped
at n/2.  There the reduced problem is the symmetric part of the n-grid
problem: once the grid resolves the curve, D E is symmetric to rounding
and the eigenvalues are Q's (`assemble_q`) to rounding; on coarser
grids the symmetric part moves them by far less than the grid's own
error (g2 at n = 64: 1e-7 against 2e-3).  `SteklovSpectrum` records P
and the symmetry defect
‖S - Sᵀ‖_F / ‖S‖_F of the reduced S_P; both are diagnostics, not
warnings.

Traces are the irfft of the Ritz vectors zero-padded to n, and the
conjugates are μ̂ = K̂ γ̂ + (Ê - K̂) γ̂.  On bounded domains the band
gives mean(μ) = 0; after the residual, each μ is shifted by Im f(α)
from the Cauchy row (`operators._cauchy_row`) at O(nk).  The residual
||(I - B) μ_j + C γ_j||_2 applies B and C̃ through every coefficient of
the kernel sample, not only the band, so it is the grid operator's to
the sample's rounding floor.  `SteklovSpectrum` also records the band
size m, the sample size m' and the band tail (a grid just below the
band, like the kite at n = 160, is resolved).

Traces are normalized to (2π/n) Σ_j |η'(t_j)| γ(t_j)² = 1, with the
first node whose |γ| is within a relative 1e-8 of max|γ| positive: a
symmetric curve reaches the maximum at nodes that only rounding tells
apart.  Degenerate pairs (g1) keep `eigh`'s basis.  A trace tail
(Fourier energy in the bins >= 3n/8) above TRACE_TAIL_WARN issues an
UnderResolvedWarning.  `eigenvalue_derivatives` turns the traces of
one solve into the shape derivatives of every eigenvalue, with no
further solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigh, solve

from .curves import BoundaryCurve, DomainKind, Grid, build_grid
from .densela import smallest_magnitude_eigs
from .operators import (
    DiscretizationError,
    DtnDiscretization,
    KernelBand,
    _cauchy_row,
    apply_diff_fast,
    build_dtn,  # noqa: F401  (kept importable here: perfbench traces it by this name)
    conjugation_system,
    fourier_diff_matrix,  # noqa: F401  (kept importable here: perfbench traces it by this name)
    kernel_band,
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
# Largest relative energy of a Ritz vector in its outer quarter of degrees
# at which P stops growing: √ε, so that P·tail² stays below ε·P.
_RITZ_TAIL = float(np.sqrt(np.finfo(float).eps))
# A trace is positive at its first node within this relative slack of max|γ|.
_SIGN_SLACK = 1e-8


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
        Harmonic conjugates μ_j = E γ_j, from K and E - K on the band.
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
        The largest entry of the kernels' real Fourier matrices in the
        sample's outer quarter: at the rounding floor unless m' reached
        n first.
    degree : int
        The degree P of the Rayleigh–Ritz space, at most n/2.
    symmetry_defect : float
        ‖S - Sᵀ‖_F / ‖S‖_F of the reduced S_P, before symmetrization.
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
    degree: int
    symmetry_defect: float


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
        If the band's I - B is singular or an eigenvalue is not
        positive; the discretization is then unresolved and n should be
        raised.
    EigenSolveError
        If the symmetric-definite eigensolve fails.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 2 > n // 2:
        raise ValueError(f"k + 2 = {k + 2} eigenpairs exceed the resolvable band n/2 = {n // 2}")

    grid = build_grid(curve, n)
    band = kernel_band(curve, grid)
    factors, rhs = conjugation_system(band)
    g = s = np.empty((rhs.shape[0], 0))  # the leading columns of Ê - K̂ solved for so far
    speed_hat = np.fft.fft(grid.speed) / n
    degree = min(2 * (k + 2), n // 2)
    while True:
        done, columns = g.shape[1], min(rhs.shape[1], 2 * degree + 2)
        if done < columns:
            new = -factors.solve(rhs[:, done:columns])
            g, s = np.hstack((g, new)), np.hstack((s, _dtn_band(new, n, done)))
        lam, x, defect = _ritz(s, speed_hat, degree, k)
        if lam[0] <= 0.0:  # Ritz values bound the grid's from above: the grid pencil is indefinite
            raise DiscretizationError(f"non-positive eigenvalue {lam[0]:.3g} at n={n}; increase n")
        half, outer = _derivative_tails(x, degree)
        if degree == n // 2 or outer**2 <= _RITZ_TAIL * half:  # the tail beyond P, extrapolated
            break
        degree = _next_degree(degree, half, outer, n)

    # rfft(γ_j) in row j: x divided by the basis scale, zero-padded to n
    gamma_hat = np.zeros((k, n // 2 + 1), dtype=complex)
    gamma_hat.view(float)[:, : x.shape[0]] = (x / _basis_scale(degree, n)[:, None]).T
    traces = np.fft.irfft(gamma_hat, n, axis=1).T
    weights = (2.0 * np.pi / n) * grid.speed
    scale = 1.0 / np.sqrt(np.sum(weights[:, None] * traces**2, axis=0))
    mag = np.abs(traces)
    first = np.argmax(mag >= (1.0 - _SIGN_SLACK) * mag.max(axis=0), axis=0)
    scale[traces[first, np.arange(k)] < 0.0] *= -1.0
    traces = np.ascontiguousarray(traces * scale)
    gamma_hat *= scale[:, None]
    # μ̂ = K̂ γ̂ + (Ê - K̂) γ̂, with K̂ = -i on the bins 0 < p < n/2
    mu_hat = -1j * gamma_hat
    mu_hat[:, [0, n // 2]] = 0.0
    nb, columns = g.shape
    mu_hat.view(float)[:, :nb] += blas.dgemm(1.0, gamma_hat.view(float)[:, :columns], g, trans_b=1)
    conjugates = np.ascontiguousarray(np.fft.irfft(mu_hat, n, axis=1).T)
    residuals = _residuals(band, gamma_hat, mu_hat, n)
    w = _cauchy_row(curve, grid)
    if w is not None:  # the band gave mean(μ) = 0; set Im f(α) = 0 instead
        conjugates -= w.imag @ traces + w.real @ conjugates
    energy = np.abs(gamma_hat) ** 2
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
        band_size=band.size,
        sample_size=band.sample_n,
        band_tail=band.tail,
        degree=degree,
        symmetry_defect=defect,
    )


def _derivative_tails(x: np.ndarray, degree: int) -> tuple[float, float]:
    """The largest relative norm, over the Ritz vectors, of p·x_p beyond degrees P/2 and 3P/4.

    p·x_p are the coefficients of γ' (rows 2p and 2p + 1 of x are bin p).
    """
    weighted = (np.arange(x.shape[0]) // 2)[:, None] * x
    energy = np.cumsum(weighted[::-1] ** 2, axis=0)[::-1]  # row i: the energy in rows >= i
    rows = [2 * (degree // 2), 2 * ((3 * degree + 3) // 4)]
    half, outer = np.sqrt(np.max(energy[rows] / energy[0], axis=1))
    return float(half), float(outer)


def _next_degree(degree: int, half: float, outer: float, n: int) -> int:
    """The degree at which the tails of `_derivative_tails` reach _RITZ_TAIL.

    The prediction continues their geometric decay from P/2 to 3P/4.
    The decay slows as the degree grows, so the prediction falls short:
    the step is a quarter longer than predicted, at least P/4 (a
    prediction just short of the target would creep up a degree at a
    time) and at most P (a degree too low to see the decay doubles).
    The degree is at most n/2.
    """
    step = float(degree)
    if half > outer:
        quarters = np.log(outer / _RITZ_TAIL) / np.log(half / outer) - 1.0
        step = min(step, max(degree / 4.0, 1.25 * quarters * degree / 4.0))
    return min(degree + int(np.ceil(step)), n // 2)


def _basis_scale(degree: int, n: int) -> np.ndarray:
    """x / rfft(γ).view(float) on the degrees <= `degree`.

    √(2/n), and √(1/n) on the constant and the Nyquist bin.
    """
    r = np.full(2 * degree + 2, np.sqrt(2.0 / n))
    r[:2] = np.sqrt(1.0 / n)
    if 2 * degree == n:
        r[-2:] = np.sqrt(1.0 / n)
    return r


def _dtn_band(g: np.ndarray, n: int, first: int = 0) -> np.ndarray:
    """D (Ê - K̂) in the orthonormal coordinates, for columns `first`, ... of Ê - K̂ in `g`.

    D maps (re, im) of bin p to (-p im, p re), and is zero on the
    constant and the Nyquist bin.
    """
    nb = g.shape[0]
    p = np.arange(1, min(nb // 2, n // 2))
    s = np.zeros_like(g)
    s[2 * p] = -p[:, None] * g[2 * p + 1]
    s[2 * p + 1] = p[:, None] * g[2 * p]
    r = _basis_scale(nb // 2 - 1, n)
    return s * r[:, None] / r[first : first + g.shape[1]]


def _weight_matrix(speed_hat: np.ndarray, degree: int) -> np.ndarray:
    """W = diag|η'| on the degrees <= `degree`, in the orthonormal coordinates.

    With a_d = speed_hat[d mod n], the grid's Fourier coefficients of |η'|
    over n, the (re, im) blocks of bins p, q are Re a_{p-q} ± Re a_{p+q}
    and ∓Im a_{p-q} + Im a_{p+q} (Toeplitz plus Hankel), times 1/√2 on
    the constant's and the Nyquist bin's rows and columns.
    """
    n = speed_hat.size
    p = np.arange(degree + 1)
    diff = speed_hat[np.subtract.outer(p, p) % n]
    total = speed_hat[np.add.outer(p, p) % n]
    edge = np.ones(degree + 1)
    edge[0] = np.sqrt(0.5)
    if 2 * degree == n:
        edge[-1] = np.sqrt(0.5)
    edge = np.outer(edge, edge)
    w = np.empty((2 * degree + 2, 2 * degree + 2))
    w[0::2, 0::2] = edge * (diff.real + total.real)
    w[1::2, 1::2] = edge * (diff.real - total.real)
    w[0::2, 1::2] = edge * (total.imag - diff.imag)
    w[1::2, 0::2] = edge * (total.imag + diff.imag)
    return w


def _ritz(s: np.ndarray, speed_hat: np.ndarray, degree: int, k: int):
    """Rayleigh–Ritz for S x = λ W x on the degrees <= `degree`: (λ, x, symmetry defect).

    `s` is `_dtn_band`'s block and `speed_hat` the grid's DFT of |η'|
    over n; x has 2·degree + 2 rows in the orthonormal coordinates.  The
    imaginary slots of the constant (and of the Nyquist bin at
    degree n/2) are zero; the real ones are fixed by (W x) = 0 there,
    x_fixed = Z x_free.  Rows `fixed` of S vanish, so the reduced S is
    S_ff + S_fc Z, and the reduced W is the Schur complement.
    """
    n = speed_hat.size
    size = 2 * degree + 2
    a = np.zeros((size, size))
    m = min(size, s.shape[0])
    a[:m, :m] = s[:m, :m]
    p = np.arange(1, min(degree + 1, n // 2))
    a[2 * p, 2 * p] += p
    a[2 * p + 1, 2 * p + 1] += p
    w = _weight_matrix(speed_hat, degree)
    nyquist = 2 * degree == n
    fixed = [0, size - 2] if nyquist else [0]
    free = slice(2, size - 2 if nyquist else size)
    z = -solve(w[np.ix_(fixed, fixed)], w[fixed, free])
    w_red, s_red = w[free, free].copy(), a[free, free].copy()
    for j, row in zip(fixed, z):  # one or two outer products, kept off numpy's BLAS
        w_red += np.multiply.outer(w[free, j], row)
        s_red += np.multiply.outer(a[free, j], row)
    # the Frobenius norms without np.linalg.norm, which calls numpy's BLAS
    defect = np.sqrt(np.sum((s_red - s_red.T) ** 2) / np.sum(s_red**2))
    lam, y = smallest_magnitude_eigs(0.5 * (s_red + s_red.T), w_red, k)
    x = np.zeros((size, k))
    x[free] = y
    x[fixed] = blas.dgemm(1.0, z, y)
    return lam, x, float(defect)


def _residuals(band: KernelBand, gamma_hat: np.ndarray, mu_hat: np.ndarray, n: int) -> np.ndarray:
    """||(I - B) μ_j + C γ_j||_2 per mode, C = -K + C̃, with B and C̃ from the whole sample.

    `gamma_hat` and `mu_hat` hold rfft(γ_j) and rfft(μ_j) in row j.  B
    and C̃ act on the interleaved (re, im) view of the bins the sample
    carries; beyond them they are zero.
    """
    s = band.b_sample.shape[0]
    r = mu_hat.copy()
    rv = r.view(float)
    rv[:, :s] -= blas.dgemm(1.0, mu_hat.view(float)[:, :s], band.b_sample, trans_b=1)
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
    on the vector `eigh` returns in the eigenspace: anything between the
    two branch values (on the disk with k = 1 and V = i sin t, between
    -1.25 and 0.25; the vector returned there is cos t, which reads
    -1.25).  Solve k + 1 modes when the last one may be half of a pair.

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
