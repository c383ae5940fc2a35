"""Discrete operator stack on the equidistant boundary grid.

For an even grid size n the module provides

* ``D`` — spectral differentiation of the trigonometric interpolant: i p
  on the rfft bin p, zero on the Nyquist bin, so D annihilates the
  alternating mode cos(n t / 2).  `apply_diff_fast` applies it by the
  real FFT, O(n log n) per column; the dense `fourier_diff_matrix` is
  the reference it is tested against;
* ``K`` — the discrete conjugation (Hilbert transform) matrix,
  K_ij = (2/n) cot((i-j) π / n) for odd i-j, zero otherwise, a
  circulant built from one column; it is -i on the bins 0 < p < n/2
  and zero on the constant and the Nyquist bin, so D K = diag|p|;
* ``B``, ``C`` — Nyström matrices for the boundary integral equation
  (I - N) μ = -M γ: B discretizes the continuous Neumann-type kernel
  N(s,t) by the trapezoidal rule, and C = -K + C̃ splits the singular
  kernel M(s,t) into its cotangent part (handled exactly by K) and
  the continuous remainder M̃ (trapezoidal).  Both come from one
  kernel evaluation in column panels; -K and the cotangent that M̃
  adds back depend on i-j only and enter C as a single circulant;
* ``E = -(I - B)^{-1} C`` — the conjugation matrix mapping the
  boundary values of Re f to those of Im f, for f analytic in the
  domain with Im f(α) = 0 (bounded) or Im f(∞) = 0 (exterior).
  `build_dtn` assembles it densely, the paper's way, for checks and
  `--dump-operators`; the solve uses its Fourier form, K plus the one
  block E - K on the kernels' band (`kernel_band`, `conjugation_system`).

Both kinds share the generalized Neumann kernel with A = 1 (Wegmann &
Nasser, J. Comput. Appl. Math. 214, 2008):

    M(s,t) + i N(s,t) = (1/π) η'(t) / (η(t) - η(s)),
    M(s,t) = -(1/2π) cot((s-t)/2) + M̃(s,t),
    M̃(t,t) + i N(t,t) = (1/π) η''(t) / (2η'(t)).

On exterior domains I - N is invertible and fixes Im f(∞) = 0.  On
bounded ones N·1 = 1, so μ is fixed up to a constant: its row reads
mean(μ) = 0 instead, which D annihilates, and Im f(α) = 0 then sets
the constant, with f(α) = Σ_j f_j w_j by the trapezoidal Cauchy rule
(`_cauchy_row`, the one place α enters), exact to rounding on resolved
periodic data (Trefethen & Weideman, SIAM Rev. 56, 2014).  On the unit
disk N ≡ 1/(2π), M̃ ≡ 0 and, with α = 0, E = K.

The null space of C is spanned by the constant vector once the grid
resolves the curve (the constant-annihilation defect decays like the
trapezoidal error of the analytic kernel, i.e. exponentially in n),
and E then shares the two-dimensional numerical null space of K: the
constant and the alternating Nyquist vector.  All other eigenvalues
of K and E sit at ±i.

The band.  N and M̃ are analytic in both variables, so the Fourier
coefficients of B and C̃ approximate 2π times the kernels' whatever the
grid size, and they decay exponentially in both indices.  The solve
reads them as real matrices R = F X F⁺ on the coordinates every
consumer uses, the interleaved (re, im) view of rfft (F) and its
inverse, the irfft (F⁺): two real FFTs.  `kernel_band` samples the
kernels with `nystrom_matrices` on m' = 64 nodes, then on larger
multiples of 64 (capped at n), until every entry of R in the sample's
outer quarter (bins max(p, q) >= 3m'/8) is at the rounding floor,
_FLOOR_PER_NODE·m'; on bounded domains the constant rows of both R
are zero, so row 0 of the band's I - B̂ reads mean(μ) = 0.  R is kept
on the bins the sample carries; the band
is its leading block, the bins p, q <= L of every entry above that
floor, m = 2L + 1 real Fourier coordinates.  It does not grow with n,
and a grid below it is sampled whole (m' = n).  E - K =
-(I - B)⁻¹(C̃ - B K) lives on the same band, so `conjugation_system`
gets it from one m-square LU; unless the grid is coarser than the
kernels' band, no n-square array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import circulant

from .curves import BoundaryCurve, DomainKind, Grid, build_grid, nodes
from .densela import LUFactors, SingularMatrixError, lu_factor

__all__ = [
    "DiscretizationError",
    "DtnDiscretization",
    "KernelBand",
    "apply_diff_fast",
    "build_dtn",
    "conjugation_system",
    "fourier_diff_matrix",
    "kernel_band",
    "kernel_values",
    "nystrom_matrices",
    "wittich_matrix",
]

# Residual imaginary part of F W F* beyond this indicates a wrong
# frequency layout rather than rounding.
_DIFF_IMAG_TOL = 1e-12

# Columns per Nyström assembly panel (measured well at n = 256-2048).
_PANEL = 64

# Smallest kernel sample; later samples are multiples of it, up to the grid size.
_SAMPLE_START = 64
# Rounding floor of a sampled kernel coefficient, per sample node.  The
# coefficients of B and C̃ level off at 2e-15 (m' = 256), 2e-14 (512) and
# 1e-14 (1024) on every builtin, on translated and generated curves and
# on the disk, where C̃ is zero: the floor is that of the cotangent
# cancellation, not of the curve.  0.5·eps·m' sits above all of them.
_FLOOR_PER_NODE = 0.5 * np.finfo(float).eps
# Head room on the shell at which a sample's decay puts the floor.  The
# 64-node prediction falls short by up to 20% (the kite), which rounding
# up to a multiple of 64 mostly absorbs; with no head room, g1 and g2 at
# n = 2048 missed the floor on their second sample and took a third.
_SHELL_MARGIN = 1.1


class DiscretizationError(RuntimeError):
    """Operator assembly failed (typically: grid too coarse for the curve)."""


def _check_even(n: int) -> None:
    if n < 4 or n % 2 != 0:
        raise ValueError(f"grid size must be an even integer >= 4, got {n}")


def _frequencies(n: int) -> np.ndarray:
    """Signed interpolation frequencies (0, 1, .., n/2-1, 0, -(n/2-1), .., -1)."""
    k = np.zeros(n)
    k[1 : n // 2] = np.arange(1, n // 2)
    k[n // 2 + 1 :] = np.arange(n // 2 + 1, n) - n
    return k


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Dense spectral differentiation matrix D = F W F*.

    Exact on trigonometric polynomials of degree < n/2; the Nyquist
    mode cos(n t / 2) is mapped to zero.  The factorization is applied
    column-wise through the FFT, and the (rounding-level) imaginary
    residue is checked and discarded.
    """
    _check_even(n)
    w = -1j * _frequencies(n)
    d = np.fft.fft(w[:, None] * np.fft.ifft(np.eye(n), axis=0), axis=0)
    residue = np.max(np.abs(d.imag))
    if residue > _DIFF_IMAG_TOL:
        raise DiscretizationError(
            f"differentiation matrix has imaginary residue {residue:.3e}; "
            "frequency layout is inconsistent"
        )
    return np.ascontiguousarray(d.real)


def apply_diff_fast(values: np.ndarray) -> np.ndarray:
    """Apply the spectral differentiation operator via the real FFT.

    Equals fourier_diff_matrix(n) @ values to rounding; O(n log n) per
    column.  Accepts a vector or a matrix of columns (axis 0 is the
    grid).  The multiplier is i k for k = 0 .. n/2 with the Nyquist
    slot set to zero.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    _check_even(n)
    mult = 1j * np.arange(n // 2 + 1)
    mult[-1] = 0.0
    coef = np.fft.rfft(values, axis=0)
    coef *= mult.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.irfft(coef, n=n, axis=0)


def _wittich_column(n: int) -> np.ndarray:
    """First column of K: (2/n) cot(m π / n) at odd offsets m.

    The entry at n - m is set to the negated entry at m (and the one at
    n/2 to the exact zero of cot(π/2)), so the circulant is exactly
    antisymmetric.
    """
    m = np.arange(1, n // 2, 2)
    col = np.zeros(n)
    col[m] = (2.0 / n) / np.tan(m * np.pi / n)
    col[n - m] = -col[m]
    return col


def wittich_matrix(n: int) -> np.ndarray:
    """Discrete conjugation matrix with cotangent entries at odd offsets."""
    _check_even(n)
    return circulant(_wittich_column(n))


# ---------------------------------------------------------------------------
# Kernels and Nyström assembly
# ---------------------------------------------------------------------------

def kernel_values(curve: BoundaryCurve, s, t):
    """Point values (N(s,t), M̃(s,t)) of the boundary kernels.

    Arguments broadcast; pairs with |s - t| < 1e-14 after periodic
    wrapping are routed to the diagonal (limit) formulas.  On the
    equidistant grid only s == t hits that branch, so the switch is a
    guard rather than a smoothing.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    d = np.mod(s - t + np.pi, 2.0 * np.pi) - np.pi
    on_diag = np.abs(d) < 1e-14

    ts = np.where(on_diag, 0.0, t)  # dummy arguments on the diagonal
    denom = np.where(on_diag, 1.0, curve.eta(ts) - curve.eta(s))
    m_in = (1.0 / np.pi) * curve.eta1(ts) / denom
    n_off = m_in.imag
    mt_off = m_in.real + (1.0 / (2.0 * np.pi)) / np.tan(np.where(on_diag, 1.0, d) / 2.0)

    q = 0.5 * curve.eta2(s) / curve.eta1(s) / np.pi
    n_val = np.where(on_diag, q.imag, n_off)
    mt_val = np.where(on_diag, q.real, mt_off)
    if n_val.ndim == 0:
        return float(n_val), float(mt_val)
    return n_val, mt_val


def nystrom_matrices(grid: Grid, curve: BoundaryCurve) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal Nyström matrices (B, C) on the grid.

    B_ij = (2π/n) N(t_i, t_j); C = -K + C̃ with C̃_ij = (2π/n) M̃(t_i, t_j).
    C annihilates constants up to the trapezoidal error of the kernel.

    The complex kernel h (M + i N) is evaluated once off the diagonal,
    with the column factor (h/π) η'_j.  -K_ij and the term
    (h/2π) cot((t_i - t_j)/2) that turns M into M̃ depend on
    m = i - j mod n only, so C is the kernel's real part plus one
    circulant with column (1/n) cot(m π / n) - K_m0.

    The kernel fills _PANEL columns at a time of one complex buffer,
    which go straight into B and C; the circulant is a strided view of
    the doubled column.  Both matrices are column-major, the layout
    LAPACK factorizes and solves with.
    """
    n = grid.n
    h = 2.0 * np.pi / n
    eta = grid.eta
    col_factor = (h / np.pi) * grid.eta1

    shift = np.zeros(n)
    shift[1:] = 1.0 / (n * np.tan(np.arange(1, n) * np.pi / n))
    shift -= _wittich_column(n)
    # Column j of the circulant, shift[(i - j) mod n] over rows i, is window n - j.
    windows = sliding_window_view(np.concatenate((shift, shift)), n)

    b = np.empty((n, n), order="F")
    c = np.empty((n, n), order="F")
    buf = np.empty((min(_PANEL, n), n), dtype=complex)
    for j0 in range(0, n, _PANEL):
        j1 = min(j0 + _PANEL, n)
        # h (M + i N)(t_i, t_j) = (h/π) η'_j / (η_j - η_i); kern[j - j0, i].
        kern = buf[: j1 - j0]
        np.subtract(eta[j0:j1, None], eta, out=kern)
        np.fill_diagonal(kern[:, j0:], 1.0)
        np.divide(col_factor[j0:j1, None], kern, out=kern)
        b.T[j0:j1] = kern.imag
        np.add(windows[n - j0 : n - j1 : -1], kern.real, out=c.T[j0:j1])

    diag = (h / np.pi) * (0.5 * curve.eta2(grid.t) / grid.eta1)
    np.fill_diagonal(b, diag.imag)
    np.fill_diagonal(c, diag.real)
    return b, c


def _cauchy_row(curve: BoundaryCurve, grid: Grid) -> np.ndarray | None:
    """w with f(α) = Σ_j f_j w_j, the trapezoidal Cauchy rule; None for exterior domains.

    w_j = η'_j / (i n (η_j - α)), and Im f(α) = Im(w)·γ + Re(w)·μ.
    """
    if curve.kind is DomainKind.UNBOUNDED_EXTERIOR:
        return None
    return grid.eta1 / (1j * grid.n * (grid.eta - curve.alpha))


@dataclass
class DtnDiscretization:
    """All grid-level operators for one (curve, n) pair.

    Treated as immutable once built; ``q`` is filled in lazily by
    ``spectrum.assemble_q`` (an O(n² log n) product that not every use
    of the discretization needs).  The O(n³) work is the LU of (I - B)
    and the solve for E.
    """

    curve: BoundaryCurve
    grid: Grid
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    q: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def K(self) -> np.ndarray:
        """Discrete conjugation matrix (built on demand; the solve never reads it)."""
        return wittich_matrix(self.n)

    @property
    def rho(self) -> np.ndarray:
        """Diagonal of the arclength weight matrix P."""
        return self.grid.rho


def build_dtn(curve: BoundaryCurve, n: int) -> DtnDiscretization:
    """Assemble B, C and E = -(I - B)^{-1} C for (curve, n).

    On bounded domains N·1 = 1 makes I - B singular, so E is solved with
    the constants projected out of B's and C's range, P₀ = I - 11ᵀ/n:
    E₀ = -(I - P₀B)⁻¹P₀C has mean(E₀γ) = 0, and E = E₀ - 1(Im wᵀ + Re wᵀE₀)
    sets Im f(α) = 0 (`_cauchy_row`).  The LU is dropped once E is
    solved for.
    """
    grid = build_grid(curve, n)
    b, c = nystrom_matrices(grid, curve)
    w = _cauchy_row(curve, grid)
    i_minus_b, rhs = -b, c  # -b keeps B's column-major layout
    if w is not None:
        i_minus_b -= i_minus_b.mean(axis=0)
        rhs = c - c.mean(axis=0)
    i_minus_b[np.diag_indices(n)] += 1.0
    try:
        factors = lu_factor(i_minus_b)
    except SingularMatrixError as exc:
        raise DiscretizationError(
            f"(I - B) is singular at n={n}; increase the grid size"
        ) from exc
    e = -factors.solve(rhs)
    if w is not None:
        e -= w.imag + w.real @ e
    return DtnDiscretization(curve=curve, grid=grid, B=b, C=c, E=e)


# ---------------------------------------------------------------------------
# The kernels' Fourier band and the conjugation matrix on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBand:
    """B and C̃ = C + K in Fourier coordinates for a grid, from an m'-node sample.

    ``b_sample`` and ``c_sample`` are the real matrices R = F X F⁺ of
    v -> X v on numpy's interleaved (re, im) view of rfft(v), over every
    bin the sample carries: 0 <= p, q < m'/2, and the Nyquist bin too
    when the sample is the grid (m' = n).  The band is their leading
    block, the bins p, q <= ``top`` = L; ``size`` is m = 2L + 1, at most
    the grid size.  ``tail`` is the largest entry of the sample's two
    real matrices in its outer quarter, the bins max(p, q) >= 3m'/8 (K
    has unit norm, so it is relative): at the rounding floor once the
    sample resolves the kernels, larger when m' reached n first.
    """

    sample_n: int
    top: int
    tail: float
    b_sample: np.ndarray = field(repr=False)
    c_sample: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return min(2 * self.top + 1, self.sample_n)

    @property
    def b_band(self) -> np.ndarray:
        return self.b_sample[: 2 * self.top + 2, : 2 * self.top + 2]

    @property
    def c_band(self) -> np.ndarray:
        return self.c_sample[: 2 * self.top + 2, : 2 * self.top + 2]


def _sample_grid(curve: BoundaryCurve, m: int) -> Grid:
    """The curve on m quadrature nodes, without `build_grid`'s checks."""
    t = nodes(m)
    eta = np.asarray(curve.eta(t), dtype=complex)
    eta1 = np.asarray(curve.eta1(t), dtype=complex)
    speed = np.abs(eta1)
    return Grid(n=m, t=t, eta=eta, eta1=eta1, speed=speed, rho=1.0 / speed)


def _kernel_coefficients(grid: Grid, curve: BoundaryCurve) -> list[np.ndarray]:
    """R = F X F⁺ for X = B and X = C̃ on the grid: real (m+2)-square, column-major.

    F maps a grid vector v to rfft(v).view(float) and F⁺ is the irfft,
    so rows and columns 2p and 2p + 1 of R are the real and imaginary
    part of bin p.  F⁺ᵀ is F with the bins scaled by 1/m (constant and
    Nyquist) and 2/m (the others), so R is an rfft along the rows, those
    scales, and an rfft down the columns; the second writes the columns
    of R contiguously, the layout LAPACK factorizes and solves with.
    Each transform takes the place of the array it reads, so at most
    three m-square arrays are alive.  K is -i on the bins 0 < p < m/2:
    C̃ = C + K adds +1 at (2p, 2p + 1) and -1 at (2p + 1, 2p).  On
    bounded domains rows 0 and 1, the constant bin, are zeroed.
    """
    m = grid.n
    scale = np.full(m + 2, 2.0 / m)
    scale[:2] = scale[-2:] = 1.0 / m
    rows, cols = (m, m // 2 + 1), (m // 2 + 1, m + 2)
    coeffs = list(nystrom_matrices(grid, curve))
    for i in range(2):
        coeffs[i] = np.fft.rfft(coeffs[i], axis=1, out=np.empty(rows, complex)).view(float)
        coeffs[i] *= scale  # X F⁺
        out = np.fft.rfft(coeffs[i], axis=0, out=np.empty(cols, complex, order="F"))
        coeffs[i] = out.T.view(float).T
    p = np.arange(1, m // 2)
    coeffs[1][2 * p, 2 * p + 1] += 1.0
    coeffs[1][2 * p + 1, 2 * p] -= 1.0
    if curve.kind is DomainKind.BOUNDED_INTERIOR:
        coeffs[0][:2] = coeffs[1][:2] = 0.0
    return coeffs


def _shell_max(coeffs: list[np.ndarray], lo: int, hi: int) -> float:
    """Largest |entry| of the matrices over the bins lo <= max(p, q) < hi."""
    lo, hi = 2 * lo, 2 * hi
    return max(float(np.abs(block).max(initial=0.0))
               for x in coeffs for block in (x[lo:hi, :hi], x[:lo, lo:hi]))


def _next_sample(coeffs: list[np.ndarray], tail: float, floor: float, n: int) -> int:
    """The next sample size after one whose outer quarter misses the floor.

    The decay of the coefficients from the shells [m/8, m/4) to
    [m/4, 3m/8) says at which shell they reach the floor; the next size
    is the smallest multiple of 64 that puts that shell, with
    _SHELL_MARGIN of head room, inside its inner three quarters, and at
    least twice the last.  A size between powers of two saves work where
    the band falls just short of one: the criterion-7 ellipses near
    r = 1.98 resolve on 192 nodes instead of 256.
    """
    m = coeffs[0].shape[0] - 2
    outer = 3 * m // 8
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _shell_max(coeffs, m // 8, m // 4) / _shell_max(coeffs, m // 4, outer)
        rate = np.log(ratio) / (outer - m // 4)
    shell = outer + np.log(tail / floor) / rate if rate > 0.0 else np.inf
    step = _SAMPLE_START
    size = max(2 * m, step * int(np.ceil(_SHELL_MARGIN * 8.0 * min(shell, n) / (3.0 * step))))
    return min(size, n)


def kernel_band(curve: BoundaryCurve, grid: Grid) -> KernelBand:
    """The Fourier band of B and C̃ for `grid`, from the smallest sample that resolves it.

    Samples on 64 nodes, then on multiples of 64 that the last sample's
    decay picks (`_next_sample`), capped at grid.n, until the sample's
    outer quarter is at the rounding floor; m' = n is the grid itself.
    L is the highest bin of an entry above the floor, so the band drops
    only rounding noise.
    """
    n = grid.n
    m = min(_SAMPLE_START, n)
    while True:
        coeffs = _kernel_coefficients(grid if m == n else _sample_grid(curve, m), curve)
        floor = _FLOOR_PER_NODE * m
        tail = _shell_max(coeffs, 3 * m // 8, m // 2 + 1)
        if tail <= floor or m == n:
            break
        m = _next_sample(coeffs, tail, floor, n)
    above = np.abs(coeffs[0]) > floor
    above |= np.abs(coeffs[1]) > floor
    top = int(max(np.flatnonzero(above.any(axis=1)).max(initial=0),
                  np.flatnonzero(above.any(axis=0)).max(initial=0))) // 2
    reach = m // 2 if m == n else m // 2 - 1  # the sample's Nyquist bin aliases two frequencies
    b_sample, c_sample = (x[: 2 * reach + 2, : 2 * reach + 2] for x in coeffs)
    return KernelBand(sample_n=m, top=min(top, reach), tail=tail,
                      b_sample=b_sample, c_sample=c_sample)


def conjugation_system(band: KernelBand) -> tuple[LUFactors, np.ndarray]:
    """The LU of the band's I - B̂ and C̃ - B̂ K̂, whose solve is Ê - K̂.

    E - K = -(I - B)⁻¹(C + (I - B) K) and C = -K + C̃, so E - K is
    -(I - B)⁻¹(C̃ - B K).  C̃ - B K vanishes outside the band and I - B
    is the identity there, so E - K is one block in the layout of
    ``band.b_band``: -factors.solve(rhs), and any leading columns of it
    from the same columns of rhs.  K̂ is -i on the bins 0 < p < n/2: it
    maps (re, im) to (im, -re).

    Raises
    ------
    DiscretizationError
        If the band's I - B̂ is singular.
    """
    b = band.b_band
    q = np.arange(1, min(b.shape[0] // 2, band.sample_n // 2))  # the band's bins 0 < q < n/2
    rhs = np.array(band.c_band, order="F")
    rhs[:, 2 * q] += b[:, 2 * q + 1]
    rhs[:, 2 * q + 1] -= b[:, 2 * q]
    i_minus_b = -b
    i_minus_b[np.diag_indices_from(i_minus_b)] += 1.0
    try:
        factors = lu_factor(i_minus_b)
    except SingularMatrixError as exc:
        raise DiscretizationError(
            f"the band's I - B is singular (m = {band.size}); increase n"
        ) from exc
    return factors, rhs
