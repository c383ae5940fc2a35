"""Discrete operator stack on the equidistant boundary grid.

For an even grid size n the module assembles

* ``D`` — spectral differentiation of the trigonometric interpolant,
  D = F W F* with the DFT matrix F and the diagonal frequency matrix
  W (the Nyquist slot of W is zero, so D annihilates the alternating
  mode cos(n t / 2)).  The solver applies D as a Fourier multiplier
  (`apply_diff_fast`, a real FFT along the first axis, O(n log n) per
  column); the dense `fourier_diff_matrix` is the reference it is
  tested against;
* ``K`` — the discrete conjugation (Hilbert transform) matrix,
  K_ij = (2/n) cot((i-j) π / n) for odd i-j, zero otherwise, a
  circulant built from one column;
* ``B``, ``C`` — Nyström matrices for the boundary integral equation
  (I - N) μ = -M γ: B discretizes the continuous Neumann-type kernel
  N(s,t) by the trapezoidal rule, and C = -K + C̃ splits the singular
  kernel M(s,t) into its cotangent part (handled exactly by K) and
  the continuous remainder M̃ (trapezoidal).  Both come from one
  kernel evaluation in column panels; -K and the cotangent that M̃
  adds back depend on i-j only and enter C as a single circulant;
* ``E = -(I - B)^{-1} C`` — the conjugation matrix mapping the
  boundary values of Re f to those of Im f, for f analytic in the
  domain with Im f(α) = 0 (bounded) or Im f(∞) = 0 (exterior);
* the (n+2)-square Steklov pencil matrix (`build_pencil`), factored in place.

With A(t) = η(t) - α for bounded domains and A(t) = 1 for exterior
ones, the kernels are

    M(s,t) + i N(s,t) = (1/π) (A(s)/A(t)) η'(t) / (η(t) - η(s)),
    M(s,t) = -(1/2π) cot((s-t)/2) + M̃(s,t),
    N(t,t) = (1/π) Im(η''(t)/(2η'(t)) - A'(t)/A(t)),
    M̃(t,t) = (1/π) Re(η''(t)/(2η'(t)) - A'(t)/A(t)).

On the unit disk N ≡ -1/(2π) and M̃ ≡ 0, and E reduces to K.

The null space of C is spanned by the constant vector once the grid
resolves the curve (the constant-annihilation defect decays like the
trapezoidal error of the analytic kernel, i.e. exponentially in n),
and E then shares the two-dimensional numerical null space of K: the
constant and the alternating Nyquist vector.  All other eigenvalues
of K and E sit at ±i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import blas, circulant

from .curves import BoundaryCurve, DomainKind, Grid, build_grid
from .densela import LUFactors, SingularMatrixError, lu_factor

__all__ = [
    "DiscretizationError",
    "DtnDiscretization",
    "apply_diff_fast",
    "build_dtn",
    "build_pencil",
    "diff_multiplier",
    "fourier_diff_matrix",
    "kernel_values",
    "nystrom_matrices",
    "wittich_matrix",
]

# Residual imaginary part of F W F* beyond this indicates a wrong
# frequency layout rather than rounding.
_DIFF_IMAG_TOL = 1e-12

# Columns per Nyström assembly panel (measured well at n = 256-2048).
_PANEL = 64


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


def apply_diff_fast(values: np.ndarray, pinv: bool = False) -> np.ndarray:
    """Apply the spectral differentiation operator via the real FFT.

    Equals fourier_diff_matrix(n) @ values to rounding; O(n log n) per
    column.  Accepts a vector or a matrix of columns (axis 0 is the
    grid).  The multiplier is i k for k = 0 .. n/2 with the Nyquist
    slot set to zero; with `pinv` it is 1/(i k), zero at k = 0 and
    n/2, which applies the pseudo-inverse D⁺.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    _check_even(n)
    coef = np.fft.rfft(values, axis=0)
    coef *= diff_multiplier(n, pinv).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.irfft(coef, n=n, axis=0)


def diff_multiplier(n: int, pinv: bool = False) -> np.ndarray:
    """The rfft-bin multiplier of `apply_diff_fast`: i k, or 1/(i k) with `pinv`."""
    k = np.arange(1, n // 2)
    mult = np.zeros(n // 2 + 1, dtype=complex)
    mult[1:-1] = -1j / k if pinv else 1j * k
    return mult


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

def _log_derivative_term(curve: BoundaryCurve, t: np.ndarray) -> np.ndarray:
    """η''/(2η') - A'/A at the nodes; A' = η' (bounded) or 0 (exterior)."""
    e1 = curve.eta1(t)
    e2 = curve.eta2(t)
    q = 0.5 * e2 / e1
    if curve.kind is DomainKind.BOUNDED_INTERIOR:
        q = q - e1 / (curve.eta(t) - curve.alpha)
    return q


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
    eta_s, eta_t = curve.eta(s), curve.eta(ts)
    eta1_t = curve.eta1(ts)
    if curve.kind is DomainKind.BOUNDED_INTERIOR:
        ratio = (eta_s - curve.alpha) / (eta_t - curve.alpha)
    else:
        ratio = np.ones_like(eta_s)
    denom = np.where(on_diag, 1.0, eta_t - eta_s)
    m_in = (1.0 / np.pi) * ratio * eta1_t / denom
    n_off = m_in.imag
    mt_off = m_in.real + (1.0 / (2.0 * np.pi)) / np.tan(np.where(on_diag, 1.0, d) / 2.0)

    q = _log_derivative_term(curve, s) / np.pi
    n_val = np.where(on_diag, q.imag, n_off)
    mt_val = np.where(on_diag, q.real, mt_off)
    if n_val.ndim == 0:
        return float(n_val), float(mt_val)
    return n_val, mt_val


def nystrom_matrices(grid: Grid, curve: BoundaryCurve,
                     out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal Nyström matrices (B, C) on the grid.

    B_ij = (2π/n) N(t_i, t_j); C = -K + C̃ with C̃_ij = (2π/n) M̃(t_i, t_j).
    C annihilates constants up to the trapezoidal error of the kernel.

    The complex kernel h (M + i N) is evaluated once off the diagonal,
    with the column factor (h/π) η'_j / A_j and the row factor A_i.
    -K_ij and the term (h/2π) cot((t_i - t_j)/2) that turns M into M̃
    depend on m = i - j mod n only, so C is the kernel's real part plus
    one circulant with column (1/n) cot(m π / n) - K_m0.

    The kernel fills _PANEL columns at a time of one complex buffer,
    which go straight into B and C; the circulant is a strided view of
    the doubled column.  Both matrices are column-major, the layout
    LAPACK factorizes and solves with.  C is written into `out` when it
    is given (an n×n view, such as the leading block of the pencil
    matrix) and returned as that view.
    """
    n = grid.n
    h = 2.0 * np.pi / n
    eta = grid.eta
    bounded = curve.kind is DomainKind.BOUNDED_INTERIOR
    col_factor = (h / np.pi) * grid.eta1
    if bounded:
        a_val = eta - curve.alpha
        col_factor = col_factor / a_val

    shift = np.zeros(n)
    shift[1:] = 1.0 / (n * np.tan(np.arange(1, n) * np.pi / n))
    shift -= _wittich_column(n)
    # Column j of the circulant, shift[(i - j) mod n] over rows i, is window n - j.
    windows = sliding_window_view(np.concatenate((shift, shift)), n)

    b = np.empty((n, n), order="F")
    c = np.empty((n, n), order="F") if out is None else out
    buf = np.empty((min(_PANEL, n), n), dtype=complex)
    for j0 in range(0, n, _PANEL):
        j1 = min(j0 + _PANEL, n)
        # h (M + i N)(t_i, t_j) = A_i (h/π) η'_j / (A_j (η_j - η_i)); kern[j - j0, i].
        kern = buf[: j1 - j0]
        np.subtract(eta[j0:j1, None], eta, out=kern)
        np.fill_diagonal(kern[:, j0:], 1.0)
        np.divide(col_factor[j0:j1, None], kern, out=kern)
        if bounded:
            kern *= a_val
        b.T[j0:j1] = kern.imag
        np.add(windows[n - j0 : n - j1 : -1], kern.real, out=c.T[j0:j1])

    diag = (h / np.pi) * _log_derivative_term(curve, grid.t)
    np.fill_diagonal(b, diag.imag)
    np.fill_diagonal(c, diag.real)
    return b, c


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

    The LU of I - B is dropped once E is solved for.
    """
    grid = build_grid(curve, n)
    b, c = nystrom_matrices(grid, curve)
    i_minus_b = -b  # keeps B's column-major layout
    i_minus_b[np.diag_indices(n)] += 1.0
    try:
        factors = lu_factor(i_minus_b, overwrite_a=True)
    except SingularMatrixError as exc:
        raise DiscretizationError(
            f"(I - B) is singular at n={n}; increase the grid size"
        ) from exc
    return DtnDiscretization(
        curve=curve,
        grid=grid,
        B=b,
        C=c,
        E=-factors.solve(c),
    )


def build_pencil(curve: BoundaryCurve, n: int) -> tuple[Grid, np.ndarray, LUFactors]:
    """Grid, B and the LU of the (n+2)-square Steklov pencil matrix A for (curve, n).

    A = [[C, (I - B) N], [Nᵀ W, 0]] with N = [1, alt], alt_j = (-1)^j,
    and W = diag|η'|; C is written straight into A's column-major
    buffer, which the LU then overwrites (`LUFactors.matvec` applies A).
    """
    grid = build_grid(curve, n)
    a = np.zeros((n + 2, n + 2), order="F")
    b, _ = nystrom_matrices(grid, curve, out=a[:n, :n])
    null = np.column_stack((np.ones(n), (-1.0) ** np.arange(n)))
    a[:n, n:] = null - blas.dgemm(1.0, b, null)
    a[n:, :n] = (null * grid.speed[:, None]).T
    try:
        factors = lu_factor(a, overwrite_a=True)
    except SingularMatrixError as exc:
        raise DiscretizationError(f"the Steklov pencil is singular at n={n}; increase n") from exc
    return grid, b, factors
