"""Harmonic extension of boundary eigenfunction traces into the domain.

A computed mode gives boundary values f(η(t_j)) = γ_j + i μ_j of a
function f analytic in the domain; the eigenfunction is u = Re f.
Interior values come from the trapezoidal Cauchy integral.

Bounded domains use the compensated (normalized) rule

    f(z) = Σ_j f_j w_j / Σ_j w_j,      w_j = η'(t_j) / (η(t_j) - z),

which cancels the common quadrature error of numerator and
denominator and keeps accuracy moderately close to the boundary.

Exterior domains (clockwise parametrization) use

    f(z) = c + (1/2πi) (2π/n) Σ_j (f_j - c) η'(t_j) / (η(t_j) - z),

where c = f(∞) is recovered from the boundary data by

    c = -(1/2πi) (2π/n) Σ_j f_j η'(t_j) / (η(t_j) - β)

for any β strictly inside the bounded complement.

Evaluation points must lie strictly inside the domain (winding number
1 for bounded domains, 0 for exterior ones).  Accuracy of the
quadrature degrades within ~one grid spacing of the boundary; samples
closer than 2 (2π/n) max|η'| to the curve are flagged rather than
silently returned, and anything within 1e-6 of the curve should not
be trusted at all.  There the trapezoidal winding number is unreliable
too, so the side is decided by the tangent at the nearest node (the
domain lies to its left for both orientations).

One pass serves every requested mode, over cache-sized blocks of
`_BLOCK_ENTRIES` weights (64 points at n = 512).  Per block it builds
w once and takes from it the winding number Re Σ_j w_j / (in), the
near-boundary mask and the denominator Σ_j w_j; the Cauchy sums of each
mode are taken only on the rows of kept points (inside and, for
rasters, away from the boundary).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgemv

from .curves import BoundaryCurve, DomainKind, Grid
from .spectrum import SteklovSpectrum

__all__ = [
    "BoundaryFunction",
    "ExtensionError",
    "FieldSample",
    "RasterField",
    "cauchy_eval",
    "eigenmode_field",
    "estimate_f_infinity",
    "mode_boundary_function",
    "raster_field",
]

_F_INFINITY_IMAG_TOL = 1e-8
_BLOCK_ENTRIES = 32_768  # complex weights per block of points: 0.5 MiB


class ExtensionError(ValueError):
    """Invalid evaluation request (points outside the domain, bad mode index)."""


@dataclass(frozen=True)
class BoundaryFunction:
    """Sampled boundary values f(η(t_j)) = γ(t_j) + i μ(t_j).

    For exterior domains `f_infinity` holds the (real) value of f at
    infinity; it is required by the exterior Cauchy rule.
    """

    grid: Grid
    curve: BoundaryCurve
    values: np.ndarray
    f_infinity: complex | None = None

    def __post_init__(self) -> None:
        if self.values.shape[0] != self.grid.n:
            raise ExtensionError("boundary values and grid size disagree")
        if self.curve.kind is DomainKind.UNBOUNDED_EXTERIOR and self.f_infinity is not None:
            if abs(complex(self.f_infinity).imag) > _F_INFINITY_IMAG_TOL:
                raise ExtensionError(
                    f"Im f(∞) = {complex(self.f_infinity).imag:.3g} exceeds {_F_INFINITY_IMAG_TOL:g}; "
                    "boundary data is not the trace of an admissible analytic function"
                )


@dataclass(frozen=True)
class FieldSample:
    """Field values at scattered points.

    ``flags`` marks points too close to the boundary for the stated
    quadrature accuracy.
    """

    points: np.ndarray
    values: np.ndarray
    u: np.ndarray
    flags: np.ndarray


@dataclass(frozen=True)
class RasterField:
    """Eigenfunction raster on a bounding-box grid, NaN outside the domain."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    flags: np.ndarray


def _extend(
    bfs: list[BoundaryFunction], z: np.ndarray, keep_near: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inside, near, values) of boundary functions on one grid at points z.

    ``values[i]`` extends ``bfs[i]`` to the inside points (without the
    near ones unless ``keep_near``) and is NaN elsewhere.
    """
    grid = bfs[0].grid
    bounded = bfs[0].curve.kind is DomainKind.BOUNDED_INTERIOR
    margin = 2.0 * (2.0 * np.pi / grid.n) * float(np.max(grid.speed))
    inside = np.empty(z.shape, dtype=bool)
    near = np.empty(z.shape, dtype=bool)
    values = np.full((len(bfs), len(z)), np.nan, dtype=complex)
    chunk = max(1, min(len(z), _BLOCK_ENTRIES // grid.n))  # points per cache-sized block
    # one buffer pair for every block: the differences become w in place
    block, dist = np.empty((chunk, grid.n), dtype=complex), np.empty((chunk, grid.n))
    for lo in range(0, len(z), chunk):
        zc = z[lo : lo + chunk]
        w = np.subtract(grid.eta, zc[:, None], out=block[: len(zc)])
        jmin = np.argmin(np.abs(w, out=dist[: len(zc)]), axis=1)
        near_c = dist[np.arange(len(zc)), jmin] < margin
        np.divide(grid.eta1, w, out=w)
        total = w.sum(axis=1)
        winding = np.real(total / (1j * grid.n))
        left = np.imag(np.conj(grid.eta1[jmin]) * (zc - grid.eta[jmin])) > 0.0
        inside_c = np.where(near_c, left, np.abs(winding - (1.0 if bounded else 0.0)) < 0.5)
        inside[lo : lo + chunk] = inside_c
        near[lo : lo + chunk] = near_c
        rows = np.flatnonzero(inside_c if keep_near else inside_c & ~near_c)
        if rows.size == 0:
            continue  # zgemv rejects an empty matrix
        kept = w[rows].T  # nodes x kept points: the products skip discarded points
        # a gemv per function, as the columns of one BLAS product can change in the last
        # bit with their number and a mode must not depend on the others; zgemv even for
        # one kept row, where matmul takes a dot product, so block size changes no bit
        for out, bf in zip(values[:, lo : lo + chunk], bfs):
            if bounded:
                out[rows] = zgemv(1.0, kept, bf.values, trans=1) / total[rows]
            else:
                c = complex(bf.f_infinity)
                out[rows] = c + zgemv(1.0, kept, bf.values - c, trans=1) / (1j * grid.n)
    return inside, near, values


def cauchy_eval(bf: BoundaryFunction, z: np.ndarray) -> FieldSample:
    """Evaluate the analytic extension at points strictly inside the domain.

    Raises
    ------
    ExtensionError
        If any point lies outside the domain (by winding number), or
        if the exterior rule is invoked without ``f_infinity``.
    """
    return _samples([bf], z)[0]


def _samples(bfs: list[BoundaryFunction], z: np.ndarray) -> list[FieldSample]:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if bfs[0].curve.kind is DomainKind.UNBOUNDED_EXTERIOR and bfs[0].f_infinity is None:
        raise ExtensionError("exterior evaluation requires f_infinity (see estimate_f_infinity)")
    inside, near, values = _extend(bfs, z, keep_near=True)
    if not np.all(inside):
        raise ExtensionError(f"point {z[~inside][0]} is not strictly inside the domain")
    return [FieldSample(points=z, values=v, u=v.real, flags=near) for v in values]


def estimate_f_infinity(bf: BoundaryFunction, beta: complex | None = None) -> complex:
    """Value of f at infinity from exterior boundary data.

    β must lie strictly inside the bounded complement; it defaults to
    the parametrization mean, which is interior for all builtin
    curves.  For admissible boundary data the result is real up to
    rounding.
    """
    if bf.curve.kind is not DomainKind.UNBOUNDED_EXTERIOR:
        raise ExtensionError("f(∞) is defined for exterior domains only")
    grid = bf.grid
    if beta is None:
        beta = complex(np.mean(grid.eta))
    beta = complex(beta)
    w = float(np.real(np.sum(grid.eta1 / (grid.eta - beta)) / (1j * grid.n)))
    if abs(w + 1.0) > 0.5:  # clockwise curve encloses the complement with winding -1
        raise ExtensionError(f"beta={beta} is not strictly inside the bounded complement")
    return complex(-np.sum(bf.values * grid.eta1 / (grid.eta - beta)) / (1j * grid.n))


def mode_boundary_function(
    spectrum: SteklovSpectrum, j: int, beta: complex | None = None
) -> BoundaryFunction:
    """Boundary values γ_j + i μ_j of eigenmode j (1-based, j = 1..k).

    For exterior domains f(∞) is estimated from the trace data.
    """
    if not 1 <= j <= spectrum.k:
        raise ExtensionError(
            f"mode index {j} out of range 1..{spectrum.k} (the two zero modes are not extendable)"
        )
    values = spectrum.traces[:, j - 1] + 1j * spectrum.conjugates[:, j - 1]
    bf = BoundaryFunction(grid=spectrum.grid, curve=spectrum.curve, values=values)
    if spectrum.curve.kind is DomainKind.UNBOUNDED_EXTERIOR:
        c = estimate_f_infinity(bf, beta=beta)
        bf = BoundaryFunction(
            grid=spectrum.grid, curve=spectrum.curve, values=values, f_infinity=c
        )
    return bf


def _mode_functions(spectrum: SteklovSpectrum, j, beta) -> list[BoundaryFunction]:
    return [mode_boundary_function(spectrum, int(i), beta=beta) for i in np.atleast_1d(j)]


def eigenmode_field(
    spectrum: SteklovSpectrum,
    j: int | Sequence[int],
    points: np.ndarray,
    beta: complex | None = None,
) -> FieldSample | list[FieldSample]:
    """Eigenfunction values u_j(z) = Re f_j(z) at explicit points.

    For a sequence of mode indices, one sample per mode from one pass
    over the points.
    """
    samples = _samples(_mode_functions(spectrum, j, beta), points)
    return samples if np.ndim(j) else samples[0]


def raster_field(
    spectrum: SteklovSpectrum,
    j: int | Sequence[int],
    nx: int,
    ny: int | None = None,
    pad: float = 0.05,
    beta: complex | None = None,
) -> RasterField | list[RasterField]:
    """Eigenfunction on a bounding-box raster, NaN outside the domain.

    The box is the boundary's bounding box expanded by `pad` times its
    extent (exterior domains get a full extra extent so the field
    around the obstacle is visible).  Points outside the domain or
    within the near-boundary margin are masked.  For a sequence of mode
    indices, one field per mode from one pass over the raster; the
    fields share x, y and the flags.
    """
    if ny is None:
        ny = nx
    bfs = _mode_functions(spectrum, j, beta)
    grid = spectrum.grid

    xs_b, ys_b = grid.eta.real, grid.eta.imag
    if spectrum.curve.kind is DomainKind.UNBOUNDED_EXTERIOR:
        pad = max(pad, 1.0)
    dx = (xs_b.max() - xs_b.min()) * pad
    dy = (ys_b.max() - ys_b.min()) * pad
    x = np.linspace(xs_b.min() - dx, xs_b.max() + dx, nx)
    y = np.linspace(ys_b.min() - dy, ys_b.max() + dy, ny)
    zz = (x[None, :] + 1j * y[:, None]).ravel()

    inside, near, values = _extend(bfs, zz, keep_near=False)
    flags = (inside & near).reshape(ny, nx)
    fields = [RasterField(x=x, y=y, u=v.real.reshape(ny, nx), flags=flags) for v in values]
    return fields if np.ndim(j) else fields[0]
