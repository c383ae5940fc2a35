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

Evaluation points must be finite and lie strictly inside the domain.
Accuracy of the quadrature degrades within ~one grid spacing of the
boundary: samples closer than the margin 2 (2π/n) max|η'| to the
nearest node are flagged rather than silently returned, and anything
within 1e-6 of the curve should not be trusted at all.

Each point is classified once, before any Cauchy sum.  Near points are
found by hashing the nodes into cells of the margin's size and looking
only at the nodes in the cells around a point; the side of a near point
is the tangent test at its nearest node (the domain lies to its left
for both orientations).  Every other point lies at least 3/4 margin
from the node polygon, whose edges are at most margin/2 long, so the
parity of the crossings of its horizontal ray with that polygon decides
its side (Hormann & Agathos, Comput. Geom. 20, 2001).  There it agrees
with the true side and with the trapezoidal winding number.

One pass then serves every requested mode, over cache-sized blocks of
`_BLOCK_ENTRIES` weights (64 points at n = 512) that hold kept points
only (inside and, for rasters, away from the boundary).  Per block it
builds w once, takes from it the bounded rule's denominator Σ_j w_j,
and each mode's numerator is one gemv.
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


def _pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every i and every lo[i] <= j < hi[i]."""
    counts = hi - lo
    i = np.repeat(np.arange(len(lo)), counts)
    return i, np.arange(len(i)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def _classify(grid: Grid, z: np.ndarray, bounded: bool) -> tuple[np.ndarray, np.ndarray]:
    """(inside, near) of the points z, by the node cells and the crossing parity.

    ``near`` marks a node closer than the margin; see the module docstring.

    Raises
    ------
    ExtensionError
        If a point is not finite.
    """
    finite = np.isfinite(z)
    if not np.all(finite):
        raise ExtensionError(f"point {z[~finite][0]} is not finite")
    eta = grid.eta
    margin = 2.0 * (2.0 * np.pi / grid.n) * float(np.max(grid.speed))
    # Each node goes into its cell and the 8 around it, so a point finds every node
    # closer than the margin in its own cell.  The cells are a hair wider than the
    # margin, so rounding in a cell index loses no such node.  Keys are exact integers.
    cell = margin * (1.0 + 1e-6)
    x0, y0 = eta.real.min() - margin, eta.imag.min() - margin
    x1, y1 = eta.real.max() + margin, eta.imag.max() + margin
    width = np.floor((y1 - y0) / cell) + 3  # cells per column, with one beside each end
    cx, cy = np.floor((eta.real - x0) / cell), np.floor((eta.imag - y0) / cell)
    keys = np.concatenate([(cx + i) * width + cy + j for i in (0, 1, 2) for j in (0, 1, 2)])
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], order % grid.n
    # edges of the node polygon from their lower end a to their upper end b
    succ = np.roll(eta, -1)
    up = eta.imag > succ.imag
    a, b = np.where(up, succ, eta), np.where(up, eta, succ)
    d = b - a

    inside = np.empty(z.shape, dtype=bool)
    near = np.zeros(z.shape, dtype=bool)
    chunk = max(1, _BLOCK_ENTRIES // 32)  # points per block: its temporaries stay below w's
    for lo in range(0, len(z), chunk):
        zc = z[lo : lo + chunk]
        inside_c, near_c = inside[lo : lo + chunk], near[lo : lo + chunk]
        box = np.flatnonzero((zc.real >= x0) & (zc.real <= x1) & (zc.imag >= y0) & (zc.imag <= y1))
        zb = zc[box]
        key = (np.floor((zb.real - x0) / cell) + 1) * width + np.floor((zb.imag - y0) / cell) + 1
        pt, pos = _pairs(np.searchsorted(keys, key, "left"), np.searchsorted(keys, key, "right"))
        node = owner[pos]
        dist = np.abs(eta[node] - zb[pt])  # as |η_j - z| over all nodes would give
        close = dist < margin
        pt, node, dist = pt[close], node[close], dist[close]
        first = np.lexsort((node, dist, pt))  # nearest node first, the lowest index on a tie
        first = first[np.unique(pt[first], return_index=True)[1]]
        jmin, hit = node[first], box[pt[first]]
        near_c[hit] = True
        inside_c[hit] = np.imag(np.conj(grid.eta1[jmin]) * (zc[hit] - eta[jmin])) > 0.0
        # other points: crossings of the ray to +x with the edges whose half-open
        # y-range [a, b) holds the point; a horizontal edge holds none
        far = np.flatnonzero(~near_c)
        far = far[np.argsort(zc[far].imag, kind="stable")]
        ys = zc[far].imag
        edge, pos = _pairs(np.searchsorted(ys, a.imag, "left"),
                           np.searchsorted(ys, b.imag, "left"))
        p, de = zc[far[pos]] - a[edge], d[edge]
        odd = np.bincount(pos[de.real * p.imag > de.imag * p.real], minlength=len(far)) % 2 == 1
        inside_c[far] = odd if bounded else ~odd
    return inside, near


def _extend(bfs: list[BoundaryFunction], z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Values of boundary functions on one grid at the points z[rows], NaN elsewhere.

    ``values[i]`` extends ``bfs[i]``; every row must be strictly inside the domain.
    """
    grid = bfs[0].grid
    bounded = bfs[0].curve.kind is DomainKind.BOUNDED_INTERIOR
    values = np.full((len(bfs), len(z)), np.nan, dtype=complex)
    chunk = max(1, min(len(rows), _BLOCK_ENTRIES // grid.n))  # points per cache-sized block
    block = np.empty((chunk, grid.n), dtype=complex)  # one buffer: differences become w in place
    for lo in range(0, len(rows), chunk):
        rc = rows[lo : lo + chunk]
        w = np.subtract(grid.eta, z[rc, None], out=block[: len(rc)])
        np.divide(grid.eta1, w, out=w)
        total = w.sum(axis=1) if bounded else None
        # a gemv per function, as the columns of one BLAS product can change in the last
        # bit with their number and a mode must not depend on the others; zgemv even for
        # one row, where matmul takes a dot product, so block size changes no bit
        for out, bf in zip(values, bfs):
            if bounded:
                out[rc] = zgemv(1.0, w.T, bf.values, trans=1) / total
            else:
                c = complex(bf.f_infinity)
                out[rc] = c + zgemv(1.0, w.T, bf.values - c, trans=1) / (1j * grid.n)
    return values


def cauchy_eval(bf: BoundaryFunction, z: np.ndarray) -> FieldSample:
    """Evaluate the analytic extension at points strictly inside the domain.

    Raises
    ------
    ExtensionError
        If any point is not finite or lies outside the domain (by the
        side test of the module docstring), or if the exterior rule is
        invoked without ``f_infinity``.
    """
    return _samples([bf], z)[0]


def _samples(bfs: list[BoundaryFunction], z: np.ndarray) -> list[FieldSample]:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if bfs[0].curve.kind is DomainKind.UNBOUNDED_EXTERIOR and bfs[0].f_infinity is None:
        raise ExtensionError("exterior evaluation requires f_infinity (see estimate_f_infinity)")
    inside, near = _classify(bfs[0].grid, z, bfs[0].curve.kind is DomainKind.BOUNDED_INTERIOR)
    if not np.all(inside):
        raise ExtensionError(f"point {z[~inside][0]} is not strictly inside the domain")
    values = _extend(bfs, z, np.arange(len(z)))
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


def mode_boundary_function(spectrum: SteklovSpectrum, j: int) -> BoundaryFunction:
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
        c = estimate_f_infinity(bf)
        bf = BoundaryFunction(
            grid=spectrum.grid, curve=spectrum.curve, values=values, f_infinity=c
        )
    return bf


def _mode_functions(spectrum: SteklovSpectrum, j) -> list[BoundaryFunction]:
    return [mode_boundary_function(spectrum, int(i)) for i in np.atleast_1d(j)]


def eigenmode_field(
    spectrum: SteklovSpectrum, j: int | Sequence[int], points: np.ndarray
) -> FieldSample | list[FieldSample]:
    """Eigenfunction values u_j(z) = Re f_j(z) at explicit points.

    For a sequence of mode indices, one sample per mode from one pass
    over the points.
    """
    samples = _samples(_mode_functions(spectrum, j), points)
    return samples if np.ndim(j) else samples[0]


def raster_field(
    spectrum: SteklovSpectrum, j: int | Sequence[int], nx: int
) -> RasterField | list[RasterField]:
    """Eigenfunction on an nx × nx bounding-box raster, NaN outside the domain.

    The box is the boundary's bounding box expanded by 0.05 times its
    extent (exterior domains get a full extra extent so the field
    around the obstacle is visible).  Points outside the domain or
    within the near-boundary margin are masked.  For a sequence of mode
    indices, one field per mode from one pass over the raster; the
    fields share x, y and the flags.
    """
    bfs = _mode_functions(spectrum, j)
    grid = spectrum.grid

    xs_b, ys_b = grid.eta.real, grid.eta.imag
    pad = 1.0 if spectrum.curve.kind is DomainKind.UNBOUNDED_EXTERIOR else 0.05
    dx = (xs_b.max() - xs_b.min()) * pad
    dy = (ys_b.max() - ys_b.min()) * pad
    x = np.linspace(xs_b.min() - dx, xs_b.max() + dx, nx)
    y = np.linspace(ys_b.min() - dy, ys_b.max() + dy, nx)
    zz = (x[None, :] + 1j * y[:, None]).ravel()

    inside, near = _classify(grid, zz, spectrum.curve.kind is DomainKind.BOUNDED_INTERIOR)
    values = _extend(bfs, zz, np.flatnonzero(inside & ~near))
    flags = (inside & near).reshape(nx, nx)
    fields = [RasterField(x=x, y=y, u=v.real.reshape(nx, nx), flags=flags) for v in values]
    return fields if np.ndim(j) else fields[0]
