"""Harmonic extension of boundary eigenfunction traces into the domain.

A computed mode gives boundary values f(η(t_j)) = γ_j + i μ_j of a
function f analytic in the domain; the eigenfunction is u = Re f.
Domain values come from one trapezoidal Cauchy rule for both kinds,
the compensated (barycentric) ratio

    f(z) = Σ_j f_j w_j / Σ_j w_j,      w_j = a_j / (η(t_j) - z),

whose numerator and denominator share their quadrature error, so the
ratio stays accurate close to the boundary (Helsing & Ojala, J. Comput.
Phys. 227, 2008).  Bounded domains take a_j = η'(t_j): the denominator
is the Cauchy integral of 1.  Exterior domains take
a_j = η'(t_j) / (η(t_j) - β), with β the node mean, which must lie
inside the obstacle.  Then f(ζ) / ((ζ - z)(ζ - β)) is O(1/ζ²) at
infinity and has no pole in the domain besides z, so the clockwise
Cauchy integrals of it and of 1 / ((ζ - z)(ζ - β)) are f(z) / (z - β)
and 1 / (z - β): their ratio is f(z), and f(∞) cancels.

Evaluation points must be finite and lie strictly inside the domain.
Each point is classified once, before any Cauchy sum.  Near points,
closer than the margin 2 (2π/n) max|η'| to a node, are found by hashing
the nodes into cells of the margin's size and looking only at the nodes
in the cells around a point; the side of a near point is the tangent
test at its nearest node (the domain lies to its left for both
orientations).  Every other point lies at least 3/4 margin from the
node polygon, whose edges are at most margin/2 long, so the parity of
the crossings of its horizontal ray with that polygon decides its side
(Hormann & Agathos, Comput. Geom. 20, 2001).  There it agrees with the
true side and with the trapezoidal winding number.  The ``flags`` of a
sample mark exactly the near points, where the side is the tangent
test, and rasters mask them; they do not mark where the rule loses
accuracy.  Anything within 1e-6 of the curve should not be trusted.

Computed modes are extended from n' = min(n, 2 max(P, L) + 2) nodes,
not n.  γ has degree P, and μ = Kγ + (Ê - K̂)γ has degree at most
max(P, L), with L the top frequency of the kernels' band, so truncating
their FFTs and transforming back to n' nodes resamples them exactly.
The rule is limited by how well the data are resolved, not by the grid
(the trapezoidal rule converges geometrically on resolved periodic data:
Trefethen & Weideman, SIAM Rev. 56, 2014), so the fields agree with the
n-node rule to rounding.  Points are still classified on the n nodes,
which keeps the margin, the flags and the raster mask.  A user
`BoundaryFunction` has no known degree and keeps its nodes.

One pass then serves every requested mode, over cache-sized blocks of
`_BLOCK_ENTRIES` weights (174 points for the kite's n' = 188 at n = 512)
that hold kept points only (inside and, for rasters, away from the
boundary).  Per block it builds w once, takes from it the denominator
Σ_j w_j, and each mode's numerator is one gemv.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgemv

from .curves import BoundaryCurve, DomainKind, Grid
from .operators import _sample_grid
from .spectrum import SteklovSpectrum

__all__ = [
    "BoundaryFunction",
    "ExtensionError",
    "FieldSample",
    "RasterField",
    "cauchy_eval",
    "eigenmode_field",
    "mode_boundary_function",
    "raster_field",
]

_BLOCK_ENTRIES = 32_768  # complex weights per block of points: 0.5 MiB


class ExtensionError(ValueError):
    """Invalid evaluation request (points outside the domain, bad mode index, bad data)."""


@dataclass(frozen=True)
class BoundaryFunction:
    """Sampled boundary values f(η(t_j)) = γ(t_j) + i μ(t_j)."""

    grid: Grid
    curve: BoundaryCurve
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape[0] != self.grid.n:
            raise ExtensionError("boundary values and grid size disagree")
        if not np.all(np.isfinite(self.values)):
            raise ExtensionError("boundary values are not finite")


@dataclass(frozen=True)
class FieldSample:
    """Field values at scattered points.

    ``flags`` marks the points closer than the margin to a node, whose
    side is the tangent test there.
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


def _node_weights(bf: BoundaryFunction) -> np.ndarray:
    """a_j of the Cauchy weights w_j = a_j / (η_j - z); see the module docstring.

    Raises
    ------
    ExtensionError
        If the node mean of an exterior curve is not inside the obstacle.
    """
    grid = bf.grid
    if bf.curve.kind is DomainKind.BOUNDED_INTERIOR:
        return grid.eta1
    beta = complex(np.mean(grid.eta))
    a = grid.eta1 / (grid.eta - beta)
    if abs(np.real(np.sum(a) / (1j * grid.n)) + 1.0) >= 0.5:  # a clockwise curve winds -1 round β
        raise ExtensionError(f"the node mean {beta} is not inside the obstacle")
    return a


def _extend(bfs: list[BoundaryFunction], z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Values of boundary functions on one grid at the points z[rows], NaN elsewhere.

    ``values[i]`` extends ``bfs[i]``; every row must be strictly inside the domain.
    """
    grid = bfs[0].grid
    a = _node_weights(bfs[0])
    values = np.full((len(bfs), len(z)), np.nan, dtype=complex)
    chunk = max(1, min(len(rows), _BLOCK_ENTRIES // grid.n))  # points per cache-sized block
    block = np.empty((chunk, grid.n), dtype=complex)  # one buffer: differences become w in place
    for lo in range(0, len(rows), chunk):
        rc = rows[lo : lo + chunk]
        w = np.subtract(grid.eta, z[rc, None], out=block[: len(rc)])
        np.divide(a, w, out=w)
        total = w.sum(axis=1)
        # a gemv per function, as the columns of one BLAS product can change in the last
        # bit with their number and a mode must not depend on the others; zgemv even for
        # one row, where matmul takes a dot product, so block size changes no bit
        for out, bf in zip(values, bfs):
            out[rc] = zgemv(1.0, w.T, bf.values, trans=1) / total
    return values


def cauchy_eval(bf: BoundaryFunction, z: np.ndarray) -> FieldSample:
    """Evaluate the analytic extension at points strictly inside the domain.

    Raises
    ------
    ExtensionError
        If any point is not finite or lies outside the domain (by the
        side test of the module docstring), or if the node mean of an
        exterior curve is not inside the obstacle.
    """
    return _samples(bf.grid, [bf], z)[0]


def _samples(grid: Grid, bfs: list[BoundaryFunction], z: np.ndarray) -> list[FieldSample]:
    """Samples of ``bfs`` at z, the points classified on ``grid``."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    inside, near = _classify(grid, z, bfs[0].curve.kind is DomainKind.BOUNDED_INTERIOR)
    if not np.all(inside):
        raise ExtensionError(f"point {z[~inside][0]} is not strictly inside the domain")
    values = _extend(bfs, z, np.arange(len(z)))
    return [FieldSample(points=z, values=v, u=v.real, flags=near) for v in values]


def mode_boundary_function(spectrum: SteklovSpectrum, j: int) -> BoundaryFunction:
    """Boundary values γ_j + i μ_j of eigenmode j (1-based, j = 1..k)."""
    if not 1 <= j <= spectrum.k:
        raise ExtensionError(
            f"mode index {j} out of range 1..{spectrum.k} (the two zero modes are not extendable)"
        )
    values = spectrum.traces[:, j - 1] + 1j * spectrum.conjugates[:, j - 1]
    return BoundaryFunction(grid=spectrum.grid, curve=spectrum.curve, values=values)


def _mode_functions(spectrum: SteklovSpectrum, j) -> list[BoundaryFunction]:
    """Modes j resampled exactly on the n' nodes that resolve them; see the module docstring."""
    bfs = [mode_boundary_function(spectrum, int(i)) for i in np.atleast_1d(j)]
    n = spectrum.n
    m = min(n, 2 * max(spectrum.degree, (spectrum.band_size - 1) // 2) + 2)
    if m == n:
        return bfs
    grid = _sample_grid(spectrum.curve, m)

    def resample(x: np.ndarray) -> np.ndarray:  # bins 0 .. m/2 - 1; m's Nyquist bin is empty
        return np.fft.irfft(np.fft.rfft(x, norm="forward")[: m // 2], m, norm="forward")

    return [
        BoundaryFunction(grid=grid, curve=spectrum.curve,
                         values=resample(bf.values.real) + 1j * resample(bf.values.imag))
        for bf in bfs
    ]


def eigenmode_field(
    spectrum: SteklovSpectrum, j: int | Sequence[int], points: np.ndarray
) -> FieldSample | list[FieldSample]:
    """Eigenfunction values u_j(z) = Re f_j(z) at explicit points.

    For a sequence of mode indices, one sample per mode from one pass
    over the points.
    """
    samples = _samples(spectrum.grid, _mode_functions(spectrum, j), points)
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
