import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.blas import zgemv

import steklov.extension
from generated_curves import trig_curve
from steklov import BoundaryCurve, DomainKind, builtin_families, make_builtin, solve_spectrum
from steklov.curves import Grid, build_grid
from steklov.extension import (
    BoundaryFunction,
    ExtensionError,
    cauchy_eval,
    eigenmode_field,
    mode_boundary_function,
    raster_field,
)
from steklov.extension import _classify, _mode_functions
from steklov.operators import build_dtn


def boundary_data(curve, n, f):
    """BoundaryFunction from explicit analytic boundary values."""
    disc = build_dtn(curve, n)
    return BoundaryFunction(grid=disc.grid, curve=curve, values=f(disc.grid.eta))


# ---------------------------------------------------------------------------
# Cauchy evaluation
# ---------------------------------------------------------------------------

def test_identity_function_on_disk(disk):
    bf = boundary_data(disk, 64, lambda z: z)
    sample = cauchy_eval(bf, np.array([0.3 + 0.4j]))
    assert abs(sample.values[0] - (0.3 + 0.4j)) <= 1e-13
    assert sample.u[0] == pytest.approx(0.3, abs=1e-13)
    assert not sample.flags[0]


def test_polynomial_on_g1(g1_curve):
    bf = boundary_data(g1_curve, 256, lambda z: (z - 8.0) ** 2)
    sample = cauchy_eval(bf, np.array([8.0 + 2.0j]))
    assert abs(sample.values[0] - (-4.0)) <= 1e-10


def test_reciprocal_on_exterior_circle():
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    bf = boundary_data(ext, 64, lambda z: 1.0 / z)
    sample = cauchy_eval(bf, np.array([2.0 + 0.0j]))
    assert abs(sample.values[0] - 0.5) <= 1e-12


@pytest.mark.parametrize("degree", range(9))
def test_polynomial_reproduction_bounded(degree):
    curve = make_builtin("ellipse", {"r": 2.0})
    bf = boundary_data(curve, 256, lambda z: (z - 0.1) ** degree)
    pts = 0.35 * np.exp(1j * np.linspace(0.1, 5.9, 7)) + 0.05j
    sample = cauchy_eval(bf, pts)
    assert np.max(np.abs(sample.values - (pts - 0.1) ** degree)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rational_reproduction_exterior(kite_exterior, m):
    beta = -0.2 + 0.1j  # pole strictly inside the bounded complement
    bf = boundary_data(kite_exterior, 256, lambda z: (z - beta) ** (-m))
    pts = np.array([4.0 + 3.0j, -5.0 - 1.0j, 0.1 - 6.0j])
    sample = cauchy_eval(bf, pts)
    assert np.max(np.abs(sample.values - (pts - beta) ** (-m))) <= 1e-12


def test_points_outside_domain_rejected(disk):
    bf = boundary_data(disk, 64, lambda z: z)
    with pytest.raises(ExtensionError):
        cauchy_eval(bf, np.array([1.5 + 0.0j]))
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    bf_ext = boundary_data(ext, 64, lambda z: 1.0 / z)
    with pytest.raises(ExtensionError):
        cauchy_eval(bf_ext, np.array([0.2 + 0.1j]))


def test_near_boundary_points_flagged(disk):
    bf = boundary_data(disk, 64, lambda z: z)
    margin_point = np.array([(1.0 - 0.05 * 2 * np.pi / 64) + 0.0j])
    sample = cauchy_eval(bf, margin_point)
    assert sample.flags[0]


def test_mean_value_property_on_disk(disk, rng):
    disc = build_dtn(disk, 64)
    t = disc.grid.t
    gamma = sum(rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t) for k in range(1, 6))
    gamma = gamma + 0.7
    mu = disc.E @ gamma
    bf = BoundaryFunction(grid=disc.grid, curve=disk, values=gamma + 1j * mu)
    sample = cauchy_eval(bf, np.array([0.0 + 0.0j]))
    assert sample.u[0] == pytest.approx(np.mean(gamma), abs=1e-12)


# ---------------------------------------------------------------------------
# One Cauchy rule for both kinds
# ---------------------------------------------------------------------------

def off_boundary_points(grid, d):
    """Points d local spacings (2π/n)|η'_j| off every node, left of η' (into the domain)."""
    return grid.eta + d * (2 * np.pi / grid.n) * 1j * grid.eta1


@pytest.mark.parametrize("n", [128, 256, 512])
def test_exterior_rule_is_accurate_near_boundary(kite_exterior, n):
    b0 = -0.3 + 0.05j  # inside the kite obstacle
    bf = boundary_data(kite_exterior, n, lambda z: 5.0 + 1.0 / (z - b0) + 0.3 / (z - b0) ** 3)
    for d in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        z = off_boundary_points(bf.grid, d)
        exact = 5.0 + 1.0 / (z - b0) + 0.3 / (z - b0) ** 3
        assert np.max(np.abs(cauchy_eval(bf, z).values - exact)) <= 1e-13, d


@pytest.mark.parametrize("kind", list(DomainKind), ids=lambda k: k.value)
@pytest.mark.parametrize("seed", range(12))  # the seeds of tests/test_spectrum.py
def test_rule_is_accurate_near_generated_curves(seed, kind):
    curve = trig_curve(seed, kind)
    grid = build_grid(curve, 256)
    c0 = np.mean(grid.eta)  # the curve's centre c₀, inside it
    if kind is DomainKind.BOUNDED_INTERIOR:
        def f(z):
            return np.exp(z - c0)
    else:
        def f(z):
            return 2.0 + 1.0 / (z - c0) ** 2
    bf = BoundaryFunction(grid=grid, curve=curve, values=f(grid.eta))
    for d in (0.5, 1.0, 2.0, 4.0):
        z = off_boundary_points(grid, d)
        assert np.max(np.abs(cauchy_eval(bf, z).values - f(z))) <= 1e-12, d


def crescent():
    """A clockwise banana r = 1 + 0.3 cos t, θ = -2.5 sin t, whose node mean lies outside it."""
    def eta(t):
        return (1.0 + 0.3 * np.cos(t)) * np.exp(-2.5j * np.sin(t))

    def eta1(t):
        return (-0.3 * np.sin(t) - 2.5j * (1.0 + 0.3 * np.cos(t)) * np.cos(t)) * np.exp(
            -2.5j * np.sin(t)
        )

    def eta2(t):
        r, r1, r2 = 1.0 + 0.3 * np.cos(t), -0.3 * np.sin(t), -0.3 * np.cos(t)
        th1, th2 = -2.5 * np.cos(t), 2.5 * np.sin(t)
        return (r2 + 2j * r1 * th1 + 1j * r * th2 - r * th1**2) * np.exp(-2.5j * np.sin(t))

    return BoundaryCurve(
        name="crescent", eta=eta, eta1=eta1, eta2=eta2, kind=DomainKind.UNBOUNDED_EXTERIOR
    )


def test_exterior_rule_rejects_node_mean_outside_obstacle():
    curve = crescent()
    grid = build_grid(curve, 128)
    assert abs(np.mean(grid.eta)) < 0.7  # the crescent lies in 0.7 <= |z| <= 1.3
    bf = BoundaryFunction(grid=grid, curve=curve, values=1.0 / (grid.eta - 1.0))
    with pytest.raises(ExtensionError, match="not inside the obstacle"):
        cauchy_eval(bf, np.array([5.0 + 0.0j]))


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"]
)
def test_non_finite_boundary_values_rejected(kite_exterior, bad):
    grid = build_grid(kite_exterior, 64)
    values = np.ones(64, dtype=complex)
    values[7] = bad
    with pytest.raises(ExtensionError, match="not finite"):
        BoundaryFunction(grid=grid, curve=kite_exterior, values=values)


# ---------------------------------------------------------------------------
# Eigenmode fields
# ---------------------------------------------------------------------------

def fit_linear_mode(spec):
    """Phase and amplitude of a first-harmonic boundary trace."""
    c1 = np.fft.ifft(spec.traces[:, 0])[1]
    return 2 * abs(c1), np.angle(c1)


def test_disk_first_mode_is_linear(disk, rng):
    spec = solve_spectrum(disk, 64, 4)
    amp, phi = fit_linear_mode(spec)
    assert amp == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-12)
    pts = 0.8 * np.sqrt(rng.uniform(0.05, 1.0, 25)) * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    sample = eigenmode_field(spec, 1, pts)
    predicted = amp * np.real(pts * np.exp(-1j * phi))
    assert np.max(np.abs(sample.u - predicted)) <= 1e-10


def test_zero_mode_field_rejected(disk):
    spec = solve_spectrum(disk, 64, 4)
    with pytest.raises(ExtensionError):
        eigenmode_field(spec, 0, np.array([0.1 + 0.1j]))
    with pytest.raises(ExtensionError):
        eigenmode_field(spec, 5, np.array([0.1 + 0.1j]))


def test_boundary_limit_matches_trace(kite_bounded):
    spec = solve_spectrum(kite_bounded, 512, 3)
    grid = spec.grid
    j = 17
    normal = -1j * grid.eta1[j] / abs(grid.eta1[j])
    z = grid.eta[j] - 1e-3 * normal
    sample = cauchy_eval(mode_boundary_function(spec, 1), np.array([z]))
    assert abs(sample.u[0] - spec.traces[j, 0]) <= 5e-3


def test_field_is_discretely_harmonic(kite_bounded):
    spec = solve_spectrum(kite_bounded, 256, 2)
    bf = mode_boundary_function(spec, 1)
    z0 = -0.2 + 0.1j
    defects = {}
    for h in (0.02, 0.01):
        stencil = np.array([z0, z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h])
        u = cauchy_eval(bf, stencil).u
        defects[h] = abs(u[1] + u[2] + u[3] + u[4] - 4 * u[0]) / h**2
    # five-point Laplacian defect of a harmonic field scales like h^2
    ratio = defects[0.02] / defects[0.01]
    assert 2.0 < ratio < 8.0


def test_exterior_mode_field_tends_to_constant(kite_exterior):
    spec = solve_spectrum(kite_exterior, 256, 2)
    bf = mode_boundary_function(spec, 1)
    # the mean over a circle of radius 1e4 is f(∞) up to O(1e4^-8); it must be real
    circle = 1e4 * np.exp(2j * np.pi * np.arange(8) / 8)
    c = np.mean(cauchy_eval(bf, circle).values)
    assert abs(c.imag) <= 1e-8
    # f - f(∞) decays like 1/|z|: |z| |f(z) - f(∞)| is the same at |z| = 250 and 2500
    for u in np.exp(1j * np.array([0.0, 0.6435, 2.0])):
        r = np.array([250.0, 2500.0])
        decay = r * np.abs(cauchy_eval(bf, r * u).values - c)
        assert decay[1] > 0 and abs(decay[0] / decay[1] - 1) <= 1e-2


def test_raster_field_masks_outside(disk):
    spec = solve_spectrum(disk, 64, 2)
    ras = raster_field(spec, 1, 21)
    assert ras.u.shape == (21, 21)
    xx, yy = np.meshgrid(ras.x, ras.y)
    rr = np.hypot(xx, yy)
    assert np.all(np.isnan(ras.u[rr > 1.0]))
    interior = rr < 0.7
    assert np.all(np.isfinite(ras.u[interior]))


def test_raster_field_exterior(kite_exterior):
    spec = solve_spectrum(kite_exterior, 128, 2)
    ras = raster_field(spec, 1, 24)
    assert np.any(np.isfinite(ras.u))
    assert np.any(np.isnan(ras.u))  # obstacle interior masked


@pytest.mark.parametrize(
    "curve, n",
    [("kite_bounded", 128), ("kite_exterior", 128), ("disk", 64)],
)
def test_raster_field_many_modes_match_single_calls(curve, n, request):
    spec = solve_spectrum(request.getfixturevalue(curve), n, 4)
    fields = raster_field(spec, [1, 2, 3, 4], 24)
    assert len(fields) == 4
    for j, ras in enumerate(fields, start=1):
        single = raster_field(spec, j, 24)
        assert ras.x is fields[0].x and ras.y is fields[0].y and ras.flags is fields[0].flags
        assert np.array_equal(ras.x, single.x) and np.array_equal(ras.y, single.y)
        assert np.array_equal(ras.flags, single.flags)
        assert np.array_equal(ras.u, single.u, equal_nan=True)
        # usable raster points agree with the public point evaluator
        usable = np.isfinite(ras.u)
        zz = (ras.x[None, :] + 1j * ras.y[:, None])[usable]
        u = cauchy_eval(mode_boundary_function(spec, j), zz).u
        assert np.max(np.abs(u - ras.u[usable])) <= 1e-13 * np.max(np.abs(u))


def test_eigenmode_field_many_modes_match_single_calls(kite_exterior):
    spec = solve_spectrum(kite_exterior, 128, 3)
    pts = np.array([2.0 + 1.0j, -3.0 + 0.5j, 0.1 - 2.5j])
    samples = eigenmode_field(spec, (1, 3), pts)
    for j, sample in zip((1, 3), samples):
        single = eigenmode_field(spec, j, pts)
        assert np.array_equal(sample.values, single.values)
        assert np.array_equal(sample.flags, single.flags)
    with pytest.raises(ExtensionError):
        eigenmode_field(spec, [1, 2], np.array([0.0 + 0.0j]))  # inside the obstacle


@pytest.mark.parametrize("curve", ["kite_bounded", "kite_exterior"])
def test_block_size_does_not_change_fields(curve, request, monkeypatch):
    spec = solve_spectrum(request.getfixturevalue(curve), 256, 4)  # n' = 190 < n for both kinds
    modes = [1, 2, 3, 4]
    fields = raster_field(spec, modes, 30)
    inside = np.isfinite(fields[0].u) | fields[0].flags  # near points are kept by samples
    pts = (fields[0].x[None, :] + 1j * fields[0].y[:, None])[inside]
    samples = eigenmode_field(spec, modes, pts)
    assert 30 * 30 % 11 and len(pts) % 11  # eleven points per block leave a short last block
    nodes = _mode_functions(spec, modes)[0].grid.n  # n', the nodes of the Cauchy sums
    for entries in (nodes, 11 * nodes):
        monkeypatch.setattr(steklov.extension, "_BLOCK_ENTRIES", entries)
        for ras, again in zip(fields, raster_field(spec, modes, 30)):
            assert np.array_equal(ras.u, again.u, equal_nan=True)
            assert np.array_equal(ras.flags, again.flags)
        for sample, again in zip(samples, eigenmode_field(spec, modes, pts)):
            assert np.array_equal(sample.values, again.values)
            assert np.array_equal(sample.flags, again.flags)


def test_raster_pass_memory_is_bounded(kite_bounded):
    spec = solve_spectrum(kite_bounded, 512, 4)
    tracemalloc.start()
    try:
        fields = raster_field(spec, [1, 2, 3, 4], 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of 2,000,000 weights (3906 points) would fail this: they peak at 47.4 MiB
    assert peak <= 8 * 2**20
    alone = raster_field(spec, 3, 120)  # a mode does not depend on the others requested
    assert np.array_equal(alone.u, fields[2].u, equal_nan=True)


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------

def direct_rule(grid, z, bounded, bfs=()):
    """(inside, near, values) by the direct O(n)-per-point rule, in blocks of 64 points.

    The side is the trapezoidal winding number Re Σ_j w_j / (in), except
    for points closer than the margin to their nearest node (argmin of
    |η_j - z|), which take the tangent test there.  ``values[i]`` is the
    Cauchy rule for ``bfs[i]`` on every point of each block, kept or not:
    the barycentric ratio with the node weights a_j = η'_j, or outside
    a_j = η'_j / (η_j - β), β the node mean.
    """
    margin = 2.0 * (2.0 * np.pi / grid.n) * float(np.max(grid.speed))
    inside, near = np.empty(len(z), dtype=bool), np.empty(len(z), dtype=bool)
    values = np.empty((len(bfs), len(z)), dtype=complex)
    a = grid.eta1 if bounded else grid.eta1 / (grid.eta - np.mean(grid.eta))
    for lo in range(0, len(z), 64):
        zc = z[lo : lo + 64]
        with np.errstate(divide="ignore", invalid="ignore"):  # points on nodes, outside points
            w = grid.eta - zc[:, None]
            dist = np.abs(w)
            jmin = np.argmin(dist, axis=1)
            near_c = dist[np.arange(len(zc)), jmin] < margin
            winding = np.real(np.sum(grid.eta1 / w, axis=1) / (1j * grid.n))
            left = np.imag(np.conj(grid.eta1[jmin]) * (zc - grid.eta[jmin])) > 0.0
            inside[lo : lo + 64] = np.where(near_c, left, np.abs(winding - bounded) < 0.5)
            near[lo : lo + 64] = near_c
            w = a / w
            total = w.sum(axis=1)
            for out, bf in zip(values[:, lo : lo + 64], bfs):
                out[:] = zgemv(1.0, w.T, bf.values, trans=1) / total
    return inside, near, values


def raster_points(grid, kind, nx):
    """An nx x nx raster over the nodes' bounding box, padded as raster_field pads it."""
    pad = 1.0 if kind is DomainKind.UNBOUNDED_EXTERIOR else 0.05
    xs, ys = grid.eta.real, grid.eta.imag
    dx, dy = (xs.max() - xs.min()) * pad, (ys.max() - ys.min()) * pad
    x = np.linspace(xs.min() - dx, xs.max() + dx, nx)
    y = np.linspace(ys.min() - dy, ys.max() + dy, nx)
    return (x[None, :] + 1j * y[:, None]).ravel()


def scattered_points(grid, kind):
    """Random box points, node points, points level with nodes, far points, obstacle points."""
    rng = np.random.default_rng(grid.n)
    box = raster_points(grid, kind, 2)
    x = rng.uniform(box.real.min(), box.real.max(), 300)
    y = rng.uniform(box.imag.min(), box.imag.max(), 300)
    level = rng.uniform(box.real.min(), box.real.max(), (grid.n // 4, 8))
    level = level + 1j * grid.eta.imag[::4, None]  # level with every fourth node
    center = np.mean(grid.eta)  # inside the obstacle of every builtin exterior
    r = 0.05 * abs(box[-1] - box[0]) * np.sqrt(rng.uniform(0, 1, 40))
    return np.concatenate([
        x + 1j * y,
        grid.eta[::3],
        level.ravel(),
        1e6 * np.exp(2j * np.pi * np.arange(8) / 8),
        center + r * np.exp(2j * np.pi * rng.uniform(0, 1, 40)),
    ])


def assert_classify_matches_direct_rule(grid, z, kind):
    bounded = kind is DomainKind.BOUNDED_INTERIOR
    inside, near = _classify(grid, z, bounded)
    expected_inside, expected_near, _ = direct_rule(grid, z, bounded)
    assert np.array_equal(near, expected_near)
    assert np.array_equal(inside, expected_inside)


@pytest.mark.parametrize("kind", list(DomainKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("family", builtin_families())
def test_classify_matches_direct_rule_on_rasters(family, n, kind):
    grid = build_grid(make_builtin(family, kind=kind), n)
    for nx in (24, 60, 120):
        assert_classify_matches_direct_rule(grid, raster_points(grid, kind, nx), kind)


@pytest.mark.parametrize("kind", list(DomainKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("family", builtin_families())
def test_classify_matches_direct_rule_on_scattered_points(family, n, kind):
    grid = build_grid(make_builtin(family, kind=kind), n)
    z = scattered_points(grid, kind)
    assert_classify_matches_direct_rule(grid, z, kind)
    inside, near = _classify(grid, z, kind is DomainKind.BOUNDED_INTERIOR)
    on_nodes = np.isin(z, grid.eta)
    assert np.all(near[on_nodes]) and not np.any(inside[on_nodes])
    far = np.abs(z) == 1e6
    assert np.all(inside[far] == (kind is DomainKind.UNBOUNDED_EXTERIOR))
    inside, near = _classify(grid, np.array([], dtype=complex), True)
    assert inside.shape == near.shape == (0,)


def test_classify_counts_no_crossing_on_horizontal_edges():
    # a circle on 8 nodes whose top and bottom edges are exactly horizontal; rays level
    # with them pass through two nodes and along an edge, and must count no crossing
    t = 2 * np.pi * np.arange(8) / 8
    eta = np.exp(1j * (t + np.pi / 8))
    eta[2], eta[5] = -eta[1].conjugate(), -eta[6].conjugate()
    assert eta[1].imag == eta[2].imag and eta[5].imag == eta[6].imag
    grid = Grid(n=8, t=t, eta=eta, eta1=1j * eta, speed=np.ones(8), rho=np.ones(8))
    z = np.array([-3.0, -2.7, 2.7, 3.0]) + 1j * eta[[1, 1, 2, 5]].imag
    inside, near = _classify(grid, z, bounded=True)
    assert not np.any(near) and not np.any(inside)
    assert_classify_matches_direct_rule(grid, z, DomainKind.BOUNDED_INTERIOR)


@pytest.mark.parametrize("curve", ["kite_bounded", "kite_exterior"])
def test_raster_values_match_full_blocks(curve, request, monkeypatch):
    spec = solve_spectrum(request.getfixturevalue(curve), 512, 4)
    modes = [1, 2, 3, 4]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape[1])
        return zgemv(*args, **kwargs)

    monkeypatch.setattr(steklov.extension, "zgemv", counted)
    fields = raster_field(spec, modes, 120)
    kept = np.isfinite(fields[0].u)
    bfs = _mode_functions(spec, modes)
    assert bfs[0].grid.n == 188  # 2 max(P, L) + 2
    chunk = steklov.extension._BLOCK_ENTRIES // bfs[0].grid.n
    # every block holds kept points only, and all but the last are full
    assert len(calls) == len(modes) * math.ceil(kept.sum() / chunk)
    assert sum(calls) == len(modes) * kept.sum()
    z = (fields[0].x[None, :] + 1j * fields[0].y[:, None]).ravel()
    bounded = spec.curve.kind is DomainKind.BOUNDED_INTERIOR
    inside, near, _ = direct_rule(spec.grid, z, bounded)  # classified on the n nodes
    assert np.array_equal(kept.ravel(), inside & ~near)
    values = direct_rule(bfs[0].grid, z, bounded, bfs)[2]  # summed on the n' nodes
    for ras, v in zip(fields, values):
        assert np.array_equal(ras.u.ravel()[kept.ravel()], v.real[kept.ravel()])


def trig_upsample(values, m):
    """The trigonometric interpolant of values on n equispaced nodes, sampled on m >= n nodes."""
    n = len(values)
    c = np.fft.fft(values)
    up = np.zeros(m, dtype=complex)
    up[: n // 2], up[m - n // 2 + 1 :] = c[: n // 2], c[n // 2 + 1 :]
    up[n // 2] = up[m - n // 2] = c[n // 2] / 2  # the Nyquist term split evenly
    return np.fft.ifft(up) * (m / n)


def test_exterior_raster_matches_upsampled_reference(kite_exterior):
    spec = solve_spectrum(kite_exterior, 512, 4)
    fields = raster_field(spec, [1, 2, 3, 4], 120)
    kept = np.isfinite(fields[0].u)
    z = (fields[0].x[None, :] + 1j * fields[0].y[:, None])[kept]
    fine = build_grid(kite_exterior, 8192)
    for j, ras in enumerate(fields, start=1):
        values = trig_upsample(mode_boundary_function(spec, j).values, fine.n)
        ref = cauchy_eval(BoundaryFunction(grid=fine, curve=kite_exterior, values=values), z).u
        assert np.max(np.abs(ras.u[kept] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", list(DomainKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family", ["kite", "g1", "g2", "star2"])
def test_resolved_nodes_match_upsampled_reference(family, kind):
    curve = make_builtin(family, kind=kind)
    spec = solve_spectrum(curve, 512, 4)
    modes = [1, 2, 3, 4]
    bounded = kind is DomainKind.BOUNDED_INTERIOR
    assert _mode_functions(spec, modes)[0].grid.n < spec.n
    fields = raster_field(spec, modes, 60)
    zz = (fields[0].x[None, :] + 1j * fields[0].y[:, None]).ravel()
    inside, near = _classify(spec.grid, zz, bounded)  # the n-node classification
    kept = inside & ~near
    assert np.array_equal(np.isfinite(fields[0].u).ravel(), kept)
    assert np.array_equal(fields[0].flags.ravel(), inside & near)
    pts = np.concatenate([off_boundary_points(spec.grid, d) for d in (0.1, 0.5, 1.0, 2.0, 4.0)])
    samples = eigenmode_field(spec, modes, pts)
    fine = build_grid(curve, 8192)
    bfs = [mode_boundary_function(spec, j) for j in modes]
    ups = [BoundaryFunction(grid=fine, curve=curve, values=trig_upsample(bf.values, fine.n))
           for bf in bfs]
    refs = steklov.extension._samples(fine, ups, np.concatenate([zz[kept], pts]))
    for bf, ras, sample, ref in zip(bfs, fields, samples, refs):
        scale = np.max(np.abs(bf.values))
        assert np.max(np.abs(ras.u.ravel()[kept] - ref.u[: kept.sum()])) <= 1e-13 * scale
        assert np.max(np.abs(sample.values - ref.values[kept.sum() :])) <= 1e-13 * scale
        assert np.max(np.abs(sample.values - cauchy_eval(bf, pts).values)) <= 1e-13 * scale
        assert np.array_equal(sample.flags, _classify(spec.grid, pts, bounded)[1])


@pytest.mark.parametrize("kind", list(DomainKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
@pytest.mark.parametrize("family", builtin_families())
def test_mode_data_have_degree_max_p_l(family, n, kind):
    spec = solve_spectrum(make_builtin(family, kind=kind), n, 10)
    top = max(spec.degree, (spec.band_size - 1) // 2)  # max(P, L)
    for data in (spec.traces, spec.conjugates):
        hat = np.abs(np.fft.rfft(data, axis=0))
        assert np.all(np.max(hat[top + 1 :], axis=0, initial=0.0) <= 1e-14 * np.max(hat, axis=0))


@pytest.mark.parametrize("kind", list(DomainKind), ids=lambda k: k.value)
def test_band_at_half_n_keeps_all_nodes(kind):
    spec = solve_spectrum(make_builtin("star2", kind=kind), 128, 4)
    assert spec.band_size == spec.n and 2 * spec.degree + 2 < spec.n  # the band sets n' = n
    modes = [1, 2, 3, 4]
    bfs = _mode_functions(spec, modes)
    assert all(bf.grid is spec.grid for bf in bfs)
    fields = raster_field(spec, modes, 40)
    z = (fields[0].x[None, :] + 1j * fields[0].y[:, None]).ravel()
    kept = np.isfinite(fields[0].u).ravel()
    values = direct_rule(spec.grid, z, kind is DomainKind.BOUNDED_INTERIOR, bfs)[2]
    for j, ras, v in zip(modes, fields, values):
        assert np.array_equal(ras.u.ravel()[kept], v.real[kept])
        pts = z[kept][::7]
        expected = cauchy_eval(mode_boundary_function(spec, j), pts).values
        assert np.array_equal(eigenmode_field(spec, j, pts).values, expected)


@pytest.mark.parametrize("curve", ["kite_bounded", "kite_exterior"])
@pytest.mark.parametrize(
    "point",
    [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, -np.inf), complex(-np.inf, np.nan)],
    ids=["nan", "inf", "minus-inf-imag", "minus-inf-nan"],
)
def test_non_finite_point_rejected(curve, point, request):
    spec = solve_spectrum(request.getfixturevalue(curve), 128, 2)
    with pytest.raises(ExtensionError, match="not finite"):
        eigenmode_field(spec, [1, 2], np.array([0.3 + 0.1j, point]))
    with pytest.raises(ExtensionError, match="not finite"):
        cauchy_eval(mode_boundary_function(spec, 1), np.array([point]))
