import tracemalloc

import numpy as np
import pytest

import steklov.extension
from steklov import DomainKind, make_builtin, solve_spectrum
from steklov.extension import (
    BoundaryFunction,
    ExtensionError,
    cauchy_eval,
    eigenmode_field,
    estimate_f_infinity,
    mode_boundary_function,
    raster_field,
)
from steklov.operators import build_dtn


def boundary_data(curve, n, f):
    """BoundaryFunction from explicit analytic boundary values."""
    disc = build_dtn(curve, n)
    return BoundaryFunction(grid=disc.grid, curve=curve, values=f(disc.grid.eta))


def exterior_data(curve, n, f, f_infinity):
    disc = build_dtn(curve, n)
    return BoundaryFunction(
        grid=disc.grid, curve=curve, values=f(disc.grid.eta), f_infinity=f_infinity
    )


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
    bf = exterior_data(ext, 64, lambda z: 1.0 / z, f_infinity=0.0)
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
    bf = exterior_data(kite_exterior, 256, lambda z: (z - beta) ** (-m), f_infinity=0.0)
    pts = np.array([4.0 + 3.0j, -5.0 - 1.0j, 0.1 - 6.0j])
    sample = cauchy_eval(bf, pts)
    assert np.max(np.abs(sample.values - (pts - beta) ** (-m))) <= 1e-12


def test_points_outside_domain_rejected(disk):
    bf = boundary_data(disk, 64, lambda z: z)
    with pytest.raises(ExtensionError):
        cauchy_eval(bf, np.array([1.5 + 0.0j]))
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    bf_ext = exterior_data(ext, 64, lambda z: 1.0 / z, f_infinity=0.0)
    with pytest.raises(ExtensionError):
        cauchy_eval(bf_ext, np.array([0.2 + 0.1j]))


def test_exterior_needs_f_infinity():
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    bf = exterior_data(ext, 64, lambda z: 1.0 / z, f_infinity=None)
    with pytest.raises(ExtensionError):
        cauchy_eval(bf, np.array([3.0 + 0.0j]))


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
# f(infinity) estimation
# ---------------------------------------------------------------------------

def test_f_infinity_decaying_function():
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    bf = exterior_data(ext, 64, lambda z: 1.0 / z, f_infinity=None)
    assert abs(estimate_f_infinity(bf, beta=0.0)) <= 1e-14


def test_f_infinity_constant_plus_decay():
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    bf = exterior_data(ext, 64, lambda z: 3.0 + 1.0 / z, f_infinity=None)
    assert abs(estimate_f_infinity(bf, beta=0.0) - 3.0) <= 1e-13


def test_f_infinity_exterior_kite(kite_exterior):
    beta0 = -0.2
    bf = exterior_data(kite_exterior, 512, lambda z: 5.0 + 1.0 / (z - beta0), f_infinity=None)
    assert abs(estimate_f_infinity(bf) - 5.0) <= 1e-10


def test_f_infinity_rejects_bad_beta(kite_exterior):
    bf = exterior_data(kite_exterior, 128, lambda z: 1.0 / z, f_infinity=None)
    with pytest.raises(ExtensionError):
        estimate_f_infinity(bf, beta=10.0 + 10.0j)


def test_f_infinity_requires_exterior(disk):
    bf = boundary_data(disk, 64, lambda z: z)
    with pytest.raises(ExtensionError):
        estimate_f_infinity(bf)


def test_admissibility_check_on_f_infinity(kite_exterior):
    disc = build_dtn(kite_exterior, 64)
    with pytest.raises(ExtensionError):
        BoundaryFunction(
            grid=disc.grid, curve=kite_exterior, values=disc.grid.eta * 0, f_infinity=1.0 + 1.0j
        )


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
    far = cauchy_eval(bf, np.array([200.0 + 150.0j]))
    assert abs(far.values[0] - bf.f_infinity) <= 1e-2 * max(1.0, abs(bf.f_infinity))


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
    spec = solve_spectrum(request.getfixturevalue(curve), 128, 4)
    modes = [1, 2, 3, 4]
    fields = raster_field(spec, modes, 30)
    inside = np.isfinite(fields[0].u) | fields[0].flags  # near points are kept by samples
    pts = (fields[0].x[None, :] + 1j * fields[0].y[:, None])[inside]
    samples = eigenmode_field(spec, modes, pts)
    assert 30 * 30 % 11 and len(pts) % 11  # eleven points per block leave a short last block
    for entries in (spec.n, 11 * spec.n):
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
