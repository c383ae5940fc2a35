import numpy as np
import pytest

from steklov import DomainKind, make_builtin, scale_to_perimeter
from steklov.curves import build_grid, nodes
from steklov.operators import (
    apply_diff_fast,
    build_dtn,
    fourier_diff_matrix,
    kernel_band,
    kernel_values,
    nystrom_matrices,
    wittich_matrix,
)


def explicit_fwf_matrix(n):
    """Dense F W F* product with the DFT matrix, the construction oracle.

    Phases are reduced mod n before exponentiation so the matrix stays
    accurate at large n.
    """
    j = np.arange(n)
    f = np.exp(-2j * np.pi * (np.outer(j, j) % n) / n)
    freq = np.zeros(n)
    freq[1 : n // 2] = np.arange(1, n // 2)
    freq[n // 2 + 1 :] = np.arange(n // 2 + 1, n) - n
    d = (f * (-1j * freq / n)) @ f.conj().T
    assert np.max(np.abs(d.imag)) < 1e-13
    return d.real


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def test_diff_first_harmonic():
    n = 16
    d = fourier_diff_matrix(n)
    t = nodes(n)
    assert np.max(np.abs(d @ np.sin(t) - np.cos(t))) <= 1e-13


def test_diff_annihilates_constants():
    d = fourier_diff_matrix(16)
    assert np.max(np.abs(d @ np.ones(16))) <= 1e-13


def test_diff_annihilates_nyquist():
    n = 8
    d = fourier_diff_matrix(n)
    assert np.max(np.abs(d @ np.cos(4 * nodes(n)))) <= 1e-13


def test_diff_trig_exactness():
    n = 32
    d = fourier_diff_matrix(n)
    t = nodes(n)
    for k in range(1, n // 2):
        assert np.max(np.abs(d @ np.cos(k * t) + k * np.sin(k * t))) <= 1e-12
        assert np.max(np.abs(d @ np.sin(k * t) - k * np.cos(k * t))) <= 1e-12


def test_diff_matches_dft_factorization_oracle():
    for n in (8, 32, 64):
        assert np.max(np.abs(fourier_diff_matrix(n) - explicit_fwf_matrix(n))) <= 1e-13


def test_diff_matches_cotangent_closed_form():
    n = 16
    offs = np.subtract.outer(np.arange(n), np.arange(n))
    with np.errstate(divide="ignore"):
        closed = 0.5 * (-1.0) ** offs / np.tan(np.pi * offs / n)
    np.fill_diagonal(closed, 0.0)
    assert np.max(np.abs(fourier_diff_matrix(n) - closed)) <= 1e-13


def test_diff_rejects_odd_n():
    with pytest.raises(ValueError):
        fourier_diff_matrix(15)
    with pytest.raises(ValueError):
        apply_diff_fast(np.ones(7))


def test_apply_diff_fast_basics():
    t = nodes(32)
    assert np.max(np.abs(apply_diff_fast(np.sin(t)) - np.cos(t))) <= 1e-13
    assert np.max(np.abs(apply_diff_fast(np.cos(3 * t)) + 3 * np.sin(3 * t))) <= 1e-13


def test_apply_diff_fast_matches_dense(rng):
    n = 64
    t = nodes(n)
    v = np.real(np.sum([rng.normal() * np.exp(1j * k * t) for k in range(-10, 11)], axis=0))
    assert np.max(np.abs(apply_diff_fast(v) - fourier_diff_matrix(n) @ v)) <= 1e-12


def test_apply_diff_fast_on_columns(rng):
    for n in (32, 30):  # n/2 even and odd
        m = rng.normal(size=(n, 3))
        d = fourier_diff_matrix(n)
        assert np.allclose(apply_diff_fast(m), d @ m, atol=1e-12)


# ---------------------------------------------------------------------------
# Wittich conjugation matrix
# ---------------------------------------------------------------------------

def test_wittich_first_harmonic():
    n = 16
    k = wittich_matrix(n)
    t = nodes(n)
    assert np.max(np.abs(k @ np.cos(t) - np.sin(t))) <= 1e-13


def test_wittich_annihilates_constants():
    k = wittich_matrix(16)
    assert np.max(np.abs(k @ np.ones(16))) <= 1e-14


def test_wittich_antisymmetric():
    k = wittich_matrix(32)
    assert np.array_equal(k, -k.T)


def test_wittich_eigenvalue_structure():
    n = 64
    w = np.linalg.eigvals(wittich_matrix(n))
    zeros = np.abs(w) <= 1e-12
    assert int(zeros.sum()) == 2
    rest = w[~zeros]
    dist = np.minimum(np.abs(rest - 1j), np.abs(rest + 1j))
    assert np.max(dist) <= 1e-12
    assert int(np.sum(np.abs(rest - 1j) < 0.5)) == n // 2 - 1


def test_wittich_involution_on_band_limited_data():
    n = 32
    t = nodes(n)
    k = wittich_matrix(n)
    gamma = np.cos(3 * t)
    assert np.max(np.abs(k @ (k @ gamma) + gamma)) <= 1e-12


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_kernel_values_unit_circle_offdiag(disk):
    n_val, mt_val = kernel_values(disk, 0.7, 2.1)
    assert n_val == pytest.approx(1.0 / (2 * np.pi), abs=1e-14)
    assert mt_val == pytest.approx(0.0, abs=1e-14)


def test_kernel_values_unit_circle_diagonal(disk):
    n_val, mt_val = kernel_values(disk, 1.3, 1.3)
    assert n_val == pytest.approx(1.0 / (2 * np.pi), abs=1e-15)
    assert mt_val == pytest.approx(0.0, abs=1e-15)


def test_kernel_values_clockwise_circle_diagonal():
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    n_val, _ = kernel_values(ext, 0.4, 0.4)
    assert n_val == pytest.approx(-1.0 / (2 * np.pi), abs=1e-15)


def test_kernel_values_broadcast(g1_curve):
    s = np.array([0.1, 0.5, 0.5])
    t = np.array([0.2, 0.5, 0.9])
    n_val, mt_val = kernel_values(g1_curve, s, t)
    assert n_val.shape == (3,)
    n_diag, mt_diag = kernel_values(g1_curve, 0.5, 0.5)
    assert n_val[1] == pytest.approx(n_diag, abs=1e-15)
    assert mt_val[1] == pytest.approx(mt_diag, abs=1e-15)


def test_nystrom_entries_match_kernel_values(g1_curve, kite_bounded, kite_exterior):
    # kernel_values evaluates N and M̃ point by point, independently of
    # the fused (kernel + circulant) assembly; compare every entry.
    n = 64
    k = wittich_matrix(n)
    h = 2 * np.pi / n
    for curve in (kite_bounded, kite_exterior, make_builtin("g2"), g1_curve):
        grid = build_grid(curve, n)
        b, c = nystrom_matrices(grid, curve)
        n_val, mt_val = kernel_values(curve, grid.t[:, None], grid.t[None, :])
        assert np.max(np.abs(b - h * n_val)) <= 1e-13, curve.name
        assert np.max(np.abs(c - (-k + h * mt_val))) <= 1e-13, curve.name


@pytest.mark.parametrize("n", [70, 200])
@pytest.mark.parametrize("kind", [DomainKind.BOUNDED_INTERIOR, DomainKind.UNBOUNDED_EXTERIOR])
def test_nystrom_panel_edges_match_kernel_values(n, kind):
    # the panel width does not divide n, so the last panel is partial
    k = wittich_matrix(n)
    h = 2 * np.pi / n
    curves = (make_builtin("kite", kind=kind), make_builtin("g2", kind=kind),
              scale_to_perimeter("ellipse", {"r": 2.0}, kind=kind))
    for curve in curves:
        grid = build_grid(curve, n)
        b, c = nystrom_matrices(grid, curve)
        n_val, mt_val = kernel_values(curve, grid.t[:, None], grid.t[None, :])
        assert np.max(np.abs(b - h * n_val)) <= 1e-13, curve.name
        assert np.max(np.abs(c - (-k + h * mt_val))) <= 1e-13, curve.name


@pytest.mark.parametrize(
    "kind, family, n",
    [pytest.param(kind, "kite", 512, id=str(kind)) for kind in DomainKind]
    + [pytest.param(kind, "g1", 64, id=f"g1-64-{kind}") for kind in DomainKind],
)
def test_band_from_a_sample_is_the_grids_band(kind, family, n):
    # the kite's kernels resolve on fewer than 512 nodes; at n = 512 the
    # sample's matrices act on the bins it carries as the grid's B and C̃ do.
    # g1's need more than 64, so there the sample is the grid, Nyquist bin
    # included, and the matrices are the grid's whole B and C̃
    curve = make_builtin(family, kind=kind)
    grid = build_grid(curve, n)
    band = kernel_band(curve, grid)
    s = band.b_sample.shape[0]
    if band.sample_n < n:
        assert s == band.sample_n  # the bins |q| < m'/2, as (re, im) pairs
    else:
        assert s == n + 2  # the bins 0 .. n/2
    b, c = nystrom_matrices(grid, curve)
    v_hat = np.zeros((n // 2 + 1, 3), dtype=complex)
    v_hat[: s // 2] = np.random.default_rng(5).standard_normal((s // 2, 3, 2)) @ [1.0, 1j]
    v = np.fft.irfft(v_hat, n, axis=0)
    xi = np.fft.rfft(v.T.copy(), axis=1).view(float)[:, :s]
    for x, sample in ((b, band.b_sample), (c + wittich_matrix(n), band.c_sample)):
        ref = np.fft.rfft((x @ v).T.copy(), axis=1).view(float)[:, :s]
        if kind is DomainKind.BOUNDED_INTERIOR:
            ref[:, :2] = 0.0  # the bounded band drops the constant row
        assert np.max(np.abs(xi @ sample.T - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_band_size_does_not_depend_on_the_grid(kite_bounded):
    bands = [kernel_band(kite_bounded, build_grid(kite_bounded, n)) for n in (1024, 2048)]
    assert [(b.sample_n, b.size) for b in bands] == [(320, 187)] * 2
    assert all(b.tail <= 0.5 * np.finfo(float).eps * b.sample_n for b in bands)
    assert np.array_equal(bands[0].b_band, bands[1].b_band)
    assert np.array_equal(bands[0].c_band, bands[1].c_band)


def test_band_of_an_under_resolved_grid_is_the_whole_grid(g1_curve):
    # g1's kernels need ~512 nodes; on 64 the sample is the grid, and the
    # tail says how far from resolved it is
    band = kernel_band(g1_curve, build_grid(g1_curve, 64))
    assert (band.sample_n, band.size) == (64, 64)
    assert band.tail > 1e-3


def test_disk_band_is_the_constant(disk):
    # B = (1/n) 1 1ᵀ lives in the constant row, which the bounded band
    # drops, and C̃ = 0: the band is the constant bin, and it is zero
    band = kernel_band(disk, build_grid(disk, 256))
    assert (band.sample_n, band.size) == (64, 1)
    assert np.max(np.abs(band.b_band)) <= 1e-15
    assert np.max(np.abs(band.c_band)) <= 1e-15


def test_nystrom_circle_matrices(disk):
    n = 32
    grid = build_grid(disk, n)
    b, c = nystrom_matrices(grid, disk)
    assert np.max(np.abs(b - np.full((n, n), 1.0 / n))) <= 1e-14
    assert np.max(np.abs(c + wittich_matrix(n))) <= 1e-13


# The constant null vector of C (and E) holds up to the trapezoidal
# error of the continuous kernel, so the grid must resolve the curve:
# the defect at n = 64 is ~1e-5 for g1 and ~1e-8 for the kite, and
# drops below rounding once n passes the per-family resolution.
@pytest.mark.parametrize(
    "family,params,kind,n",
    [
        ("disk", {}, DomainKind.BOUNDED_INTERIOR, 64),
        ("ellipse", {"r": 2.0}, DomainKind.BOUNDED_INTERIOR, 64),
        ("g2", {}, DomainKind.BOUNDED_INTERIOR, 64),
        ("kite", {}, DomainKind.BOUNDED_INTERIOR, 128),
        ("kite", {}, DomainKind.UNBOUNDED_EXTERIOR, 128),
        ("star2", {"r": 0.5}, DomainKind.BOUNDED_INTERIOR, 128),
        ("g1", {}, DomainKind.BOUNDED_INTERIOR, 256),
    ],
)
def test_constant_annihilation(family, params, kind, n):
    disc = build_dtn(make_builtin(family, params, kind=kind), n)
    assert np.max(np.abs(disc.C @ np.ones(n))) <= 1e-12
    assert np.max(np.abs(disc.E @ np.ones(n))) <= 1e-12


def test_constant_annihilation_defect_decays(kite_bounded):
    defects = {}
    for n in (48, 96):
        grid = build_grid(kite_bounded, n)
        _, c = nystrom_matrices(grid, kite_bounded)
        defects[n] = np.max(np.abs(c @ np.ones(n)))
    assert defects[96] < defects[48] / 1e3


# ---------------------------------------------------------------------------
# Conjugation matrix E
# ---------------------------------------------------------------------------

def test_disk_conjugation_reduces_to_wittich(disk):
    n = 64
    e = build_dtn(disk, n).E
    assert np.max(np.abs(e - wittich_matrix(n))) <= 1e-12


def test_exterior_circle_conjugation_reduces_to_wittich():
    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    e = build_dtn(ext, 64).E
    assert np.max(np.abs(e - wittich_matrix(64))) <= 1e-12


def test_conjugation_eigenvalue_structure(g1_curve):
    disc = build_dtn(g1_curve, 256)
    w = np.linalg.eigvals(disc.E)
    zeros = np.abs(w) <= 1e-8
    assert int(zeros.sum()) == 2
    rest = w[~zeros]
    dist = np.minimum(np.abs(rest - 1j), np.abs(rest + 1j))
    assert np.max(dist) <= 1e-8


def test_conjugation_numerical_rank(g1_curve):
    disc = build_dtn(g1_curve, 256)
    sv = np.linalg.svd(disc.E, compute_uv=False)
    assert np.sum(sv < 1e-8 * sv[0]) == 2
    assert sv[-3] > 1e-8 * sv[0]


def test_conjugation_analytic_oracle_g1(g1_curve):
    disc = build_dtn(g1_curve, 256)
    f = (disc.grid.eta - 8.0) ** 2
    assert np.max(np.abs(disc.E @ f.real - f.imag)) <= 1e-10


def test_conjugation_error_decays_spectrally(kite_bounded):
    errors = {}
    for n in (24, 96):
        disc = build_dtn(kite_bounded, n)
        f = (disc.grid.eta - kite_bounded.alpha) ** 3
        errors[n] = np.max(np.abs(disc.E @ f.real - f.imag))
    assert errors[96] < errors[24] / 100.0


def test_solve_conjugate_disk(disk):
    disc = build_dtn(disk, 32)
    t = disc.grid.t
    assert np.max(np.abs(disc.E @ np.cos(t) - np.sin(t))) <= 1e-13
    assert np.max(np.abs(disc.E @ np.ones(32))) <= 1e-13


def test_solve_conjugate_kite_cubic(kite_bounded):
    disc = build_dtn(kite_bounded, 512)
    f = (disc.grid.eta - kite_bounded.alpha) ** 3
    mu = disc.E @ f.real
    assert np.max(np.abs(mu - f.imag)) <= 1e-9


@pytest.mark.parametrize("kind", list(DomainKind))
@pytest.mark.parametrize("family,params", [
    ("disk", {}),
    ("ellipse", {"r": 2.0}),
    ("star2", {"r": 0.5}),
    ("kite", {}),
    ("g1", {}),
    ("g2", {}),
])
def test_analytic_conjugate_all_builtins(family, params, kind):
    curve = make_builtin(family, params, kind=kind)
    disc = build_dtn(curve, 512)
    eta = disc.grid.eta
    if kind is DomainKind.BOUNDED_INTERIOR:
        base = eta - curve.alpha
        powers = [base ** m for m in range(1, 6)]
    else:
        beta = make_builtin(family, params).alpha
        powers = [(eta - beta) ** (-m) for m in range(1, 6)]
    for f in powers:
        assert np.max(np.abs(disc.E @ f.real - f.imag)) <= 1e-9
