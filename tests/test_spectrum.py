import numpy as np
import pytest

from steklov import DomainKind, builtin_families, make_builtin, scale_to_perimeter
from steklov.curves import with_alpha
from steklov.operators import build_dtn, fourier_diff_matrix, wittich_matrix
from steklov.spectrum import assemble_q, solve_spectrum

DISK_FIRST_TEN = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], dtype=float)


# ---------------------------------------------------------------------------
# Q assembly
# ---------------------------------------------------------------------------

def test_disk_q_equals_dk(disk):
    n = 32
    disc = build_dtn(disk, n)
    q = assemble_q(disc)
    assert np.max(np.abs(q - fourier_diff_matrix(n) @ wittich_matrix(n))) <= 1e-12


def test_disk_q_eigenvector_checks(disk):
    n = 32
    disc = build_dtn(disk, n)
    q = assemble_q(disc)
    t = disc.grid.t
    assert np.max(np.abs(q @ np.cos(t) - np.cos(t))) <= 1e-12
    assert np.max(np.abs(q @ np.ones(n))) <= 1e-12
    assert np.max(np.abs(q @ np.cos(16 * t))) <= 1e-12  # spurious Nyquist mode


def test_assemble_q_matches_dense_diff(kite_bounded, kite_exterior):
    # The FFT path against the dense D = F W F*, with n/2 even and odd.
    for curve in (kite_bounded, kite_exterior):
        for n in (64, 66):
            disc = build_dtn(curve, n)
            q = assemble_q(disc)
            ref = disc.rho[:, None] * (fourier_diff_matrix(n) @ disc.E)
            assert np.max(np.abs(q - ref)) <= 1e-12 * np.linalg.norm(ref, 2), (curve.kind, n)


def test_assemble_q_is_cached(disk):
    disc = build_dtn(disk, 32)
    assert assemble_q(disc) is assemble_q(disc)


def test_apply_dtn_disk_modes(disk):
    disc = build_dtn(disk, 32)
    q = assemble_q(disc)
    t = disc.grid.t
    assert np.max(np.abs(q @ np.cos(2 * t) - 2 * np.cos(2 * t))) <= 1e-12
    assert np.max(np.abs(q @ np.ones(32))) <= 1e-12


# ---------------------------------------------------------------------------
# solve_spectrum
# ---------------------------------------------------------------------------

def test_disk_spectrum_exact(disk):
    spec = solve_spectrum(disk, 32, 10)
    assert np.max(np.abs(spec.lambdas - DISK_FIRST_TEN) / DISK_FIRST_TEN) <= 1e-12
    assert np.max(np.abs(spec.zero_modes)) <= 1e-8
    assert spec.lambdas_scaled == pytest.approx(list(DISK_FIRST_TEN * np.sqrt(np.pi)), abs=1e-10)


def test_disk_spectrum_small_grid(disk):
    # 10 nonzero modes plus the zero pair resolve already at n = 24
    spec = solve_spectrum(disk, 24, 10)
    assert np.max(np.abs(spec.lambdas - DISK_FIRST_TEN) / DISK_FIRST_TEN) <= 1e-12


def test_trace_normalization_and_sign(disk):
    spec = solve_spectrum(disk, 32, 6)
    w = (2 * np.pi / 32) * spec.grid.speed
    for j in range(6):
        g = spec.traces[:, j]
        assert np.sum(w * g * g) == pytest.approx(1.0, abs=1e-12)
        assert g[np.argmax(np.abs(g))] > 0


def test_residual_bound(kite_bounded):
    spec = solve_spectrum(kite_bounded, 256, 10)
    assert np.all(spec.residuals <= 1e-9 * (1.0 + spec.lambdas))


def test_conjugates_are_e_times_traces(kite_bounded):
    disc_spec = solve_spectrum(kite_bounded, 128, 4)
    disc = build_dtn(kite_bounded, 128)
    assert np.allclose(disc_spec.conjugates, disc.E @ disc_spec.traces, atol=1e-12)


def test_exterior_has_no_scaled_lambdas(kite_exterior):
    spec = solve_spectrum(kite_exterior, 128, 4)
    assert spec.lambdas_scaled is None
    assert spec.area > 0  # area of the bounded complement still reported


def test_lambdas_ascending_and_positive(kite_bounded):
    spec = solve_spectrum(kite_bounded, 256, 10)
    assert np.all(spec.lambdas > 0)
    assert np.all(np.diff(spec.lambdas) >= 0)


def test_band_headroom_precondition(disk):
    with pytest.raises(ValueError):
        solve_spectrum(disk, 24, 11)  # k + 2 = 13 > n/2 = 12
    with pytest.raises(ValueError):
        solve_spectrum(disk, 32, 0)


def test_arnoldi_path_matches_dense_path():
    # Oracle: every eigenvalue of Q by dense QR, with the two of least
    # modulus (the zero pair) dropped; k = 6 includes the disk's double
    # eigenvalues 1, 2, 3.
    k = 6
    for family in builtin_families():
        for kind in DomainKind:
            curve = make_builtin(family, kind=kind)
            for n in (32, 64, 256):
                ev = np.linalg.eigvals(assemble_q(build_dtn(curve, n)))
                ev = ev[np.argsort(np.abs(ev))][2 : k + 2]
                dense = np.sort(ev.real)
                lam = solve_spectrum(curve, n, k).lambdas
                assert np.max(np.abs(lam - dense) / dense) <= 1e-10, (family, kind, n)


def test_spectrum_independent_of_alpha(g1_curve):
    spec_a = solve_spectrum(g1_curve, 512, 8)
    spec_b = solve_spectrum(with_alpha(g1_curve, 8.5), 512, 8)
    assert np.max(np.abs(spec_a.lambdas - spec_b.lambdas)) <= 1e-10


@pytest.mark.parametrize(
    "family,params",
    [("ellipse", {"r": 1.0}), ("ellipse", {"r": 2.0}), ("star2", {"r": 0.3})],
)
def test_weinstock_bound_at_fixed_perimeter(family, params):
    curve = scale_to_perimeter(family, params, 2 * np.pi, 256)
    spec = solve_spectrum(curve, 256, 2)
    assert spec.lambdas[0] <= 1.0 + 1e-10


def test_interior_and_exterior_share_asymptotic_slope(kite_bounded, kite_exterior):
    spec_i = solve_spectrum(kite_bounded, 512, 60)
    spec_e = solve_spectrum(kite_exterior, 512, 60)
    slope = 2 * np.pi / spec_i.perimeter
    for spec in (spec_i, spec_e):
        near = abs(spec.lambdas[2 * 28 - 1] - slope * 28)
        far = abs(spec.lambdas[2 * 18 - 1] - slope * 18)
        assert near < far
