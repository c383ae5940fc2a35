import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse.linalg

import steklov.cli
import steklov.densela
import steklov.operators
import steklov.spectrum
import steklov.studies
from generated_curves import trig_curve
from steklov import BoundaryCurve, DomainKind, builtin_families, make_builtin, scale_to_perimeter
from steklov.curves import build_grid
from steklov.operators import (
    DiscretizationError,
    apply_diff_fast,
    build_dtn,
    conjugation_system,
    fourier_diff_matrix,
    kernel_band,
    wittich_matrix,
)
from steklov.spectrum import (
    TRACE_TAIL_WARN,
    UnderResolvedWarning,
    assemble_q,
    eigenvalue_derivatives,
    solve_spectrum,
)
from steklov.studies import find_crossing

BOUNDED, EXTERIOR = DomainKind.BOUNDED_INTERIOR, DomainKind.UNBOUNDED_EXTERIOR

DISK_FIRST_TEN = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], dtype=float)

# Seeds of the generated trigonometric curves (tests/generated_curves.py).
SEEDS = range(12)


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
    assert spec.lambdas_scaled == pytest.approx(list(DISK_FIRST_TEN * np.sqrt(np.pi)), abs=1e-10)


def test_disk_spectrum_small_grid(disk):
    # 10 nonzero modes resolve already at n = 24
    spec = solve_spectrum(disk, 24, 10)
    assert np.max(np.abs(spec.lambdas - DISK_FIRST_TEN) / DISK_FIRST_TEN) <= 1e-12


@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("n", [6, 12])
def test_disk_where_a_constant_start_vector_is_annihilated(kind, n):
    # |η'| is constant, so W·1 has no content off the constant; on the
    # smallest grids and for every admissible k, the eliminated constant
    # and Nyquist coordinates leave exactly the disk's spectrum
    disk = make_builtin("disk", kind=kind)
    for k in range(1, n // 2 - 1):
        spec = solve_spectrum(disk, n, k)
        assert np.max(np.abs(spec.lambdas - DISK_FIRST_TEN[:k])) <= 1e-12


def test_trace_normalization_and_sign(disk):
    spec = solve_spectrum(disk, 32, 6)
    w = (2 * np.pi / 32) * spec.grid.speed
    for j in range(6):
        g = spec.traces[:, j]
        assert np.sum(w * g * g) == pytest.approx(1.0, abs=1e-12)
        peaks = np.abs(g) >= (1.0 - 1e-8) * np.max(np.abs(g))
        assert g[np.argmax(peaks)] > 0  # the first node at the peak magnitude


def test_residual_bound(kite_bounded):
    spec = solve_spectrum(kite_bounded, 256, 10)
    assert np.all(spec.residuals <= 1e-9 * (1.0 + spec.lambdas))


@pytest.mark.parametrize(
    "family,kind,n",
    [pytest.param(family, DomainKind.BOUNDED_INTERIOR, 256, id=family) for family in builtin_families()]
    # at n = 512 the kite's kernels come from a 256-node sample, smaller than the grid
    + [pytest.param("kite", kind, 512, id=f"kite-{kind.value}-512") for kind in DomainKind],
)
def test_factor_residuals_match_explicit_operators(family, kind, n):
    # the residual applies B and C̃ through the kernel sample, never an n-square
    # matrix; it is the grid operator's ||(I - B) μ_j + C γ_j||_2, not the band's
    curve = make_builtin(family, kind=kind)
    spec = solve_spectrum(curve, n, 10)
    assert n == 256 or spec.sample_size < n
    disc = build_dtn(curve, n)
    explicit = np.linalg.norm(
        spec.conjugates - disc.B @ spec.conjugates + disc.C @ spec.traces, axis=0
    )
    assert np.max(np.abs(spec.residuals - explicit)) <= 1e-12


def test_solve_peak_memory_is_two_matrices(kite_bounded):
    # the kernel sample, its coefficients and the band's LU are the largest
    # arrays; together they stay below one n-square float array
    n = 2048
    solve_spectrum(kite_bounded, 128, 10)  # warm up imports and caches
    tracemalloc.start()
    try:
        solve_spectrum(kite_bounded, n, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_one_factorization_and_neither_e_nor_q(kite_bounded, monkeypatch):
    lu_factor, solve = steklov.densela.lu_factor, steklov.densela.LUFactors.solve
    shapes, rhs_ndims = [], []

    def counting_lu(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return lu_factor(a, *args, **kwargs)

    def counting_solve(self, b):
        rhs_ndims.append(np.ndim(b))
        return solve(self, b)

    def forbidden(*args):
        raise AssertionError("the solve formed E or Q")

    monkeypatch.setattr(steklov.operators, "lu_factor", counting_lu)
    monkeypatch.setattr(steklov.densela, "lu_factor", counting_lu)
    monkeypatch.setattr(steklov.densela.LUFactors, "solve", counting_solve)
    monkeypatch.setattr(steklov.operators, "build_dtn", forbidden)
    monkeypatch.setattr(steklov.spectrum, "build_dtn", forbidden)
    monkeypatch.setattr(steklov.spectrum, "assemble_q", forbidden)
    spec = solve_spectrum(kite_bounded, 1024, 6)
    assert len(shapes) == 1
    assert shapes[0][0] == shapes[0][1] <= spec.band_size + 1 < 1024  # the band's I - B̂
    assert set(rhs_ndims) == {2}  # columns of Ê - K̂ only


def test_b_and_the_factors_share_one_blas_runtime(kite_bounded, monkeypatch):
    # numpy's @ would run on numpy's OpenBLAS thread pool, the factors' solves on scipy's
    gemm, gemv = scipy.linalg.blas.dgemm, scipy.linalg.blas.dgemv
    products, vectors, bands = [], [], []

    def recording_gemm(alpha, a, b, *args, **kwargs):
        products.append((a, b))
        return gemm(alpha, a, b, *args, **kwargs)

    def recording_gemv(alpha, a, x, *args, **kwargs):
        vectors.append(a)
        return gemv(alpha, a, x, *args, **kwargs)

    def recording_band(*args):
        bands.append(kernel_band(*args))
        return bands[-1]

    monkeypatch.setattr(scipy.linalg.blas, "dgemm", recording_gemm)
    monkeypatch.setattr(scipy.linalg.blas, "dgemv", recording_gemv)
    monkeypatch.setattr(steklov.spectrum, "kernel_band", recording_band)
    k = 6
    spec = solve_spectrum(kite_bounded, 512, k)
    band = bands[0]
    operands = [b for _, b in products]
    # the residual's B and C̃, from the whole sample
    assert [b is band.b_sample for b in operands].count(True) == 1
    assert [b is band.c_sample for b in operands].count(True) == 1
    # the band's blocks, on its rows and the Ritz space's columns: Ê - K̂ for
    # the conjugates (rows of rfft(γ) on the left), D (Ê - K̂) for the Ritz
    # residual (columns of x on the left)
    nb, cols = spec.band_size + 1, min(spec.band_size + 1, 2 * spec.degree + 2)
    blocks = [a.shape for a, b in products if b.shape == (nb, cols)]
    assert sorted(blocks) == sorted([(k, cols), (cols, k)])
    # the Cauchy row's Im f(α), against the traces and the conjugates
    assert [a.shape for a in vectors] == [(k, 512), (k, 512)]


def _orthonormal_fourier(m, axis):
    """`m` in the solver's orthonormal coordinates along `axis`: interleaved rfft, scaled."""
    n = m.shape[axis]
    f = np.moveaxis(np.fft.rfft(m, axis=axis), axis, 0)
    out = np.empty((n + 2,) + f.shape[1:])
    out[0::2], out[1::2] = f.real, f.imag
    out *= steklov.spectrum._basis_scale(n // 2, n).reshape((-1,) + (1,) * (m.ndim - 1))
    return np.moveaxis(np.delete(out, [1, n + 1], axis=0), 0, axis)  # Im of bins 0 and n/2


def _fourier_form(curve, n):
    """D E and W = diag|η'| of the grid in the orthonormal coordinates, from build_dtn."""
    disc = build_dtn(curve, n)
    s = _orthonormal_fourier(_orthonormal_fourier(apply_diff_fast(disc.E), 0), 1)
    w = _orthonormal_fourier(_orthonormal_fourier(np.diag(disc.grid.speed), 0), 1)
    return s, w


@pytest.mark.parametrize("family", ["kite", "g2"])
@pytest.mark.parametrize("n", [128, 512])
def test_fourier_form_matches_the_dense_dtn(family, n):
    # kite and g2 resolve on 256 and 512 nodes: n = 128 is sampled whole,
    # the kite at n = 512 through a 256-node sample and its band
    curve = make_builtin(family)
    grid = build_grid(curve, n)
    factors, rhs = conjugation_system(kernel_band(curve, grid))
    band = steklov.spectrum._dtn_band(-factors.solve(rhs), n)
    s = np.zeros((n + 2, n + 2))
    s[: band.shape[0], : band.shape[1]] = band
    p = np.arange(1, n // 2)
    s[2 * p, 2 * p] += p
    s[2 * p + 1, 2 * p + 1] += p
    s = np.delete(np.delete(s, [1, n + 1], axis=0), [1, n + 1], axis=1)
    w = steklov.spectrum._weight_matrix(np.fft.fft(grid.speed) / n, n // 2)
    w = np.delete(np.delete(w, [1, n + 1], axis=0), [1, n + 1], axis=1)
    dense_s, dense_w = _fourier_form(curve, n)
    assert np.max(np.abs(s - dense_s)) <= 1e-12 * np.max(np.abs(dense_s))
    assert np.max(np.abs(w - dense_w)) <= 1e-13 * np.max(grid.speed)


def _q_eigenvalues(curve, n, k):
    """The k least nonzero eigenvalues of build_dtn's Q, by ARPACK on Q + I.

    Q + I has its zero pair at 1, which shift-invert about 0 finds first.
    """
    q = assemble_q(build_dtn(curve, n))
    start = np.random.default_rng(0).standard_normal(n)
    values = scipy.sparse.linalg.eigs(q, k + 2, sigma=-1.0, v0=start, return_eigenvectors=False)
    return np.sort(values.real)[2:]


def _symmetric_q_eigenvalues(curve, n, k):
    """The k least nonzero eigenvalues of the symmetric part of Q's form, from build_dtn.

    In orthonormal Fourier coordinates D E has zero rows at the constant
    and the Nyquist bin.  Those coordinates are eliminated through
    (W x) = 0 there, and the symmetric part of the reduced D E is solved
    against the reduced W = diag|η'|, densely.  This is the problem the
    solve discretizes at P = n/2, resolved or not.
    """
    s, w = _fourier_form(curve, n)
    fixed, free = [0, n - 1], slice(1, n - 1)
    z = -np.linalg.solve(w[np.ix_(fixed, fixed)], w[fixed, free])
    s_red = s[free, free] + s[free, fixed] @ z
    w_red = w[free, free] + w[free, fixed] @ z
    values = scipy.linalg.eigh(0.5 * (s_red + s_red.T), w_red, eigvals_only=True,
                               subset_by_index=(0, k - 1))
    assert values[0] > 0.0  # so the lowest are the least in modulus
    return values


_Q_GRIDS = [64, 128, 256, 512] + [pytest.param(n, marks=pytest.mark.slow) for n in (1024, 2048)]


@pytest.mark.parametrize("n", _Q_GRIDS)
@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("family", builtin_families())
def test_band_solve_agrees_with_dtn_q(family, kind, n):
    # The solve takes the symmetric part of D E.  From n = 128 on, D E is
    # symmetric to rounding and the solve has Q's eigenvalues; at n = 64
    # the asymmetry moves them (g2 by 1e-7), so there the oracle is the
    # symmetric part of Q's form.
    curve = make_builtin(family, kind=kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        lam = solve_spectrum(curve, n, 10).lambdas
    ref = (_symmetric_q_eigenvalues if n == 64 else _q_eigenvalues)(curve, n, 10)
    assert np.max(np.abs(lam - ref) / ref) <= 1e-12


@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("seed", SEEDS)
def test_band_solve_agrees_with_dtn_q_on_generated_curves(seed, kind):
    curve = trig_curve(seed, kind)
    lam = solve_spectrum(curve, 256, 10).lambdas
    ref = _q_eigenvalues(curve, 256, 10)
    assert np.max(np.abs(lam - ref) / ref) <= 1e-12


def test_solve_records_its_band(kite_bounded):
    resolved = solve_spectrum(kite_bounded, 1024, 4)
    assert (resolved.sample_size, resolved.band_size) == (320, 187)
    assert resolved.band_tail <= 0.5 * np.finfo(float).eps * 320
    # criterion 4's coarsest grid sits below the kite's band: the sample is
    # the grid and its tail is recorded, but the traces are resolved and
    # nothing is raised (warnings are errors in this suite)
    coarse = solve_spectrum(kite_bounded, 160, 10)
    assert (coarse.sample_size, coarse.band_size) == (160, 160)
    assert 1e-10 < coarse.band_tail < 1e-6


def test_k_may_cut_a_degenerate_pair(g1_curve):
    # g1's eigenvalues come in pairs equal to ~1e-13 relative; an odd k
    # cuts one of them
    full = solve_spectrum(g1_curve, 256, 4)
    for k in (1, 3):
        spec = solve_spectrum(g1_curve, 256, k)
        assert np.max(np.abs(spec.lambdas - full.lambdas[:k]) / full.lambdas[:k]) <= 1e-12
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


def test_solve_matches_dense_q_on_resolved_grids():
    # Oracle: every eigenvalue of Q by dense QR, with the two of least
    # modulus (the zero pair, which the solve eliminates) dropped; k = 6
    # includes the disk's double eigenvalues 1, 2, 3.  The solve takes the
    # symmetric part of D E, which is Q's own form once the grid resolves
    # the curve; on coarser grids the two drift apart (g2 at n = 64: 1e-7).
    k = 6
    for family in builtin_families():
        for kind in DomainKind:
            curve = make_builtin(family, kind=kind)
            for n in (128, 256):
                ev = np.linalg.eigvals(assemble_q(build_dtn(curve, n)))
                ev = ev[np.argsort(np.abs(ev))][2 : k + 2]
                dense = np.sort(ev.real)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UnderResolvedWarning)  # g1 and g2 at n = 128
                    lam = solve_spectrum(curve, n, k).lambdas
                assert np.max(np.abs(lam - dense) / dense) <= 1e-10, (family, kind, n)


def test_symmetry_defect_is_at_rounding():
    for family in builtin_families():
        for kind in DomainKind:
            spec = solve_spectrum(make_builtin(family, kind=kind), 512, 10)
            assert spec.degree <= 256
            assert spec.symmetry_defect <= 1e-13, (family, kind)


@pytest.mark.parametrize("family, kind", [("kite", BOUNDED), ("g2", BOUNDED), ("g1", EXTERIOR)])
def test_ritz_values_do_not_increase_with_the_degree(family, kind):
    # Rayleigh–Ritz on nested spaces of trigonometric polynomials
    n, k = 1024, 60
    curve = make_builtin(family, kind=kind)
    grid = build_grid(curve, n)
    factors, rhs = conjugation_system(kernel_band(curve, grid))
    s = steklov.spectrum._dtn_band(-factors.solve(rhs), n)
    speed_hat = np.fft.fft(grid.speed) / n
    previous = None
    for degree in range(40, 257, 12):
        lam = steklov.spectrum._ritz(s, speed_hat, degree, k)[0]
        if previous is not None:
            assert np.all(lam <= previous * (1.0 + 1e-12)), degree
        previous = lam


_RITZ_TOL = math.sqrt(np.finfo(float).eps)


@pytest.mark.parametrize(
    "curve,n,k",
    [pytest.param(make_builtin(family, kind=kind), n, 10, id=f"{kind.value}-{family}-{n}")
     for kind in (BOUNDED, EXTERIOR) for family in builtin_families() for n in (256, 512, 1024, 2048)]
    + [pytest.param(trig_curve(seed, kind), 256, 10, id=f"{kind.value}-trig{seed}")
       for kind in (BOUNDED, EXTERIOR) for seed in SEEDS]
    + [pytest.param(make_builtin(family, kind=kind), 1024, 100, id=f"{kind.value}-{family}-k100")
       for kind in (BOUNDED, EXTERIOR) for family in ("kite", "g2")],
)
def test_ritz_pairs_are_certified(curve, n, k):
    # the solve stops at a degree where every Ritz pair's residual on the
    # whole grid is at most √ε, or at P = n/2
    spec = solve_spectrum(curve, n, k)
    assert spec.ritz_residual.shape == (k,)
    assert np.max(spec.ritz_residual) <= _RITZ_TOL
    assert spec.degree >= min((spec.band_size - 1) // 2, n // 2)  # P starts at the band


def _kato_temple_holds(lam, rho, ref):
    """Kato–Temple for the k lowest of k + 1 Ritz pairs against the grid's `ref`.

    0 <= λ_j - λ_ref,j <= (ρ_j λ_j)²/δ_j, δ_j the distance from λ_j to the
    nearest other eigenvalue in `ref`, up to the rounding of the two
    `eigh` calls: absolute, 1e-13 of the largest eigenvalue.  The bound
    is checked as (diff - rounding)·δ <= (ρλ)², so a zero gap needs no
    division.
    """
    k = lam.size - 1
    gap = np.array([np.min(np.abs(np.delete(ref, j) - lam[j])) for j in range(k)])
    diff, rounding = lam[:k] - ref[:k], 1e-13 * ref[k]
    return bool(np.all(diff >= -rounding)
                and np.all((diff - rounding) * gap <= (rho[:k] * lam[:k]) ** 2))


@pytest.mark.parametrize(
    "curve,n",
    [pytest.param(make_builtin(family, kind=kind), n, id=f"{kind.value}-{family}-{n}")
     for kind in (BOUNDED, EXTERIOR) for family in builtin_families() for n in (256, 512)]
    + [pytest.param(trig_curve(seed, kind), 256, id=f"{kind.value}-trig{seed}")
       for kind in (BOUNDED, EXTERIOR) for seed in SEEDS],
)
def test_certified_ritz_values_obey_kato_temple(curve, n, monkeypatch):
    # the solve's values against the grid problem's, P = n/2, from a k + 1
    # solve whose last value gives the top mode's gap
    spec = solve_spectrum(curve, n, 11)
    monkeypatch.setattr(steklov.spectrum, "_RITZ_TOL", 0.0)  # the degree runs to n/2
    ref = solve_spectrum(curve, n, 11)
    assert ref.degree == n // 2
    assert _kato_temple_holds(spec.lambdas, spec.ritz_residual, ref.lambdas)


@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("family", ["kite", "g2", "star2"])
def test_kato_temple_bounds_uncertified_ritz_values(family, kind):
    # below the certified degree the residual is far above √ε (g2 at
    # P = 24: 0.24) and the eigenvalues far from the grid's, and the bound
    # still holds: the residual is measured in the right norm
    n, k = 512, 11
    curve = make_builtin(family, kind=kind)
    grid = build_grid(curve, n)
    factors, rhs = conjugation_system(kernel_band(curve, grid))
    s = steklov.spectrum._dtn_band(-factors.solve(rhs), n)
    speed_hat = np.fft.fft(grid.speed) / n
    ref = steklov.spectrum._ritz(s, speed_hat, n // 2, k)[0]
    worst = 0.0
    for degree in (24, 32, 40, 48):
        lam, x, _ = steklov.spectrum._ritz(s, speed_hat, degree, k)
        rho = steklov.spectrum._ritz_residual(s, grid.speed, lam, x)
        assert _kato_temple_holds(lam, rho, ref), degree
        worst = max(worst, float(np.max(rho)))
    assert worst > 1e3 * _RITZ_TOL


def _counting_eighs(monkeypatch):
    """Patch scipy.linalg.eigh, which `densela` calls, to count its calls."""
    calls = []
    eigh_ = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigh_(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


def _eighs_per_solve(module, monkeypatch, eighs):
    """Wrap `module.solve_spectrum` to record the eigh calls each solve makes."""
    solve, counts = module.solve_spectrum, []

    def counted(*args):
        before = len(eighs)
        spec = solve(*args)
        counts.append(len(eighs) - before)
        return spec

    monkeypatch.setattr(module, "solve_spectrum", counted)
    return counts


def test_benchmark_solves_make_one_eigh(monkeypatch, tmp_path):
    # the band sets the first Ritz degree and the residual certifies it:
    # no ladder on the benchmark's solve-large, crossing and modes solves
    eighs = _counting_eighs(monkeypatch)
    for case in _benchmark_size_solves():
        before = len(eighs)
        solve_spectrum(*case)
        assert len(eighs) - before == 1, case
    crossing = _eighs_per_solve(steklov.studies, monkeypatch, eighs)
    find_crossing("ellipse", BOUNDED, 2, (1.5, 2.5))  # criterion 7's crossings
    find_crossing("ellipse", BOUNDED, 3, (2.5, 3.5))
    assert len(crossing) >= 6 and set(crossing) == {1}
    modes = _eighs_per_solve(steklov.cli, monkeypatch, eighs)
    for kind in ([], ["--exterior"]):
        argv = ["modes", "--curve", "kite", *kind, "--n", "512", "--k", "4", "--modes", "1,2,3,4",
                "--raster", "16", "--output", str(tmp_path / f"kite{len(kind)}")]
        assert steklov.cli.main(argv) == 0
    assert modes == [1, 1]


def test_spectrum_independent_of_alpha(g1_curve):
    spec_a = solve_spectrum(g1_curve, 512, 8)
    spec_b = solve_spectrum(replace(g1_curve, alpha=8.5 + 0j), 512, 8)
    assert np.max(np.abs(spec_a.lambdas - spec_b.lambdas)) <= 1e-10


def _similar(curve, a, z0):
    """Image of `curve` under z -> a z + z0 (complex a: scaling and rotation)."""
    return BoundaryCurve(
        name=curve.name,
        eta=lambda t: a * curve.eta(t) + z0,
        eta1=lambda t: a * curve.eta1(t),
        eta2=lambda t: a * curve.eta2(t),
        kind=curve.kind,
        alpha=None if curve.alpha is None else a * curve.alpha + z0,
    )


@pytest.mark.parametrize(
    "curve,alpha_shift",
    [pytest.param(make_builtin(family), shift, id=f"{family}-{shift}")
     for family, shift in (("g1", 0.9j), ("g2", 0.08), ("kite", 0.15 + 0.1j))]
    + [pytest.param(trig_curve(seed, kind), 0.3j if kind is BOUNDED else None,
                    id=f"trig{seed}-{kind.value}")
       for kind in (BOUNDED, EXTERIOR) for seed in SEEDS],
)
def test_similarity_and_base_point_invariance(curve, alpha_shift):
    # λ(aG) = λ(G)/|a| under scaling, rotation and translation; λ does not
    # depend on α.  Exact for the discretization, so to rounding at n = 256.
    lam = solve_spectrum(curve, 256, 10).lambdas
    for a, z0 in ((2.5, 0.0), (0.3, 0.0), (np.exp(0.7j), 0.0), (1.0, 3.0 - 2.0j),
                  (1.7 * np.exp(-2.1j), -5.0 + 1.0j)):
        got = solve_spectrum(_similar(curve, a, z0), 256, 10).lambdas
        assert np.max(np.abs(got * abs(a) - lam) / lam) <= 1e-12, (curve.name, a, z0)
    if alpha_shift is not None:
        got = solve_spectrum(replace(curve, alpha=curve.alpha + alpha_shift), 256, 10).lambdas
        assert np.max(np.abs(got - lam) / lam) <= 1e-12, (curve.name, "alpha")


def _cauchy_imag(spec):
    """|Im f(α)| per mode for f = γ + iμ, by the trapezoidal Cauchy rule on the solve's grid."""
    grid = spec.grid
    w = grid.eta1 / (1j * spec.n * (grid.eta - spec.curve.alpha))
    return np.abs(np.imag(w @ (spec.traces + 1j * spec.conjugates)))


@pytest.mark.parametrize(
    "curve,alpha_shift,n",
    [pytest.param(make_builtin(family), shift, 512, id=family)
     for family, shift in (("kite", 0.15 + 0.1j), ("g1", 0.9j), ("g2", 0.08))]
    + [pytest.param(trig_curve(seed), 0.3j, 256, id=f"trig{seed}") for seed in (0, 1)],
)
def test_alpha_sets_only_the_conjugates_constant(curve, alpha_shift, n):
    # the kernels do not read α: two base points give the same kernel sample,
    # eigenvalues and traces bit for bit, and conjugates that differ by one
    # constant per mode, the one that makes Im f(α) = 0
    moved = replace(curve, alpha=curve.alpha + alpha_shift)
    bands = [kernel_band(c, build_grid(c, n)) for c in (curve, moved)]
    assert np.array_equal(bands[0].b_sample, bands[1].b_sample)
    assert np.array_equal(bands[0].c_sample, bands[1].c_sample)
    specs = [solve_spectrum(c, n, 10) for c in (curve, moved)]
    assert np.array_equal(specs[0].lambdas, specs[1].lambdas)
    assert np.array_equal(specs[0].traces, specs[1].traces)
    scale = max(np.max(np.abs(spec.conjugates)) for spec in specs)
    assert np.max(np.ptp(specs[0].conjugates - specs[1].conjugates, axis=0)) <= 1e-14 * scale
    for spec in specs:
        assert np.max(_cauchy_imag(spec)) <= 1e-13 * np.max(np.abs(spec.conjugates))


@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("family,params", [pytest.param("g2", {}, id="g2"),
                                           pytest.param("star2", {}, id="star2"),
                                           pytest.param("ellipse", {"r": 2.0}, id="ellipse-2")])
def test_trace_signs_do_not_depend_on_rounding(family, params, kind):
    # on these symmetric curves a trace's largest magnitude is reached at
    # several nodes at once, equal up to rounding; the sign is that of the
    # first node within 1e-8 of it, so rotations, a translation and a moved
    # base point, which leave the traces as functions of t unchanged, flip
    # no mode that is simple (here: 1e-6 away from its neighbours)
    n, k = 512, 11
    curve = make_builtin(family, params, kind=kind)
    ref = solve_spectrum(curve, n, k)
    moves = [_similar(curve, np.exp(1j * theta), 0.0) for theta in (1e-3, 0.3, 2.0)]
    moves.append(_similar(curve, 1.0, 0.01 + 0.02j))
    if kind is BOUNDED:
        moves.append(replace(curve, alpha=curve.alpha + 0.05))
    gaps = np.diff(ref.lambdas) / ref.lambdas[1:] > 1e-6
    simple = (np.r_[True, gaps] & np.r_[gaps, False])[:-1]  # the last mode's upper gap is unknown
    weights = (2.0 * np.pi / n) * ref.grid.speed
    assert simple.sum() >= 6
    for moved in moves:
        traces = solve_spectrum(moved, n, k).traces[:, :-1]
        error = np.sqrt(weights @ (traces - ref.traces[:, :-1]) ** 2)
        assert np.all(error[simple] <= 1e-10), (moved.name, error)


# ---------------------------------------------------------------------------
# Under-resolution
# ---------------------------------------------------------------------------

THIN = ("ellipse", {"r": 50.0})


@pytest.mark.parametrize(
    "family,params,kind,n,k",
    [("g2", {}, BOUNDED, n, 4) for n in (32, 64)]
    + [(*THIN, BOUNDED, n, 4) for n in (128, 256)]
    + [(*THIN, EXTERIOR, n, 4) for n in (128, 256)]
    + [("g1", {}, BOUNDED, 16, 3)],
)
def test_under_resolved_solve_warns(family, params, kind, n, k):
    # eigenvalue errors here run from 4e-5 (thin ellipse, bounded, n = 256)
    # to 37% (exterior, n = 128)
    with pytest.warns(UnderResolvedWarning):
        spec = solve_spectrum(make_builtin(family, params, kind=kind), n, k)
    assert np.max(spec.trace_tail) > TRACE_TAIL_WARN


@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("n", [32, 64])
def test_coarse_thin_exterior_ellipse_raises(n, kind):
    # the grid pencil is indefinite (bounded: lowest eigenvalue -2.05 at
    # n = 32, -12.7 at n = 64), and the first Ritz degree already shows it
    with pytest.raises(DiscretizationError, match="non-positive eigenvalue"):
        solve_spectrum(make_builtin(*THIN, kind=kind), n, 4)


def _benchmark_size_solves():
    # solve-large at its full and self-test sizes, the modes workload
    # (full and self-test) and the crossing workload's ellipse range
    for n in (2048, 512):
        for family, kind in (("g1", BOUNDED), ("g2", BOUNDED), ("kite", BOUNDED), ("kite", EXTERIOR)):
            yield make_builtin(family, kind=kind), n, 10
    for n in (512, 128):
        for kind in (BOUNDED, EXTERIOR):
            yield make_builtin("kite", kind=kind), n, 4
    for n in (256, 128):
        for r in (1.35, 3.65):
            yield scale_to_perimeter("ellipse", {"r": r}, 2 * math.pi, n), n, 4


# (m', m, P) of each case of _benchmark_size_solves, in its order
BENCHMARK_SIZES = [
    (448, 307, 153), (512, 339, 169), (320, 187, 93), (320, 187, 93),
    (448, 307, 153), (512, 339, 169), (320, 187, 93), (320, 187, 93),
    (320, 187, 93), (320, 187, 93), (128, 128, 64), (128, 128, 64),
    (64, 35, 17), (192, 113, 56), (64, 35, 17), (128, 113, 56),
]


def test_benchmark_solves_keep_their_sizes():
    # sample, band and Ritz degree set the benchmark's work: a change to the
    # band or the degree selection that moves them shows here first
    sizes = [(spec.sample_size, spec.band_size, spec.degree)
             for spec in (solve_spectrum(*case) for case in _benchmark_size_solves())]
    assert sizes == BENCHMARK_SIZES


def test_resolved_solves_make_no_warning():
    # the criterion fixtures are pinned by test_acceptance's warning filter
    cases = [(make_builtin("g2"), 256, 10), *_benchmark_size_solves()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for curve, n, k in cases:
            spec = solve_spectrum(curve, n, k)
            assert np.max(spec.trace_tail) <= TRACE_TAIL_WARN


@pytest.mark.parametrize(
    "curve",
    [pytest.param(scale_to_perimeter(family, params, 2 * np.pi, 256), id=f"{family}-params{j}")
     for j, (family, params) in enumerate(
         [("ellipse", {"r": 1.0}), ("ellipse", {"r": 2.0}), ("star2", {"r": 0.3})])]
    + [pytest.param(trig_curve(seed), id=f"trig{seed}") for seed in SEEDS],
)
def test_weinstock_bound_at_fixed_perimeter(curve):
    # λ₁|Γ| <= 2π on every simply connected bounded domain (Weinstock, 1954)
    spec = solve_spectrum(curve, 256, 2)
    assert spec.lambdas[0] * spec.perimeter <= 2 * np.pi * (1.0 + 1e-10)


def test_interior_and_exterior_share_asymptotic_slope(kite_bounded, kite_exterior):
    spec_i = solve_spectrum(kite_bounded, 512, 60)
    spec_e = solve_spectrum(kite_exterior, 512, 60)
    slope = 2 * np.pi / spec_i.perimeter
    for spec in (spec_i, spec_e):
        near = abs(spec.lambdas[2 * 28 - 1] - slope * 28)
        far = abs(spec.lambdas[2 * 18 - 1] - slope * 18)
        assert near < far


# ---------------------------------------------------------------------------
# Shape derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind, first_pair", [(BOUNDED, (-1.25, 0.25)), (EXTERIOR, (-0.75, -0.25))]
)
def test_degenerate_pair_derivatives_on_the_disk(kind, first_pair):
    # V = i sin t is the ellipse's ∂_r η at r = 1 (t ↦ -t for the exterior);
    # each degenerate pair splits into the branches of ellipse(1 + h).
    disk = make_builtin("disk", kind=kind)
    spec = solve_spectrum(disk, 256, 6)
    t = spec.grid.t
    velocity = 1j * np.sin(t if kind is BOUNDED else -t)
    assert np.array_equal(velocity, make_builtin("ellipse", {"r": 1.0}, kind=kind).eta_r(t))
    derivs = eigenvalue_derivatives(spec, velocity)
    h = 1e-7
    step = solve_spectrum(make_builtin("ellipse", {"r": 1.0 + h}, kind=kind), 256, 6)
    assert np.max(np.abs(derivs - (step.lambdas - spec.lambdas) / h)) <= 1e-5
    assert np.max(np.abs(derivs[:2] - first_pair)) <= 1e-12


def test_velocity_shape_is_checked(disk):
    spec = solve_spectrum(disk, 64, 4)
    for velocity in (np.ones(65), np.ones((64, 1)), np.ones(())):
        with pytest.raises(ValueError, match="shape"):
            eigenvalue_derivatives(spec, velocity)


@pytest.mark.parametrize("family, r", [("ellipse", 2.0), ("ellipse", 3.5), ("star2", 0.3),
                                       ("star2", 0.6)])
@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
def test_eigenvalue_derivatives_match_central_differences(family, r, kind):
    spec = solve_spectrum(make_builtin(family, {"r": r}, kind=kind), 256, 6)
    derivs = eigenvalue_derivatives(spec, spec.curve.eta_r(spec.grid.t))
    h = 1e-5
    up, down = (
        solve_spectrum(make_builtin(family, {"r": r + s}, kind=kind), 256, 6).lambdas
        for s in (h, -h)
    )
    fd = (up - down) / (2.0 * h)
    assert np.max(np.abs(derivs - fd)) <= 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize(
    "curve",
    [pytest.param(make_builtin(family, kind=kind), id=f"{kind}-{family}")
     for kind in (BOUNDED, EXTERIOR) for family in builtin_families()]
    + [pytest.param(trig_curve(seed, kind), id=f"{kind}-trig{seed}")
       for kind in (BOUNDED, EXTERIOR) for seed in SEEDS],
)
def test_shape_derivative_invariants(curve):
    # dilation V = η scales λ by 1/(1 + ε); rotation and translations keep it
    spec = solve_spectrum(curve, 512, 10)
    eta = spec.grid.eta
    lam = spec.lambdas
    dilation = eigenvalue_derivatives(spec, eta)
    assert np.max(np.abs(dilation + lam) / lam) <= 1e-12
    for velocity in (1j * eta, np.ones(512), np.full(512, 1j)):
        assert np.max(np.abs(eigenvalue_derivatives(spec, velocity))) <= 1e-12 * np.max(lam)
