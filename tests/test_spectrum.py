import contextlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.blas

import steklov.densela
import steklov.operators
import steklov.spectrum
from generated_curves import trig_curve
from steklov import BoundaryCurve, DomainKind, builtin_families, make_builtin, scale_to_perimeter
from steklov.densela import smallest_magnitude_eigs
from steklov.operators import (
    DiscretizationError,
    apply_diff_fast,
    build_dtn,
    fourier_diff_matrix,
    wittich_matrix,
)
from steklov.spectrum import (
    TRACE_TAIL_WARN,
    UnderResolvedWarning,
    assemble_q,
    eigenvalue_derivatives,
    solve_spectrum,
)

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
    # |η'| is constant, so M·1 = 0 exactly; Arnoldi must not start from 1
    disk = make_builtin("disk", kind=kind)
    for k in range(1, n // 2 - 1):
        spec = solve_spectrum(disk, n, k)
        assert np.max(np.abs(spec.lambdas - DISK_FIRST_TEN[:k])) <= 1e-12


def test_start_vector_has_content_in_every_reflection_class(monkeypatch):
    start = []
    arpack = steklov.densela._arpack_eigs

    def recording(*args, **kwargs):
        start.append(kwargs["v0"])
        return arpack(*args, **kwargs)

    monkeypatch.setattr(steklov.densela, "_arpack_eigs", recording)
    n = 256
    solve_spectrum(make_builtin("ellipse", {"r": 2.0}), n, 4)
    v = start[0][:n]
    j = np.arange(n)
    for s in (0, n // 2):  # the ellipse's grid reflections j -> s - j, about its two axes
        mirrored = v[(s - j) % n]
        for part in (v + mirrored, v - mirrored):
            assert np.linalg.norm(part / 2.0) >= 0.1 * np.linalg.norm(v)


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
    # the kernel sample, its coefficients and ARPACK's basis are the largest
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
    assert shapes[0][0] == shapes[0][1] <= spec.band_size + 4 < 1024
    assert set(rhs_ndims) == {1}  # Arnoldi steps only; no matrix solve


def test_b_and_the_factors_share_one_blas_runtime(kite_bounded, monkeypatch):
    # numpy's @ would run on numpy's OpenBLAS thread pool, the solves on scipy's
    gemv, gemm = scipy.linalg.blas.dgemv, scipy.linalg.blas.dgemm
    solve = steklov.densela.LUFactors.solve
    gemv_args, gemm_calls, vector_solves = [], [], []

    def counting_gemv(alpha, a, x, *args, **kwargs):
        gemv_args.append(a)
        return gemv(alpha, a, x, *args, **kwargs)

    def counting_gemm(alpha, a, b, *args, **kwargs):
        gemm_calls.append(a.shape)
        return gemm(alpha, a, b, *args, **kwargs)

    def counting_solve(self, b):
        vector_solves.append(np.ndim(b) == 1)
        return solve(self, b)

    monkeypatch.setattr(scipy.linalg.blas, "dgemv", counting_gemv)
    monkeypatch.setattr(scipy.linalg.blas, "dgemm", counting_gemm)
    monkeypatch.setattr(steklov.densela.LUFactors, "solve", counting_solve)
    spec = solve_spectrum(kite_bounded, 512, 6)
    steps = sum(vector_solves)
    assert steps == len(vector_solves) > 0
    band = [a for a in gemv_args if a.shape[0] == a.shape[1]]
    assert len(band) == steps and all(a is band[0] for a in band)  # B's band, once per step
    assert band[0].shape[0] == spec.band_size + 1
    assert len(gemv_args) == 2 * steps  # and Nᵀ W outside the band
    assert len(gemm_calls) == 2  # the residual's B and C̃, from the whole sample


def _dense_pencil(curve, n):
    """The (n+2)-square A and M of the pencil, from the grid's own B and C."""
    disc = build_dtn(curve, n)
    null = np.column_stack((np.ones(n), (-1.0) ** np.arange(n)))
    i_minus_b = np.eye(n) - disc.B
    a = np.block([[disc.C, i_minus_b @ null], [(null * disc.grid.speed[:, None]).T, np.zeros((2, 2))]])
    dpinv_w = apply_diff_fast(np.diag(disc.grid.speed), pinv=True)
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = -i_minus_b @ dpinv_w
    return a, m


@pytest.mark.parametrize("family", ["kite", "g2"])
@pytest.mark.parametrize("n", [128, 512])
def test_shift_invert_matches_the_dense_pencil(family, n, rng):
    # kite and g2 resolve on 256 and 512 nodes: n = 128 is sampled whole,
    # the kite at n = 512 through a 256-node sample and its band
    curve = make_builtin(family)
    apply = steklov.spectrum._shift_invert(steklov.operators.build_band_pencil(curve, n))
    a, m = _dense_pencil(curve, n)
    x = rng.standard_normal(n + 2)
    ref = np.linalg.solve(a, m @ x)
    assert np.max(np.abs(apply.matvec(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def _q_eigenvalues(curve, n, k):
    """The k least nonzero eigenvalues of build_dtn's Q: Q + I has its zero pair at 1."""
    q = assemble_q(build_dtn(curve, n))
    values = np.sort(smallest_magnitude_eigs(q + np.eye(n), k + 2).values.real)
    return values[2:] - 1.0


_Q_GRIDS = [64, 128, 256, 512] + [pytest.param(n, marks=pytest.mark.slow) for n in (1024, 2048)]


@pytest.mark.parametrize("n", _Q_GRIDS)
@pytest.mark.parametrize("kind", [BOUNDED, EXTERIOR])
@pytest.mark.parametrize("family", builtin_families())
def test_band_solve_agrees_with_dtn_q(family, kind, n):
    # both discretize the same grid operator, resolved or not
    curve = make_builtin(family, kind=kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        lam = solve_spectrum(curve, n, 10).lambdas
    ref = _q_eigenvalues(curve, n, 10)
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
    assert (resolved.sample_size, resolved.band_size) == (256, 189)
    assert resolved.band_tail <= 0.5 * np.finfo(float).eps * 256
    # criterion 4's coarsest grid sits below the kite's band: the sample is
    # the grid and its tail is recorded, but the traces are resolved and
    # nothing is raised (warnings are errors in this suite)
    coarse = solve_spectrum(kite_bounded, 160, 10)
    assert (coarse.sample_size, coarse.band_size) == (160, 160)
    assert 1e-10 < coarse.band_tail < 1e-6


def test_k_may_cut_a_degenerate_pair(g1_curve):
    # g1's eigenvalues come in pairs equal to ~1e-13 relative, which Arnoldi
    # may return as complex-conjugate pairs; an odd k cuts one of them
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


def test_arnoldi_path_matches_dense_path():
    # Oracle: every eigenvalue of Q by dense QR, with the two of least
    # modulus (the zero pair, which the pencil does not have) dropped;
    # k = 6 includes the disk's double eigenvalues 1, 2, 3.
    k = 6
    for family in builtin_families():
        for kind in DomainKind:
            curve = make_builtin(family, kind=kind)
            for n in (32, 64, 256):
                ev = np.linalg.eigvals(assemble_q(build_dtn(curve, n)))
                ev = ev[np.argsort(np.abs(ev))][2 : k + 2]
                dense = np.sort(ev.real)
                # the coarse grids are deliberate, since both paths agree at any n; every
                # family but the disk and the ellipse is flagged there
                flagged = n < 256 and family not in ("disk", "ellipse")
                with pytest.warns(UnderResolvedWarning) if flagged else contextlib.nullcontext():
                    lam = solve_spectrum(curve, n, k).lambdas
                assert np.max(np.abs(lam - dense) / dense) <= 1e-10, (family, kind, n)


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


# ---------------------------------------------------------------------------
# Under-resolution
# ---------------------------------------------------------------------------

THIN = ("ellipse", {"r": 50.0})


@pytest.mark.parametrize(
    "family,params,kind,n,k",
    [(*THIN, BOUNDED, n, 4) for n in (32, 64, 128, 256)]
    + [(*THIN, EXTERIOR, n, 4) for n in (128, 256)]
    + [("g1", {}, BOUNDED, 16, 3)],
)
def test_under_resolved_solve_warns(family, params, kind, n, k):
    # eigenvalue errors here run from 4e-5 (bounded, n = 256) to 37% (exterior, n = 128)
    with pytest.warns(UnderResolvedWarning):
        spec = solve_spectrum(make_builtin(family, params, kind=kind), n, k)
    assert np.max(spec.trace_tail) > TRACE_TAIL_WARN


@pytest.mark.parametrize("n", [32, 64])
def test_coarse_thin_exterior_ellipse_raises(n):
    with pytest.raises(DiscretizationError, match="non-positive eigenvalue"):
        solve_spectrum(make_builtin(*THIN, kind=EXTERIOR), n, 4)


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
