"""Acceptance suite: every release criterion at its stated tolerance.

Reference eigenvalues are converged n = 2^10 values for the benchmark
domains; they are stable to ~1e-13 under further grid refinement and
independently confirmed by published computations on the same
geometries.  Each test prints one [PASS]/[FAIL] line.
"""

import time

import numpy as np
import pytest

from steklov import DomainKind, make_builtin, solve_spectrum
from steklov.densela import smallest_magnitude_eigs
from steklov.extension import BoundaryFunction, cauchy_eval, eigenmode_field
from steklov.operators import build_dtn, wittich_matrix
from steklov.spectrum import assemble_q
from steklov.studies import check_inequalities, find_crossing, parameter_sweep

G1_SCALED = np.array([
    1.61465185265077, 1.61465185265086, 2.97737736702950, 2.97737736702974,
    5.48337898612383, 5.48337898612393, 6.70773879741621, 6.70773879741642,
    7.65773980917837, 9.01958292273808,
])
G2_SCALED = np.array([
    0.82158389917705, 2.88853778576938, 2.94484661549781, 3.34172628966417,
    4.55074794910963, 5.03673963982603, 6.23305352696130, 6.32549098892433,
    7.80580771944321, 7.90841610595226,
])
KITE_INTERIOR = np.array([
    0.40305996416748, 0.52424200142763, 1.18270198665242, 1.38370805250322,
    1.72113574153495, 2.01779563230560, 2.20083979220023, 2.70613635836981,
    2.78466524903348,
])
KITE_EXTERIOR = np.array([
    0.54467770056080, 0.57081699412402, 1.12953414359678, 1.30930577399346,
    1.74564067269481, 1.82146960379857, 2.29287781627365, 2.44997484632459,
    2.90350756743372,
])
ELLIPSE_CROSSING_R = {2: 1.983873708359900, 3: 3.117811741879000}
ELLIPSE_CROSSING_VALUE_K2 = 1.679239176823

# Every criterion solve is resolved: none may flag itself as under-resolved.
pytestmark = pytest.mark.filterwarnings("error::steklov.UnderResolvedWarning")


def criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def kite_interior_spectrum():
    return solve_spectrum(make_builtin("kite"), 1024, 100)


@pytest.fixture(scope="module")
def kite_exterior_spectrum():
    return solve_spectrum(
        make_builtin("kite", kind=DomainKind.UNBOUNDED_EXTERIOR), 1024, 100
    )


def test_criterion_1_disk_exactness():
    exact = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], dtype=float)
    start = time.perf_counter()
    worst = 0.0
    for n in range(24, 65, 2):
        spec = solve_spectrum(make_builtin("disk"), n, 10)
        worst = max(worst, float(np.max(np.abs(spec.lambdas - exact) / exact)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    criterion(1, "disk spectrum exact for n = 24..64", ok,
              f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_benchmark_domains_scaled():
    spec1 = solve_spectrum(make_builtin("g1"), 1024, 10)
    err1 = float(np.max(np.abs(spec1.lambdas_scaled - G1_SCALED)))
    spec2 = solve_spectrum(make_builtin("g2"), 1024, 10)
    err2 = float(np.max(np.abs(spec2.lambdas_scaled - G2_SCALED)))
    ok = err1 <= 1e-9 and err2 <= 1e-9
    criterion(2, "area-scaled benchmark spectra at n = 1024", ok,
              f"g1 err {err1:.2e}, g2 err {err2:.2e}")


def test_criterion_3_kite_interior_exterior(kite_interior_spectrum, kite_exterior_spectrum):
    err_i = float(np.max(np.abs(kite_interior_spectrum.lambdas[:9] - KITE_INTERIOR)))
    err_e = float(np.max(np.abs(kite_exterior_spectrum.lambdas[:9] - KITE_EXTERIOR)))
    ok = err_i <= 1e-9 and err_e <= 1e-9
    criterion(3, "kite interior/exterior spectra at n = 1024", ok,
              f"interior err {err_i:.2e}, exterior err {err_e:.2e}")


def test_criterion_4_kite_convergence(kite_interior_spectrum, kite_exterior_spectrum):
    worst = 0.0
    for reference, curve in (
        (kite_interior_spectrum.lambdas[:10], make_builtin("kite")),
        (kite_exterior_spectrum.lambdas[:10],
         make_builtin("kite", kind=DomainKind.UNBOUNDED_EXTERIOR)),
    ):
        for n in range(160, 401, 40):
            lam = solve_spectrum(curve, n, 10).lambdas
            worst = max(worst, float(np.max(np.abs(lam - reference) / reference)))
    ok = worst <= 1e-12
    criterion(4, "kite eigenvalues converged for n >= 160", ok, f"max rel err {worst:.2e}")


def test_criterion_5_operator_spectrum_structure():
    disc = build_dtn(make_builtin("g1"), 256)
    ew = np.linalg.eigvals(disc.E)
    zeros = np.abs(ew) <= 1e-8
    rest = ew[~zeros]
    dist_e = float(np.max(np.minimum(np.abs(rest - 1j), np.abs(rest + 1j))))
    ok_e = int(zeros.sum()) == 2 and dist_e <= 1e-8

    ok_k, dist_k = True, 0.0
    for n in (16, 50, 128):
        kw = np.linalg.eigvals(wittich_matrix(n))
        kz = np.abs(kw) <= 1e-12
        kd = float(np.max(np.minimum(np.abs(kw[~kz] - 1j), np.abs(kw[~kz] + 1j))))
        dist_k = max(dist_k, kd)
        ok_k = ok_k and int(kz.sum()) == 2 and kd <= 1e-12
    criterion(5, "conjugation matrices: double zero, rest at +-i", ok_e and ok_k,
              f"E dist {dist_e:.2e}, K dist {dist_k:.2e}")


def test_criterion_6_analytic_conjugation_all_builtins():
    cases = [("disk", {}), ("ellipse", {"r": 2.0}), ("star2", {"r": 0.5}),
             ("kite", {}), ("g1", {}), ("g2", {})]
    worst = 0.0
    for family, params in cases:
        bounded = make_builtin(family, params)
        disc = build_dtn(bounded, 512)
        for m in range(1, 6):
            f = (disc.grid.eta - bounded.alpha) ** m
            worst = max(worst, float(np.max(np.abs(disc.E @ f.real - f.imag))))
        exterior = make_builtin(family, params, kind=DomainKind.UNBOUNDED_EXTERIOR)
        disc = build_dtn(exterior, 512)
        for m in range(1, 6):
            f = (disc.grid.eta - bounded.alpha) ** (-m)
            worst = max(worst, float(np.max(np.abs(disc.E @ f.real - f.imag))))
    ok = worst <= 1e-9
    criterion(6, "conjugation exact on analytic oracles at n = 512", ok,
              f"max sup error {worst:.2e}")


def test_criterion_7_ellipse_crossings():
    res2 = find_crossing("ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.5, 2.5))
    res3 = find_crossing("ellipse", DomainKind.BOUNDED_INTERIOR, 3, (2.5, 3.5))
    rel2 = abs(res2.r - ELLIPSE_CROSSING_R[2]) / ELLIPSE_CROSSING_R[2]
    rel3 = abs(res3.r - ELLIPSE_CROSSING_R[3]) / ELLIPSE_CROSSING_R[3]
    val_err = max(abs(res2.lambda_low - ELLIPSE_CROSSING_VALUE_K2),
                  abs(res2.lambda_high - ELLIPSE_CROSSING_VALUE_K2))
    ok = rel2 <= 1e-6 and rel3 <= 1e-6 and val_err <= 1e-8
    criterion(7, "ellipse eigenvalue crossings located", ok,
              f"r rel errs {rel2:.2e}/{rel3:.2e}, value err {val_err:.2e}")


def test_criterion_8_inequality_suite():
    r_values = np.arange(1.0, 10.01, 0.5)
    bounded = parameter_sweep("ellipse", DomainKind.BOUNDED_INTERIOR, r_values, 2)
    rec_b = check_inequalities(bounded, DomainKind.BOUNDED_INTERIOR, tol=1e-10)
    worst_sum = min(rec.slack_sum for rec in rec_b)
    worst_prod = min(rec.slack_product for rec in rec_b)

    exterior = parameter_sweep("ellipse", DomainKind.UNBOUNDED_EXTERIOR, r_values, 2)
    rec_e = check_inequalities(exterior, DomainKind.UNBOUNDED_EXTERIOR, tol=1e-10)
    worst_bound = min(rec.slack_bound for rec in rec_e)
    equality_at_disk = abs(rec_e[0].slack_bound)

    ok = (worst_sum >= -1e-10 and worst_prod >= -1e-10 and worst_bound >= -1e-10
          and equality_at_disk <= 1e-10)
    criterion(8, "spectral inequalities over the ellipse sweep", ok,
              f"min slacks {worst_sum:.2e}/{worst_prod:.2e}/{worst_bound:.2e}, "
              f"disk equality {equality_at_disk:.2e}")


def test_criterion_9_asymptotic_regime(kite_interior_spectrum, kite_exterior_spectrum):
    slope_i = 2 * np.pi / kite_interior_spectrum.perimeter
    slope_e = 2 * np.pi / kite_exterior_spectrum.perimeter
    gap_i_20 = abs(kite_interior_spectrum.lambdas[39] - 20 * slope_i)
    gap_i_50 = abs(kite_interior_spectrum.lambdas[99] - 50 * slope_i)
    gap_e_20 = abs(kite_exterior_spectrum.lambdas[39] - 20 * slope_e)
    ok = gap_i_50 < gap_i_20 and gap_e_20 < gap_i_20
    criterion(9, "asymptotic gaps shrink with k, exterior enters earlier", ok,
              f"interior k=20/50: {gap_i_20:.2e}/{gap_i_50:.2e}, exterior k=20: {gap_e_20:.2e}")


def test_criterion_10_harmonic_extension():
    # polynomial / rational oracles at the module example tolerances
    disk = make_builtin("disk")
    disc = build_dtn(disk, 64)
    bf = BoundaryFunction(grid=disc.grid, curve=disk, values=disc.grid.eta)
    err_id = abs(cauchy_eval(bf, np.array([0.3 + 0.4j])).values[0] - (0.3 + 0.4j))

    g1 = make_builtin("g1")
    disc = build_dtn(g1, 256)
    bf = BoundaryFunction(grid=disc.grid, curve=g1, values=(disc.grid.eta - 8.0) ** 2)
    err_poly = abs(cauchy_eval(bf, np.array([8.0 + 2.0j])).values[0] - (-4.0))

    ext = make_builtin("disk", kind=DomainKind.UNBOUNDED_EXTERIOR)
    disc = build_dtn(ext, 64)
    bf = BoundaryFunction(grid=disc.grid, curve=ext, values=1.0 / disc.grid.eta, f_infinity=0.0)
    err_rat = abs(cauchy_eval(bf, np.array([2.0 + 0.0j])).values[0] - 0.5)

    poly_ok = err_id <= 1e-13 and err_poly <= 1e-10 and err_rat <= 1e-12

    # first disk eigenfunction is linear: u = |c| Re(z e^{-i phase}),
    # with the two-fold rotational degeneracy fixed by the trace phase.
    # The phase is the eigensolver's free choice, so the points are drawn
    # in the mode's own frame and stay off its nodal line for any phase.
    spec = solve_spectrum(disk, 64, 2)
    c1 = np.fft.ifft(spec.traces[:, 0])[1]
    amp, phase = 2 * abs(c1), np.angle(c1)
    rng = np.random.default_rng(2024)
    pts = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    pts = pts * np.exp(1j * phase)
    predicted = amp * np.real(pts * np.exp(-1j * phase))
    assert np.min(np.abs(predicted)) > 1e-4  # seed keeps points off the nodal line
    u = eigenmode_field(spec, 1, pts).u
    rel = float(np.max(np.abs(u - predicted) / np.abs(predicted)))
    ok = poly_ok and rel <= 1e-8
    criterion(10, "harmonic extension: oracles exact, disk mode linear", ok,
              f"oracle errs {err_id:.1e}/{err_poly:.1e}/{err_rat:.1e}, field rel {rel:.2e}")
