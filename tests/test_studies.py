import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov
import steklov.studies as studies
from steklov import DomainKind, UnderResolvedWarning, build_grid, make_builtin, solve_spectrum
from steklov.studies import (
    StudyError,
    asymptotic_gaps,
    check_inequalities,
    convergence_study,
    curve_reflections,
    find_crossing,
    gap_decay_summary,
    paper_n_policy,
    parameter_sweep,
)

# Converged crossing locations of the bounded ellipse family at fixed
# perimeter 2π: smallest r with lambda_k(r) = lambda_{k+1}(r).  Stable
# to ~1e-10 relative under grid refinement from n = 256 up.
ELLIPSE_CROSSINGS = {
    2: 1.983873708359900,
    3: 3.117811741879000,
    4: 4.278336858589900,
    5: 5.442032493985020,
    6: 6.604561045328200,
    7: 7.765356504288500,
    8: 8.924566918140600,
    9: 10.082445969980300,
}
# Both eigenvalues at the k = 2 crossing.
ELLIPSE_K2_CROSSING_VALUE = 1.679239176823
# Golden-section r* for k = 2 on (1.7, 2.3) at n = 256, r_tol = 1e-8.
ELLIPSE_K2_GOLDEN_R = 1.9838737085235256


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

def test_disk_convergence_is_flat(disk):
    records = convergence_study(disk, list(range(24, 65, 8)), 10, 128)
    exact = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], dtype=float)
    reference = solve_spectrum(disk, 128, 10).lambdas
    assert np.max(np.abs(reference - exact) / exact) <= 1e-12
    for rec in records:
        assert np.max(rec.rel_errors) <= 1e-12


def test_kite_convergence_decays(kite_bounded):
    with pytest.warns(UnderResolvedWarning):  # n = 64 is deliberately coarse
        records = convergence_study(kite_bounded, [64, 96, 128], 10, 512)
    maxima = [np.max(rec.rel_errors) for rec in records]
    assert maxima[1] < maxima[0] / 100.0
    assert maxima[2] <= 1e-10


def test_reference_must_exceed_tested_grids(disk):
    with pytest.raises(StudyError):
        convergence_study(disk, [32, 64], 4, 64)
    with pytest.raises(StudyError):
        convergence_study(disk, [], 4, 64)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_circle_point():
    records = parameter_sweep(
        "ellipse", DomainKind.BOUNDED_INTERIOR, [1.0], 4, n_policy=128
    )
    rec = records[0]
    assert rec.a == pytest.approx(1.0, abs=1e-12)
    assert rec.perimeter == pytest.approx(2 * np.pi, abs=1e-12)
    assert rec.area == pytest.approx(np.pi, abs=1e-12)
    assert rec.lambdas[0] == pytest.approx(1.0, abs=1e-10)
    assert rec.lambdas[1] == pytest.approx(1.0, abs=1e-10)


def test_sweep_star_at_r0_is_disk():
    records = parameter_sweep("star2", DomainKind.BOUNDED_INTERIOR, [0.0], 6, n_policy=128)
    assert np.allclose(records[0].lambdas, [1, 1, 2, 2, 3, 3], atol=1e-10)


def test_sweep_fixes_perimeter_and_sorts():
    records = parameter_sweep(
        "ellipse", DomainKind.BOUNDED_INTERIOR, [1.0, 2.0, 3.0], 6, n_policy=128
    )
    for rec in records:
        assert abs(rec.perimeter - 2 * np.pi) <= 1e-8
        assert np.all(np.diff(rec.lambdas) >= 0)


def test_sweep_n_policy():
    policy = paper_n_policy("ellipse")
    assert policy(1.0) == 1024
    assert policy(5.0) == 1024
    assert policy(5.5) == 2048
    policy = paper_n_policy("star2")
    assert policy(0.6) == 1024
    assert policy(0.7) == 2048


def test_bounded_first_eigenvalue_decreases_along_families():
    for family, r_values in (("ellipse", [1.0, 2.0, 4.0]), ("star2", [0.0, 0.3, 0.5])):
        records = parameter_sweep(
            family, DomainKind.BOUNDED_INTERIOR, r_values, 2, n_policy=192
        )
        lam1 = [rec.lambdas[0] for rec in records]
        assert np.all(np.diff(lam1) < 1e-10)


def test_exterior_ellipse_branches_are_monotone():
    records = parameter_sweep(
        "ellipse",
        DomainKind.UNBOUNDED_EXTERIOR,
        list(range(1, 11)),
        10,
        n_policy=lambda r: 256 if r <= 5 else 512,
    )
    lam = np.array([rec.lambdas for rec in records])
    for k in range(10):
        diffs = np.diff(lam[:, k])
        if k % 2 == 0:  # odd mode index (1-based): non-increasing in r
            assert np.all(diffs <= 1e-10)
        else:
            assert np.all(diffs >= -1e-10)


# ---------------------------------------------------------------------------
# Crossings
# ---------------------------------------------------------------------------

def test_crossing_k2_reproduces_reference():
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.7, 2.3), n_policy=256
    )
    expected = ELLIPSE_CROSSINGS[2]
    assert abs(result.r - expected) / expected <= 1e-6
    assert result.gap <= 1e-6
    assert result.lambda_low == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)
    assert result.lambda_high == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)
    assert result.method == "brent"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("shift", [-0.15, -0.10, 0.0, 0.15])
def test_crossing_brent_across_bracket_shifts(k, shift):
    # (2.40, 3.40) for k = 3 lands on the crossing itself, where the two
    # traces mix; (2.35, 3.35) starts below a crossing of λ_4 with λ_5.
    lo, hi = {2: (1.5, 2.5), 3: (2.5, 3.5)}[k]
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, k, (lo + shift, hi + shift), n_policy=256
    )
    assert result.method == "brent"
    assert result.solves <= 10
    expected = ELLIPSE_CROSSINGS[k]
    assert abs(result.r - expected) / expected <= 1e-6
    assert result.gap <= 1e-6
    if k == 2:
        assert result.lambda_low == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)
        assert result.lambda_high == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)


@pytest.mark.parametrize(
    "family, params, count",
    [
        ("ellipse", {"r": 2.0}, 2),
        ("star2", {"r": 0.3}, 2),
        ("g2", None, 2),
        ("g1", None, 1),
        ("kite", None, 0),
        ("disk", None, 256),
    ],
)
@pytest.mark.parametrize("kind", list(DomainKind))
def test_curve_reflections_on_builtins(family, params, count, kind):
    eta = build_grid(make_builtin(family, params, kind=kind), 256).eta
    shifts = curve_reflections(eta)
    assert len(shifts) == count
    j = np.arange(256)
    for s in shifts:
        mirrored = eta[(s - j) % 256]
        # the reflection z -> u conj(z) + c through two samples fixes it
        u = (mirrored[1] - mirrored[0]) / np.conj(eta[1] - eta[0])
        c = mirrored[0] - u * np.conj(eta[0])
        assert abs(abs(u) - 1.0) <= 1e-12
        assert np.max(np.abs(mirrored - u * np.conj(eta) - c)) <= 1e-12 * np.max(np.abs(eta))


@pytest.mark.parametrize(
    "detector", [lambda eta: [], lambda eta: list(range(eta.size))], ids=["none", "disk-like"]
)
def test_crossing_falls_back_to_golden(monkeypatch, detector):
    monkeypatch.setattr(studies, "curve_reflections", detector)
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.7, 2.3), n_policy=256
    )
    assert result.method == "golden"
    assert result.r == pytest.approx(ELLIPSE_K2_GOLDEN_R, rel=1e-12)
    assert result.lambda_low == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)
    assert result.solves == 42


def test_crossing_rejects_monotone_bracket():
    with pytest.raises(StudyError):
        find_crossing(
            "ellipse",
            DomainKind.BOUNDED_INTERIOR,
            2,
            (2.5, 3.0),
            r_tol=1e-4,
            n_policy=128,
        )


def test_crossing_argument_checks():
    with pytest.raises(StudyError):
        find_crossing("ellipse", DomainKind.BOUNDED_INTERIOR, 0, (1.5, 2.5))
    with pytest.raises(StudyError):
        find_crossing("ellipse", DomainKind.BOUNDED_INTERIOR, 2, (2.5, 1.5))


@pytest.mark.parametrize("r_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_crossing_rejects_invalid_r_tol(r_tol):
    with pytest.raises(StudyError, match="r_tol"):
        find_crossing(
            "ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.5, 2.5), r_tol=r_tol, n_policy=32
        )


def test_golden_fallback_ends_below_float_spacing(monkeypatch):
    # r_tol far below the float spacing at r ~ 2 must still terminate
    monkeypatch.setattr(studies, "curve_reflections", lambda eta: [])
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.8, 2.2), r_tol=1e-300, n_policy=64
    )
    assert result.method == "golden"
    assert abs(result.r - ELLIPSE_CROSSINGS[2]) < 1e-3


def test_crossing_needs_scalable_family():
    from steklov import CurveError

    with pytest.raises(CurveError):
        find_crossing("disk", DomainKind.BOUNDED_INTERIOR, 2, (1.5, 2.5), n_policy=64)


@pytest.mark.parametrize("k", sorted(ELLIPSE_CROSSINGS))
def test_all_eight_crossings(k):
    expected = ELLIPSE_CROSSINGS[k]
    result = find_crossing(
        "ellipse",
        DomainKind.BOUNDED_INTERIOR,
        k,
        (expected - 0.35, expected + 0.35),
        n_policy=lambda r: 256 if r <= 5 else 512,
    )
    assert abs(result.r - expected) / expected <= 1e-6
    assert result.gap <= 1e-6
    assert result.method == "brent"


def test_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize would add ~0.3 s to every `import steklov`
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, steklov; sys.exit(int('scipy.optimize' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


# ---------------------------------------------------------------------------
# Inequalities
# ---------------------------------------------------------------------------

def test_bounded_inequalities_disk_equality():
    sweep = parameter_sweep("ellipse", DomainKind.BOUNDED_INTERIOR, [1.0], 2, n_policy=128)
    rec = check_inequalities(sweep, DomainKind.BOUNDED_INTERIOR)[0]
    assert rec.satisfied
    assert rec.slack_sum == pytest.approx(0.0, abs=1e-10)
    assert rec.slack_product == pytest.approx(0.0, abs=1e-10)


def test_bounded_inequalities_strict_off_disk():
    sweep = parameter_sweep(
        "ellipse", DomainKind.BOUNDED_INTERIOR, [2.0, 5.0], 2, n_policy=256
    )
    for rec in check_inequalities(sweep, DomainKind.BOUNDED_INTERIOR):
        assert rec.satisfied
        assert rec.slack_sum > 1e-3
        assert rec.slack_product > 1e-3


def test_exterior_bound_equality_on_circle():
    sweep = parameter_sweep(
        "ellipse", DomainKind.UNBOUNDED_EXTERIOR, [1.0, 2.0], 2, n_policy=128
    )
    records = check_inequalities(sweep, DomainKind.UNBOUNDED_EXTERIOR)
    assert records[0].satisfied
    assert records[0].slack_bound == pytest.approx(0.0, abs=1e-10)
    assert records[1].satisfied
    assert records[1].slack_bound > 1e-3


def test_inequalities_require_normalized_perimeter():
    sweep = parameter_sweep(
        "ellipse", DomainKind.BOUNDED_INTERIOR, [2.0], 2, target_perimeter=4.0, n_policy=128
    )
    with pytest.raises(StudyError):
        check_inequalities(sweep, DomainKind.BOUNDED_INTERIOR)


# ---------------------------------------------------------------------------
# Asymptotic gaps
# ---------------------------------------------------------------------------

def test_disk_gaps_vanish(disk):
    spec = solve_spectrum(disk, 128, 40)
    records = asymptotic_gaps(spec)
    for rec in records:
        assert abs(rec.gap_odd) <= 1e-10
        assert abs(rec.gap_even) <= 1e-10


def test_gap_requires_enough_modes(disk):
    spec = solve_spectrum(disk, 64, 9)
    with pytest.raises(StudyError):
        asymptotic_gaps(spec, k_max=5)


def test_gap_decay_summary(kite_bounded):
    spec = solve_spectrum(kite_bounded, 512, 80)
    records = asymptotic_gaps(spec)
    low, high = gap_decay_summary(records, low_range=(10, 15), high_range=(35, 40))
    assert high < low
