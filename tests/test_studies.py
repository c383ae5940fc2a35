import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov
import steklov.studies as studies
from steklov import DomainKind, UnderResolvedWarning, solve_spectrum
from steklov.studies import (
    StudyError,
    asymptotic_gaps,
    check_inequalities,
    convergence_study,
    find_crossing,
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


def test_n_policy_may_be_a_numpy_integer():
    records = parameter_sweep(
        "ellipse", DomainKind.BOUNDED_INTERIOR, [2.0], 3, n_policy=np.int64(96)
    )
    assert records[0].n == 96 and type(records[0].n) is int
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.8, 2.2), r_tol=1e-4, n_policy=np.int64(96)
    )
    assert result.n == 96 and type(result.n) is int


@pytest.mark.parametrize("n_policy", [64.0, True, "64"])
def test_n_policy_must_be_an_integer_or_callable(n_policy):
    with pytest.raises(StudyError, match="n_policy"):
        parameter_sweep("ellipse", DomainKind.BOUNDED_INTERIOR, [2.0], 3, n_policy=n_policy)
    with pytest.raises(StudyError, match="n_policy"):
        find_crossing("ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.8, 2.2), n_policy=n_policy)


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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("shift", [-0.15, -0.10, 0.0, 0.15])
def test_crossing_brent_across_bracket_shifts(k, shift):
    # Newton from the midpoint; for k = 3 the last iterate may land on
    # the crossing itself, where the two traces mix.
    lo, hi = {2: (1.5, 2.5), 3: (2.5, 3.5)}[k]
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, k, (lo + shift, hi + shift), n_policy=256
    )
    assert result.solves <= 5
    expected = ELLIPSE_CROSSINGS[k]
    assert abs(result.r - expected) / expected <= 1e-6
    assert result.gap <= 1e-6
    if k == 2:
        assert result.lambda_low == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)
        assert result.lambda_high == pytest.approx(ELLIPSE_K2_CROSSING_VALUE, abs=1e-8)


def test_newton_gap_converges_to_minimum_of_avoided_crossing():
    # g = sqrt(x² + c²) + x/2 with x = r - 2.1 never vanishes: it has its
    # minimum c·√3/2 where g' = 0, at x = -c/√3.
    c = 0.05
    calls = []

    def gap_at(r):
        calls.append(r)
        x = r - 2.1
        root = np.hypot(x, c)
        return root + 0.5 * x, x / root + 0.5

    r = studies._newton_gap(gap_at, 1.7, 2.3, 1e-10)
    assert r == pytest.approx(2.1 - c / np.sqrt(3.0), abs=1e-9)
    assert len(calls) <= 60


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


def test_crossing_ends_below_float_spacing():
    # r_tol far below the float spacing at r ~ 2 must still terminate
    result = find_crossing(
        "ellipse", DomainKind.BOUNDED_INTERIOR, 2, (1.8, 2.2), r_tol=1e-300, n_policy=64
    )
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


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.fft", "scipy.sparse"])
def test_import_leaves_module_unloaded(module):
    # each would add 0.03-0.3 s to every `import steklov`: the crossing search
    # needs no optimizer, the FFTs come from numpy.fft, which numpy loads
    # anyway, and the eigensolve is scipy.linalg's
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = f"import sys, steklov; sys.exit(int({module!r} in sys.modules))"
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
