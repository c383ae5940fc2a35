"""Benchmark studies: convergence, family sweeps, crossings, inequalities, asymptotics.

The sweep machinery fixes the boundary length (default 2π) while a
family parameter r deforms the shape, mirroring the classical setting
for Steklov shape inequalities:

* bounded domains of perimeter 2π satisfy 1/λ₁ + 1/λ₂ >= 2 and
  λ₁ λ₂ <= 1, with equality exactly on the disk;
* the first exterior eigenvalue satisfies λ₁ <= sqrt(π / |G₁|) where
  |G₁| is the area of the bounded complement, again with equality
  only for the disk.

Eigenvalue branches of the sorted spectrum may touch as r varies;
`find_crossing` locates the parameter where two consecutive sorted
eigenvalues coincide.  It runs Newton's method on the gap, with the
gap's r-derivative taken from the shape derivatives of the solve
already made (`spectrum.eigenvalue_derivatives`), inside a bracket
that bisects when a step leaves it; an avoided crossing ends at the
minimum of the gap.  For k-th eigenvalues of large index, λ_{2k-1}
and λ_{2k} both approach 2πk/|Γ|, and `asymptotic_gaps` reports the
signed deviations from that law.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .curves import BoundaryCurve, CurveError, DomainKind, scale_to_perimeter
from .spectrum import SteklovSpectrum, _normal_velocity, eigenvalue_derivatives, solve_spectrum

__all__ = [
    "ConvergenceRecord",
    "CrossingResult",
    "GapRecord",
    "InequalityRecord",
    "StudyError",
    "SweepRecord",
    "asymptotic_gaps",
    "check_inequalities",
    "convergence_study",
    "curve_reflections",
    "find_crossing",
    "gap_decay_summary",
    "paper_n_policy",
    "parameter_sweep",
]

_EPS = float(np.finfo(float).eps)


class StudyError(RuntimeError):
    """A study precondition failed or a search did not succeed."""


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRecord:
    """Relative eigenvalue errors at one grid size, against a reference run."""

    n: int
    rel_errors: np.ndarray


def convergence_study(
    curve: BoundaryCurve,
    n_list: list[int],
    k: int,
    n_ref: int,
) -> list[ConvergenceRecord]:
    """Per-mode relative errors |λ_{k,n} - λ_{k,ref}| / λ_{k,ref}.

    The reference spectrum is computed at n_ref, which must exceed
    every tested n (and in particular cannot itself appear in n_list).
    """
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise StudyError("empty n_list")
    if n_ref <= max(n_list):
        raise StudyError(f"reference n_ref={n_ref} must exceed max(n_list)={max(n_list)}")
    reference = solve_spectrum(curve, n_ref, k).lambdas
    records = []
    for n in n_list:
        lam = solve_spectrum(curve, n, k).lambdas
        records.append(ConvergenceRecord(n=n, rel_errors=np.abs(lam - reference) / reference))
    return records


# ---------------------------------------------------------------------------
# Parameter sweeps at fixed perimeter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """Spectrum of one family member, scaled to the fixed perimeter."""

    r: float
    a: float
    perimeter: float
    area: float
    lambdas: np.ndarray
    n: int


def paper_n_policy(family: str):
    """Grid-size policy used for the benchmark sweeps.

    Ellipses: n = 2^10 up to r = 5, n = 2^11 beyond (thin ellipses
    need more resolution).  star2: the split sits at r = 0.6, ahead of
    the pinch-off.  Other families resolve at n = 2^10 throughout.
    """
    if family == "ellipse":
        return lambda r: 1024 if r <= 5.0 else 2048
    if family == "star2":
        return lambda r: 1024 if r <= 0.6 else 2048
    return lambda r: 1024


def _resolve_policy(family: str, n_policy):
    if n_policy is None:
        return paper_n_policy(family)
    if isinstance(n_policy, numbers.Integral) and not isinstance(n_policy, bool):
        n = int(n_policy)
        return lambda r: n
    if not callable(n_policy):
        raise StudyError(f"n_policy must be an integer or a callable r -> n, got {n_policy!r}")
    return n_policy


def parameter_sweep(
    family: str,
    kind: DomainKind,
    r_values,
    k: int,
    target_perimeter: float = 2.0 * np.pi,
    n_policy=None,
) -> list[SweepRecord]:
    """Solve the family along r at fixed perimeter.

    n_policy may be None (benchmark default for the family), a fixed
    integer (numpy integers included), or a callable r -> n.
    """
    policy = _resolve_policy(family, n_policy)
    records = []
    for r in r_values:
        r = float(r)
        n = int(policy(r))
        curve = scale_to_perimeter(family, {"r": r}, target_perimeter, n, kind=kind)
        spec = solve_spectrum(curve, n, k)
        records.append(
            SweepRecord(
                r=r,
                a=curve.params["a"],
                perimeter=spec.perimeter,
                area=spec.area,
                lambdas=spec.lambdas,
                n=n,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Eigenvalue crossings
# ---------------------------------------------------------------------------

# A reflection must map the sampled boundary onto itself to this
# fraction of its radius about the centroid.
_REFLECTION_TOL = 1e-10
# Gap, relative to λ_{k+1}, below which the two traces of a crossing
# may mix; a pair that cannot be told apart there counts as the root.
_MIXING_GAP = 1e-10


@dataclass(frozen=True)
class CrossingResult:
    """Parameter where two consecutive sorted eigenvalues coincide, after ``solves`` solves."""

    k: int
    r: float
    lambda_low: float
    lambda_high: float
    gap: float
    n: int
    solves: int


def curve_reflections(eta: np.ndarray) -> list[int]:
    """Reflection symmetries of a sampled closed curve.

    Returns every shift s in [0, n) for which the index map
    j → (s - j) mod n is a reflection of the samples: η[perm] =
    u·conj(η) + c with |u| = 1.  Candidates come from the circular
    self-convolution Σ_j z_j z_{s-j} of z = η - mean(η), which is the
    least-squares u of each map times ‖z‖²; each candidate is then
    checked sample by sample.
    """
    eta = np.asarray(eta, dtype=complex)
    n = eta.size
    z = eta - eta.mean()
    u = np.fft.ifft(np.fft.fft(z) ** 2) / np.vdot(z, z).real
    j = np.arange(n)
    bound = _REFLECTION_TOL * np.max(np.abs(z))
    return [
        int(s)
        for s in np.flatnonzero(np.abs(u) >= 1.0 - 1e-8)
        if np.max(np.abs(z[(s - j) % n] - u[s] * np.conj(z))) <= bound
    ]


def find_crossing(
    family: str,
    kind: DomainKind,
    k: int,
    r_bracket: tuple[float, float],
    target_perimeter: float = 2.0 * np.pi,
    r_tol: float = 1e-8,
    n_policy=None,
) -> CrossingResult:
    """Locate r* in the bracket where λ_k(r) and λ_{k+1}(r) coincide.

    Safeguarded Newton on the unsigned gap g = λ_{k+1} - λ_k from the
    bracket midpoint.  Each solve gives g' from the shape derivatives of
    its own traces (`eigenvalue_derivatives`) under V = a·∂_rη₁ - (P'/P)·η,
    which moves r at fixed perimeter P, with P' = ∫ κ V_n ds.  Beside a
    true crossing g = |s| and g' = sign(s)·s' for the analytic signed
    gap s, so g/g' is Newton's step on s, and the sign of g' says on
    which side of r the crossing lies.  Steps that leave the bracket, and
    g' = 0, bisect, so an avoided crossing ends at the minimum of the
    gap.  The search stops at a gap below 1e-10·λ_{k+1} (the two traces
    may mix there), or when the step or the bracket falls below r_tol,
    floored at a few ulps of r; a crossing takes 3-4 solves.

    Fails if the crossing sits at a bracket endpoint, i.e. the
    bracket does not contain an interior near-crossing.
    """
    if k < 1:
        raise StudyError(f"crossing index k must be >= 1, got {k}")
    lo, hi = float(r_bracket[0]), float(r_bracket[1])
    if not lo < hi:
        raise StudyError(f"invalid bracket {r_bracket}")
    r_tol = float(r_tol)
    if not (math.isfinite(r_tol) and r_tol > 0.0):
        raise StudyError(f"r_tol must be finite and positive, got {r_tol}")
    policy = _resolve_policy(family, n_policy)

    @functools.cache
    def solve_at(r: float) -> SteklovSpectrum:
        n = int(policy(r))
        curve = scale_to_perimeter(family, {"r": r}, target_perimeter, n, kind=kind)
        return solve_spectrum(curve, n, k + 1)

    def gap_at(r: float) -> tuple[float, float]:
        spec = solve_at(r)
        low, high = spec.lambdas[k - 1], spec.lambdas[k]
        if high - low <= _MIXING_GAP * high:
            return 0.0, 0.0
        v = spec.curve.eta_r(spec.grid.t)
        kappa, vn, ds = _normal_velocity(spec, v)
        v = v - (np.sum(kappa * vn * ds) / spec.perimeter) * spec.grid.eta
        slope = eigenvalue_derivatives(spec, v)
        return high - low, slope[k] - slope[k - 1]

    r_star = _newton_gap(gap_at, lo, hi, r_tol)
    edge = max(r_tol, 1e-6 * (hi - lo))
    if min(r_star - lo, hi - r_star) <= edge:
        raise StudyError(
            f"crossing estimate r={r_star:.10g} sits at the bracket edge; no interior crossing"
        )
    spec = solve_at(r_star)
    low, high = float(spec.lambdas[k - 1]), float(spec.lambdas[k])
    return CrossingResult(
        k=k, r=r_star, lambda_low=low, lambda_high=high, gap=high - low, n=spec.n,
        solves=solve_at.cache_info().misses,
    )


def _newton_gap(gap_at, lo: float, hi: float, r_tol: float) -> float:
    """Root or minimum of a gap ≥ 0 in (lo, hi) as in `find_crossing`; gap_at(r) -> (g, g').

    g = 0 marks a root; g' > 0 puts the root or minimum below r.
    """
    r = 0.5 * (lo + hi)
    while True:
        g, slope = gap_at(r)
        if g == 0.0:
            return r
        if slope > 0.0:
            hi = r
        else:
            lo = r
        r_next = r - g / slope if slope != 0.0 else math.nan
        if not lo < r_next < hi:  # a nan bisects too
            r_next = 0.5 * (lo + hi)
        tol = max(r_tol, 8.0 * _EPS * abs(r))
        if abs(r_next - r) <= tol or hi - lo <= tol:
            return r_next
        r = r_next


# ---------------------------------------------------------------------------
# Inequality verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityRecord:
    """Inequality slack at one sweep point.

    Bounded: slack_sum = 1/λ₁ + 1/λ₂ - 2 (>= 0 expected) and
    slack_product = 1 - λ₁ λ₂ (>= 0 expected).  Exterior:
    slack_bound = sqrt(π/|G₁|) - λ₁ (>= 0 expected); the other slack
    is None.
    """

    r: float
    lambda_1: float
    lambda_2: float | None
    slack_sum: float | None
    slack_product: float | None
    slack_bound: float | None
    satisfied: bool


def check_inequalities(
    sweep: list[SweepRecord], kind: DomainKind, tol: float = 1e-10
) -> list[InequalityRecord]:
    """Evaluate the perimeter-normalized spectral inequalities on a sweep.

    The sweep must be normalized to perimeter 2π for the bounded
    inequalities to apply; a record violates the check when its slack
    drops below -tol.
    """
    records = []
    for point in sweep:
        if kind is DomainKind.BOUNDED_INTERIOR:
            if abs(point.perimeter - 2.0 * np.pi) > 1e-8:
                raise StudyError(
                    f"bounded inequalities require perimeter 2π, got {point.perimeter}"
                )
            if len(point.lambdas) < 2:
                raise StudyError("bounded inequalities need at least two eigenvalues")
            lam1, lam2 = float(point.lambdas[0]), float(point.lambdas[1])
            slack_sum = 1.0 / lam1 + 1.0 / lam2 - 2.0
            slack_product = 1.0 - lam1 * lam2
            records.append(
                InequalityRecord(
                    r=point.r,
                    lambda_1=lam1,
                    lambda_2=lam2,
                    slack_sum=slack_sum,
                    slack_product=slack_product,
                    slack_bound=None,
                    satisfied=bool(slack_sum >= -tol and slack_product >= -tol),
                )
            )
        else:
            if point.area <= 0.0:
                raise StudyError("exterior bound needs the area of the bounded complement")
            lam1 = float(point.lambdas[0])
            bound = math.sqrt(math.pi / point.area)
            records.append(
                InequalityRecord(
                    r=point.r,
                    lambda_1=lam1,
                    lambda_2=None,
                    slack_sum=None,
                    slack_product=None,
                    slack_bound=bound - lam1,
                    satisfied=bool(bound - lam1 >= -tol),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Asymptotic gaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapRecord:
    """Signed deviations of the eigenvalue pair (λ_{2k-1}, λ_{2k}) from 2πk/|Γ|."""

    k: int
    gap_odd: float
    gap_even: float


def asymptotic_gaps(
    spectrum: SteklovSpectrum,
    boundary_length: float | None = None,
    k_max: int | None = None,
) -> list[GapRecord]:
    """Deviations ε_k = λ_{2k-1} - 2πk/|Γ| and ε'_k = λ_{2k} - 2πk/|Γ|."""
    length = spectrum.perimeter if boundary_length is None else float(boundary_length)
    available = len(spectrum.lambdas) // 2
    if k_max is None:
        k_max = available
    if k_max > available:
        raise StudyError(f"spectrum holds {available} eigenvalue pairs, requested {k_max}")
    if k_max < 1:
        raise StudyError("need at least one complete eigenvalue pair")
    out = []
    for k in range(1, k_max + 1):
        slope = 2.0 * np.pi * k / length
        out.append(
            GapRecord(
                k=k,
                gap_odd=float(spectrum.lambdas[2 * k - 2] - slope),
                gap_even=float(spectrum.lambdas[2 * k - 1] - slope),
            )
        )
    return out


def gap_decay_summary(
    records: list[GapRecord],
    low_range: tuple[int, int] = (15, 20),
    high_range: tuple[int, int] = (45, 50),
) -> tuple[float, float]:
    """Max |gap| over a low-k and a high-k window (decay diagnostic)."""

    def window_max(lo: int, hi: int) -> float:
        vals = [
            max(abs(rec.gap_odd), abs(rec.gap_even)) for rec in records if lo <= rec.k <= hi
        ]
        if not vals:
            raise StudyError(f"no gap records in k-range [{lo}, {hi}]")
        return max(vals)

    return window_max(*low_range), window_max(*high_range)
