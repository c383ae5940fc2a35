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
eigenvalues coincide.  Branches that meet at a crossing of a
symmetric curve belong to different reflection classes, so the gap
signed by the order of the two classes has a simple root, which
Brent's method finds in a handful of solves; golden-section
minimization of the unsigned gap is the fallback.  For k-th
eigenvalues of large index, λ_{2k-1} and λ_{2k} both approach
2πk/|Γ|, and `asymptotic_gaps` reports the signed deviations from
that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import BoundaryCurve, CurveError, DomainKind, scale_to_perimeter
from .spectrum import SteklovSpectrum, solve_spectrum

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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
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
    if isinstance(n_policy, int):
        return lambda r: n_policy
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
    int, or a callable r -> n.
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
                a=curve.scale,
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
# A trace whose parity |⟨γ, γ∘perm⟩_W| / ⟨γ, γ⟩_W falls below this
# mixes two reflection classes and is not classified.
_PARITY_MIN = 0.5
# Gap, relative to λ_{k+1}, below which the two traces of a crossing
# may mix; a pair that cannot be told apart there counts as the root.
_MIXING_GAP = 1e-10


@dataclass(frozen=True)
class CrossingResult:
    """Parameter where two consecutive sorted eigenvalues coincide.

    ``solves`` counts the spectra solved by the search; ``method`` is
    ``"brent"`` when the parity-signed gap was root-searched and
    ``"golden"`` when the search fell back to minimizing the gap.
    """

    k: int
    r: float
    lambda_low: float
    lambda_high: float
    gap: float
    n: int
    solves: int
    method: str


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


def _parity_class(spec: SteklovSpectrum, mode: int, shifts: list[int]):
    """Signs of the parities of trace `mode` under each reflection, or None if mixed.

    Each sign is keyed by the reflection's shift as a fraction of the
    period, so classes from grids of different n compare equal.
    """
    n = spec.n
    g = spec.traces[:, mode]
    wg = spec.grid.speed * g
    norm = np.dot(wg, g)
    j = np.arange(n)
    signs = []
    for s in shifts:
        parity = np.dot(wg, g[(s - j) % n]) / norm
        if abs(parity) < _PARITY_MIN:
            return None
        signs.append((s / n, parity > 0.0))
    return tuple(signs)


class _NoParity(Exception):
    """The parity-signed gap is undefined; the search falls back to golden section."""


def _brent_root(
    f, a: float, b: float, fa: float, fb: float, xtol: float
) -> tuple[float, float]:
    """Brent's root of f in [a, b], where fa and fb have opposite signs.

    Inverse quadratic interpolation and secant steps, with bisection
    whenever they do not shrink the bracket fast enough (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).
    Returns the final bracket (b, c), at most ~xtol wide, with
    |f(b)| <= |f(c)|.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, c
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


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

    Where the two branches belong to different reflection classes of
    the curve, their signed difference has a simple root.  The
    reflections are detected from the boundary samples
    (`curve_reflections`), each of the two traces is classified by its
    parities ⟨γ, γ∘perm⟩_W under them (W = |η'|), and Brent's method
    finds the root of g(r) = (λ_{k+1} - λ_k)·σ(r), where σ = ±1 by
    the order of the pair's two classes in a fixed order of classes.
    That takes about 7 solves to r_tol.

    The search falls back to golden-section minimization of the
    (nonnegative, V-shaped near a crossing) gap, which takes ~40
    solves and reuses the ones already made, when the curve has no
    reflection or more than two (the disk), when an evaluated pair of
    traces shares a class or mixes classes away from a crossing, when
    g does not change sign over the bracket, or when the ends of the
    final bracket do not hold the same two classes, swapped (g jumped
    where a third branch crossed in).

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

    # r -> (λ_k, λ_{k+1}, n, parity classes of the pair or None)
    cache: dict[float, tuple[float, float, int, tuple | None]] = {}

    def solve_at(r: float):
        if r not in cache:
            n = int(policy(r))
            curve = scale_to_perimeter(family, {"r": r}, target_perimeter, n, kind=kind)
            spec = solve_spectrum(curve, n, k + 1)
            shifts = curve_reflections(spec.grid.eta)
            pair = None
            if len(shifts) in (1, 2):
                pair = (_parity_class(spec, k - 1, shifts), _parity_class(spec, k, shifts))
            cache[r] = (float(spec.lambdas[k - 1]), float(spec.lambdas[k]), n, pair)
        return cache[r]

    def eval_gap(r: float) -> float:
        low, high, _, _ = solve_at(r)
        return high - low

    try:
        r_star = _parity_root(solve_at, lo, hi, r_tol)
        method = "brent"
    except _NoParity:
        r_star = _golden_min(eval_gap, lo, hi, r_tol)
        method = "golden"

    edge = max(r_tol, 1e-6 * (hi - lo))
    if min(r_star - lo, hi - r_star) <= edge:
        raise StudyError(
            f"crossing estimate r={r_star:.10g} sits at the bracket edge; no interior crossing"
        )
    low, high, n, _ = solve_at(r_star)
    return CrossingResult(
        k=k, r=r_star, lambda_low=low, lambda_high=high, gap=high - low, n=n,
        solves=len(cache), method=method,
    )


def _parity_root(solve_at, lo: float, hi: float, r_tol: float) -> float:
    """Brent root of the parity-signed gap; raises _NoParity where it is undefined.

    The sign is + while λ_k's class precedes λ_{k+1}'s in the (fixed,
    arbitrary) tuple order of classes.  g jumps where a third branch
    crosses in, so the final bracket must hold the same two classes,
    swapped, at its two ends.
    """

    def signed_gap(r: float) -> float:
        low, high, _, pair = solve_at(r)
        if pair is not None and None not in pair and pair[0] != pair[1]:
            return high - low if pair[0] < pair[1] else low - high
        if high - low <= _MIXING_GAP * high:
            return 0.0
        raise _NoParity

    g_lo, g_hi = signed_gap(lo), signed_gap(hi)
    if not g_lo * g_hi < 0.0:
        raise _NoParity
    b, c = _brent_root(signed_gap, lo, hi, g_lo, g_hi, r_tol)
    if signed_gap(b) != 0.0 and solve_at(c)[3] != solve_at(b)[3][::-1]:
        raise _NoParity
    return b


def _golden_min(f, lo: float, hi: float, r_tol: float) -> float:
    """Golden-section minimizer of f on [lo, hi], to a bracket of r_tol.

    The tolerance is floored at a few ulps of the bracket so the loop
    ends even when r_tol is below the float spacing there.
    """
    tol = max(r_tol, 8.0 * _EPS * max(abs(lo), abs(hi)))
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
