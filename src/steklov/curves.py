"""Smooth Jordan boundary curves and their equidistant parameter grids.

A planar domain enters the solver only through a 2π-periodic complex
parametrization η(t) of its boundary together with the analytic
derivatives η'(t) and η''(t).  The domain always lies to the left of
the curve: bounded interiors are parametrized counterclockwise and
carry a base point α strictly inside, unbounded exteriors are
parametrized clockwise.  Exterior members of the builtin families are
obtained from the bounded parametrization by t ↦ -t, which reverses
the orientation without changing the curve.

Builtin families (bounded orientation).  All but g2 are trigonometric
polynomials η(t) = a Σ_m (c⁰_m + r c¹_m) e^{imt}, given by one table of
coefficients from which η', η'', ∂η/∂r and the default base point (the
mean a (c⁰_0 + r c¹_0) of η) are derived.  A family takes r and a > 0
exactly when it has c¹; star2 pinches off into two regions at r = 1:

    disk      c⁰ = {1: 1}
    ellipse   c⁰ = {1: ½, -1: ½},  c¹ = {1: ½, -1: -½},   r >= 1 (default 1)
    star2     c⁰ = {1: 1},  c¹ = {3: ½, -1: ½},           0 <= r < 1 (default 0.5)
    kite      c⁰ = {0: -0.4, 1: 1.5 - 0.15i, -1: -0.15i, 2: 0.35, -2: 0.35}
    g1        c⁰ = {0: 8, 1: 5, 6: 0.5}
    g2        0.4 i e^{it} sqrt(2 / (1.16 - 0.84 e^{2it}))
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "BoundaryCurve",
    "CurveError",
    "DomainKind",
    "Grid",
    "area",
    "builtin_families",
    "build_grid",
    "curve_from_spec",
    "curve_to_spec",
    "make_builtin",
    "perimeter",
    "scale_to_perimeter",
]

# Grid size used for construction-time validation (orientation,
# periodicity, winding check of alpha).
_VALIDATION_N = 512


class CurveError(ValueError):
    """Invalid curve family, parameter, or geometric configuration."""


class DomainKind(Enum):
    BOUNDED_INTERIOR = "bounded"
    UNBOUNDED_EXTERIOR = "exterior"


def nodes(n: int) -> np.ndarray:
    """Equidistant parameter nodes t_j = (j-1) 2π/n, j = 1..n."""
    return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class BoundaryCurve:
    """Analytic parametrization of a smooth Jordan curve.

    Attributes
    ----------
    name : str
        Family identifier (builtin name or user label).
    eta, eta1, eta2 : callable
        Parametrization and its first two derivatives; each maps an
        ndarray of parameters in [0, 2π) to complex points.
    kind : DomainKind
        Which side of the curve is the computational domain.
    alpha : complex or None
        Base point strictly inside a bounded domain; must be None for
        exterior domains (the auxiliary boundary weight is 1 there).
    params : dict
        Family parameters (floats) used to build the curve (for serialization).
    eta_r : callable or None
        ∂η/∂r at fixed scale a of the families that have r; None otherwise.
    """

    name: str
    eta: Callable[[np.ndarray], np.ndarray]
    eta1: Callable[[np.ndarray], np.ndarray]
    eta2: Callable[[np.ndarray], np.ndarray]
    kind: DomainKind
    alpha: complex | None = None
    params: dict = field(default_factory=dict)
    eta_r: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        t = nodes(_VALIDATION_N)
        et, e1 = self.eta(t), self.eta1(t)
        ends = self.eta(np.array([0.0, 2.0 * np.pi]))
        if abs(ends[0] - ends[1]) > 1e-12 * np.max(np.abs(et)):
            raise CurveError(f"{self.name}: parametrization is not 2π-periodic")

        signed = _signed_area(et, e1)
        if self.kind is DomainKind.BOUNDED_INTERIOR:
            if signed <= 0:
                raise CurveError(f"{self.name}: bounded domain requires counterclockwise orientation")
            if self.alpha is None:
                raise CurveError(f"{self.name}: bounded domain requires a base point alpha")
            w = _winding(et, complex(self.alpha))
            if not _encloses_once(w):
                raise CurveError(
                    f"{self.name}: alpha={self.alpha} is not strictly inside the curve "
                    f"(winding {w:.6g})"
                )
        else:
            if signed >= 0:
                raise CurveError(f"{self.name}: exterior domain requires clockwise orientation")
            if self.alpha is not None:
                raise CurveError(f"{self.name}: alpha applies to bounded domains only")

    def signed_area(self, n: int = _VALIDATION_N) -> float:
        """Orientation-signed enclosed area by the trapezoidal Green formula."""
        t = nodes(n)
        return _signed_area(self.eta(t), self.eta1(t))


@dataclass(frozen=True)
class Grid:
    """Equidistant boundary grid with cached curve samples.

    rho = 1/|η'| is the weight turning the parameter derivative into
    an arclength derivative; it is the diagonal of the matrix P in the
    assembled Dirichlet-to-Neumann operator.
    """

    n: int
    t: np.ndarray
    eta: np.ndarray
    eta1: np.ndarray
    speed: np.ndarray
    rho: np.ndarray

    @property
    def perimeter(self) -> float:
        """Boundary length by the trapezoidal rule, (2π/n) Σ |η'(t_j)|."""
        return float(2.0 * np.pi / self.n * np.sum(self.speed))

    @property
    def area(self) -> float:
        """Enclosed area (orientation-independent) by the trapezoidal Green formula."""
        return abs(_signed_area(self.eta, self.eta1))


def build_grid(curve: BoundaryCurve, n: int) -> Grid:
    """Sample `curve` on n equidistant nodes, validating the samples.

    Raises
    ------
    CurveError
        If n is not an even integer >= 4, η' vanishes on the grid, or
        the polygon through the samples does not enclose the base point once.
    """
    if n < 4 or n % 2 != 0:
        raise CurveError(f"grid size must be an even integer >= 4, got {n}")
    t = nodes(n)
    et = np.asarray(curve.eta(t), dtype=complex)
    e1 = np.asarray(curve.eta1(t), dtype=complex)
    speed = np.abs(e1)
    if not np.all(np.isfinite(et)) or not np.all(np.isfinite(e1)):
        raise CurveError(f"{curve.name}: non-finite boundary samples at n={n}")
    if np.min(speed) <= 1e-14:
        raise CurveError(f"{curve.name}: η' vanishes on the grid (min |η'| = {np.min(speed):.3g})")
    if curve.kind is DomainKind.BOUNDED_INTERIOR:
        w = _winding(et, complex(curve.alpha))
        if not _encloses_once(w):
            raise CurveError(f"{curve.name}: alpha not enclosed once at n={n} (winding {w:.3g})")
    return Grid(n=n, t=t, eta=et, eta1=e1, speed=speed, rho=1.0 / speed)


def _signed_area(eta: np.ndarray, eta1: np.ndarray) -> float:
    """Green's formula (1/2) ∮ Im(conj(η) dη) by the trapezoidal rule on the samples."""
    n = len(eta)
    return float(0.5 * (2.0 * np.pi / n) * np.sum(np.imag(np.conj(eta) * eta1)))


def _winding(eta: np.ndarray, z: complex) -> float:
    """Winding number about z of the closed polygon through the samples.

    Σ_j arg((η_{j+1} - z)/(η_j - z)) / 2π is an integer up to rounding
    whatever the aspect ratio of the curve, unless z lies on the polygon
    (a node or an edge), where it is not an integer.
    """
    d = eta - z
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(np.angle(np.roll(d, -1) / d)) / (2.0 * np.pi))


def _encloses_once(w: float) -> bool:
    """round(w) == 1, and False for the non-integer winding of a point on the polygon."""
    return abs(w - 1.0) < 0.5


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

class _Family(NamedTuple):  # a row of the table in the module docstring; r_min <= r < r_max
    c0: dict | None  # None: not a trigonometric polynomial (g2)
    c1: dict | None = None
    r_default: float = 0.0
    r_min: float = 0.0
    r_max: float = math.inf


_FAMILIES = {
    "disk": _Family({1: 1.0}),
    "ellipse": _Family({1: 0.5, -1: 0.5}, {1: 0.5, -1: -0.5}, r_default=1.0, r_min=1.0),
    "star2": _Family({1: 1.0}, {3: 0.5, -1: 0.5}, r_default=0.5, r_max=1.0),
    "kite": _Family({0: -0.4, 1: 1.5 - 0.15j, -1: -0.15j, 2: 0.35, -2: 0.35}),
    "g1": _Family({0: 8.0, 1: 5.0, 6: 0.5}),
    "g2": _Family(None),
}


def _trig_sum(coeffs: dict, p: int) -> Callable[[np.ndarray], np.ndarray]:
    """t ↦ η⁽ᵖ⁾(t) for η = Σ_m c_m e^{imt} = c_0 + Σ_{m>0} (u_m cos mt + v_m sin mt)."""
    terms = []
    for m in sorted({abs(k) for k in coeffs} - {0}):
        up, down = coeffs.get(m, 0.0), coeffs.get(-m, 0.0)
        u, v = up + down, 1j * (up - down)
        for _ in range(p):  # d/dt (u cos mt + v sin mt) = m v cos mt - m u sin mt
            u, v = m * v, -m * u
        terms.append((m, u, v))
    c0 = coeffs.get(0, 0.0) if p == 0 else 0.0
    return lambda t: sum((u * np.cos(m * t) + v * np.sin(m * t) for m, u, v in terms), c0)


def _trig(row: _Family, params: dict):
    r, a = params.get("r", row.r_default), params.get("a", 1.0)
    c1 = row.c1 or {}
    coeffs = {m: a * (row.c0.get(m, 0.0) + r * c1.get(m, 0.0)) for m in {**row.c0, **c1}}
    eta_r = _trig_sum({m: a * c for m, c in c1.items()}, 0) if c1 else None
    return (*(_trig_sum(coeffs, p) for p in range(3)), eta_r, complex(coeffs.get(0, 0.0)))


def _g2():
    # eta = 0.4i e^{it} g(t)^{1/2} with g = 2/(1.16 - 0.84 e^{2it});
    # the radicand stays in the right half-plane, so the principal
    # square root is smooth and 2π-periodic.  With
    # h = 0.84 e^{2it}/(1.16 - 0.84 e^{2it}) one has
    # eta' = i (1 + h) eta and eta'' = -(1 + h)(1 + 3h) eta.
    def _h(t):
        w = 0.84 * np.exp(2j * t)
        return w / (1.16 - w)

    def eta(t):
        return 0.4j * np.exp(1j * t) * np.sqrt(2.0 / (1.16 - 0.84 * np.exp(2j * t)))

    def eta1(t):
        return 1j * (1.0 + _h(t)) * eta(t)

    def eta2(t):
        h = _h(t)
        return -(1.0 + h) * (1.0 + 3.0 * h) * eta(t)

    return eta, eta1, eta2, None, 0.0 + 0.0j


def builtin_families() -> tuple[str, ...]:
    return tuple(_FAMILIES)


def _number(value, what: str) -> float:
    """A config number (or numeric string) as a float; a bool, null or list is a CurveError."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise CurveError(f"{what} must be a number, got {value!r}")
    return float(value)  # a string that is no number raises ValueError


def _lookup(family: str, params: dict | None) -> tuple[_Family, dict]:
    """The family's table row, and its parameters as floats checked by name and value against it."""
    if family not in _FAMILIES:
        raise CurveError(f"unknown curve family {family!r}; choose from {sorted(_FAMILIES)}")
    if not isinstance(params or {}, dict):
        raise CurveError(f"params must be a mapping of name: value, got {params!r}")
    row = _FAMILIES[family]
    names = [] if row.c1 is None else ["r", "a"]
    checked = {}
    for name, value in (params or {}).items():
        if name not in names:
            raise CurveError(f"{family} takes {' and '.join(names) or 'no parameters'}, not {name!r}")
        checked[name] = _number(value, f"{family} parameter {name}")
    r, a = checked.get("r", row.r_default), checked.get("a", 1.0)
    if not (row.r_min <= r < row.r_max and 0.0 < a < math.inf):  # False for a nan too
        raise CurveError(f"{family} needs {row.r_min:g} <= r < {row.r_max:g}, 0 < a < inf: {checked}")
    return row, checked


def _oriented(row: _Family, params: dict, kind: DomainKind):
    """η, η', η'', ∂η/∂r and the default α of a family member, for the domain kind.

    The exterior parametrization is the bounded one composed with t ↦ -t.
    """
    eta_b, eta1_b, eta2_b, eta_r_b, default_alpha = _g2() if row.c0 is None else _trig(row, params)
    if kind is not DomainKind.UNBOUNDED_EXTERIOR:
        return eta_b, eta1_b, eta2_b, eta_r_b, default_alpha
    return (
        lambda t: eta_b(-np.asarray(t)),
        lambda t: -eta1_b(-np.asarray(t)),
        lambda t: eta2_b(-np.asarray(t)),
        None if eta_r_b is None else (lambda t: eta_r_b(-np.asarray(t))),
        None,
    )


def make_builtin(
    family: str,
    params: dict | None = None,
    kind: DomainKind = DomainKind.BOUNDED_INTERIOR,
    alpha: complex | None = None,
) -> BoundaryCurve:
    """Build a builtin curve family member.

    Parameters
    ----------
    family : str
        One of ``builtin_families()``.
    params : dict, optional
        Family parameters (``r``, ``a`` where applicable), checked by name and value.
    kind : DomainKind
        Bounded interior (counterclockwise) or unbounded exterior;
        the exterior parametrization is the bounded one composed with
        t ↦ -t, i.e. the same curve traversed clockwise.
    alpha : complex, optional
        Base point override; a CurveError for exterior domains.  Defaults
        to the exact mean of the parametrization over one period (the
        series center), which every builtin encloses.
    """
    row, params = _lookup(family, params)
    eta, eta1, eta2, eta_r, default_alpha = _oriented(row, params, kind)
    if alpha is None:
        alpha = default_alpha
    return BoundaryCurve(
        name=family,
        eta=eta,
        eta1=eta1,
        eta2=eta2,
        kind=kind,
        alpha=None if alpha is None else complex(alpha),
        params=params,
        eta_r=eta_r,
    )


# ---------------------------------------------------------------------------
# Geometric utilities
# ---------------------------------------------------------------------------

def perimeter(curve: BoundaryCurve, n: int = 256) -> float:
    """Boundary length by the trapezoidal rule, (2π/n) Σ |η'(t_j)|.

    Spectrally accurate for smooth curves; n >= 16 required.
    """
    if n < 16:
        raise CurveError(f"perimeter requires n >= 16, got {n}")
    return build_grid(curve, n).perimeter


def area(curve: BoundaryCurve, n: int = 256) -> float:
    """Area enclosed by the curve (the bounded complement for exterior kinds).

    Green's theorem with the trapezoidal rule; the absolute value
    makes the result orientation-independent.
    """
    return build_grid(curve, n).area


def scale_to_perimeter(
    family: str,
    params: dict | None = None,
    target: float = 2.0 * np.pi,
    n: int = 256,
    kind: DomainKind = DomainKind.BOUNDED_INTERIOR,
    alpha: complex | None = None,
) -> BoundaryCurve:
    """Scale a parametric family member so its perimeter equals `target`.

    The scale is a = target / I where I is the trapezoidal perimeter
    (2π/n) Σ |η'(t_j)| of the a = 1 member at the given n, evaluated
    from the family's table; only the scaled member is built and
    checked.  Since |η'| scales exactly linearly in a, the re-measured
    perimeter at the same n equals the target to rounding error.
    """
    if not 0.0 < target < math.inf:  # False for a nan too
        raise CurveError(f"target perimeter must be positive and finite, got {target}")
    row, params = _lookup(family, params)
    if row.c1 is None:
        raise CurveError(f"family {family!r} has no scale parameter to adjust")
    if n < 16:
        raise CurveError(f"perimeter requires n >= 16, got {n}")
    if n % 2 != 0:
        raise CurveError(f"grid size must be an even integer >= 4, got {n}")
    eta1 = _oriented(row, {**params, "a": 1.0}, kind)[1]
    speed = np.abs(np.asarray(eta1(nodes(n)), dtype=complex))
    params["a"] = target / float(2.0 * np.pi / n * np.sum(speed))
    return make_builtin(family, params, kind=kind, alpha=alpha)


# ---------------------------------------------------------------------------
# Config-file curve specs
# ---------------------------------------------------------------------------

def curve_from_spec(spec: dict, n: int = 256) -> BoundaryCurve:
    """Build a curve from a config mapping.

    Recognized keys: ``family`` (required), ``params`` (dict),
    ``kind`` ("bounded" | "exterior"), ``alpha`` ([re, im], bounded
    only), ``perimeter_normalize`` (positive finite target length, or
    null for none; resolves the scale via `scale_to_perimeter` at this n).
    """
    if not isinstance(spec, dict):
        raise CurveError(f"curve spec must be a JSON object, got {spec!r}")
    if "family" not in spec:
        raise CurveError("curve spec requires a 'family' key")
    family = str(spec["family"])
    params = spec.get("params")
    kind_key = str(spec.get("kind", "bounded"))
    try:
        kind = DomainKind(kind_key)
    except ValueError:
        raise CurveError(f"unknown domain kind {kind_key!r}; use 'bounded' or 'exterior'") from None
    alpha = spec.get("alpha")
    if alpha is not None:
        if not (isinstance(alpha, (list, tuple)) and len(alpha) == 2):
            raise CurveError(f"alpha must be two numbers [re, im], got {alpha!r}")
        alpha = complex(*(_number(v, "alpha") for v in alpha))
    target = spec.get("perimeter_normalize")
    if target is not None:
        target = _number(target, "perimeter_normalize")
        return scale_to_perimeter(family, params, target, n, kind=kind, alpha=alpha)
    return make_builtin(family, params, kind=kind, alpha=alpha)


def curve_to_spec(curve: BoundaryCurve) -> dict:
    """Serialize a builtin curve to a config mapping with resolved scale."""
    spec: dict = {"family": curve.name, "kind": curve.kind.value}
    if curve.params:
        spec["params"] = dict(curve.params)
    if curve.alpha is not None:
        spec["alpha"] = [float(curve.alpha.real), float(curve.alpha.imag)]
    return spec
