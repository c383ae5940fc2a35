"""Seeded trigonometric curves for invariant tests, summed here rather than by `steklov.curves`."""

import numpy as np

from steklov import BoundaryCurve, DomainKind

MODES = np.array([m for m in range(-4, 7) if m not in (0, 1)])


def trig_curve(seed: int, kind: DomainKind = DomainKind.BOUNDED_INTERIOR) -> BoundaryCurve:
    """η = c₀ + e^{it} + Σ c_m e^{imt} over m in [-4, 6] except 0 and 1, with Σ |m| |c_m| = 0.45.

    The perturbation moves η' by at most 0.45, so |η'| >= 0.55, and a
    chord by at most 0.45 |t - s|, so |η(t) - η(s)| >= (2/π - 0.45) |t - s|
    for |t - s| <= π: η is a smooth Jordan curve.  |η - c₀| >= 1 - 0.45
    with winding number 1, so c₀ is inside; it is the base point of the
    bounded kind.  The exterior kind is the same curve under t ↦ -t.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(MODES.size) + 1j * rng.standard_normal(MODES.size)
    c *= 0.45 / np.sum(np.abs(MODES) * np.abs(c))
    c0 = complex(*rng.uniform(-2.0, 2.0, 2))
    bounded = kind is DomainKind.BOUNDED_INTERIOR
    sign = 1.0 if bounded else -1.0

    def derivative(p):
        def eta_p(t):
            s = sign * np.asarray(t, dtype=float)
            waves = np.exp(1j * np.multiply.outer(s, MODES)) @ ((1j * MODES) ** p * c)
            return sign**p * ((c0 if p == 0 else 0.0) + 1j**p * np.exp(1j * s) + waves)

        return eta_p

    return BoundaryCurve(
        name=f"trig{seed}",
        eta=derivative(0),
        eta1=derivative(1),
        eta2=derivative(2),
        kind=kind,
        alpha=c0 if bounded else None,
    )
