"""Workload table and seeded input generation.

The parent process imports this module, and it must not import numpy:
a workload's BLAS thread count only takes effect if it is in the
environment before numpy is first imported in the workload process.

The seed changes the inputs but never the amount of work: base points
move inside their domains (the spectrum does not depend on α), and
crossing brackets shift without changing width (golden section then
takes the same number of steps).
"""

from __future__ import annotations

import math
import random

# BLAS threads per workload; part of the workload's definition.  The
# large solves use both cores of the reference machine (nproc = 2); the
# small dense solves and the extension run faster and steadier on one.
BLAS_THREADS = {"solve-large": 2, "crossing": 1, "modes": 1}

# Base point: (default α, jitter radius).  Each radius is a quarter of
# the distance from the default α to the curve.
_ALPHA = {
    "g1": ((8.0, 0.0), 1.0),
    "g2": ((0.0, 0.0), 0.1),
    "kite": ((-0.4, 0.0), 0.2),
}

# Criterion-7 brackets; the crossings sit at r* = 1.98387 and 3.11781.
_BRACKETS = {2: (1.5, 2.5), 3: (2.5, 3.5)}
_BRACKET_SHIFT = 0.15


def _alpha(rng: random.Random, family: str) -> list[float]:
    (re0, im0), radius = _ALPHA[family]
    rad = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return [re0 + rad * math.cos(theta), im0 + rad * math.sin(theta)]


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one run; the same (workload, seed, tiny) gives the same inputs.

    ``tiny`` shrinks the grid sizes for the self-test; the full sizes
    are the benchmark's.
    """
    if workload not in BLAS_THREADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(BLAS_THREADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve-large":
        ops = [
            {"label": "g1", "family": "g1", "kind": "bounded", "alpha": _alpha(rng, "g1")},
            {"label": "g2", "family": "g2", "kind": "bounded", "alpha": _alpha(rng, "g2")},
            {"label": "kite-interior", "family": "kite", "kind": "bounded",
             "alpha": _alpha(rng, "kite")},
            {"label": "kite-exterior", "family": "kite", "kind": "exterior", "alpha": None},
        ]
        return {"n": 512 if tiny else 2048, "k": 10, "ops": ops}
    if workload == "crossing":
        ops = []
        for k, (lo, hi) in _BRACKETS.items():
            shift = rng.uniform(-_BRACKET_SHIFT, _BRACKET_SHIFT)
            ops.append({"label": f"k{k}", "k": k, "bracket": [lo + shift, hi + shift]})
        return {"family": "ellipse", "kind": "bounded", "n": 128 if tiny else 256, "ops": ops}
    ops = [
        {"label": "kite-interior",
         "spec": {"family": "kite", "kind": "bounded", "alpha": _alpha(rng, "kite")}},
        {"label": "kite-exterior", "spec": {"family": "kite", "kind": "exterior"}},
    ]
    return {"n": 128 if tiny else 512, "k": 4, "modes": [1, 2, 3, 4],
            "raster": 24 if tiny else 120, "ops": ops}
