#!/usr/bin/env python3
"""Eigenfunction rasters for a builtin domain, as plot-ready CSV.

Example:
    python3 scripts/render_modes.py --curve kite --exterior --n 512 \
        --modes 1,2,3,4 --raster 120 --output results/modes_kite_ext
"""

from __future__ import annotations

import argparse
from pathlib import Path

from steklov import DomainKind, make_builtin, solve_spectrum
from steklov.cli import _parse_params, _raster_size, write_field_csvs
from steklov.extension import raster_field


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", required=True)
    parser.add_argument("--params", default="")
    parser.add_argument("--exterior", action="store_true")
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--modes", default="1,2,3,4")
    parser.add_argument("--raster", type=_raster_size, default=100)
    parser.add_argument("--output", default="results/modes")
    args = parser.parse_args()

    kind = DomainKind.UNBOUNDED_EXTERIOR if args.exterior else DomainKind.BOUNDED_INTERIOR
    curve = make_builtin(args.curve, _parse_params(args.params), kind=kind)
    modes = [int(j) for j in args.modes.split(",")]
    spec = solve_spectrum(curve, args.n, max(modes))

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_field_csvs(outdir, modes, raster_field(spec, modes, args.raster))
    for j in modes:
        print(f"mode {j}: lambda = {spec.lambdas[j - 1]:.12f} -> mode_{j}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
