#!/usr/bin/env python3
"""Geometry-dependence studies for the ellipse and star-like families.

At fixed boundary length 2π, sweeps the family parameter, records the
first ten eigenvalues, verifies the perimeter-normalized inequalities
(interior pair bound and exterior area bound), and locates the first
two crossings of consecutive bounded-ellipse eigenvalue branches.
Everything lands as CSV/JSON under results/, written by the same
writers as the `steklov` CLI.  --quick trades the benchmark grids for
n = 256.  Against n = 4096 (first ten eigenvalues), the ellipse then
agrees to 1e-14 relative up to r = 10, and star2 to 1e-12 up to
r = 0.75, but at r = 0.9 star2 is off by 2.1e-7 (bounded) and 7.6e-7
(exterior), and the run warns that those sweeps are under-resolved.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from steklov import DomainKind
from steklov.cli import fmt, write_crossing_json, write_inequalities_csv, write_sweep_csv
from steklov.studies import check_inequalities, find_crossing, parameter_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/families")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    n_policy = 256 if args.quick else None  # None = per-family benchmark policy
    k = 10

    sweeps = [
        ("ellipse", DomainKind.BOUNDED_INTERIOR, np.arange(1.0, 10.01, 0.5)),
        ("ellipse", DomainKind.UNBOUNDED_EXTERIOR, np.arange(1.0, 10.01, 0.5)),
        ("star2", DomainKind.BOUNDED_INTERIOR, np.arange(0.0, 0.91, 0.05)),
        ("star2", DomainKind.UNBOUNDED_EXTERIOR, np.arange(0.0, 0.91, 0.05)),
    ]
    for family, kind, r_values in sweeps:
        sweep = parameter_sweep(family, kind, r_values, k, n_policy=n_policy)
        tag = f"{family}_{kind.value}"
        write_sweep_csv(outdir / f"sweep_{tag}.csv", sweep)
        report = check_inequalities(sweep, kind)
        write_inequalities_csv(outdir / f"inequalities_{tag}.csv", report)
        print(f"{tag:20s} inequalities satisfied at all {len(report)} points:",
              all(rec.satisfied for rec in report))

    bounded = DomainKind.BOUNDED_INTERIOR
    for kk, bracket in ((2, (1.5, 2.5)), (3, (2.5, 3.5))):
        res = find_crossing("ellipse", bounded, kk, bracket, n_policy=n_policy)
        write_crossing_json(outdir / f"crossing_k{kk}.json", res, "ellipse", bounded)
        print(f"crossing k={kk}: r* = {fmt(res.r)}, gap = {fmt(res.gap)}, "
              f"{res.solves} solves")

    print(f"artifacts written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
