#!/usr/bin/env python3
"""Geometry-dependence studies for the ellipse and star-like families.

At fixed boundary length 2π, sweeps the family parameter, records the
first ten eigenvalues, verifies the perimeter-normalized inequalities
(interior pair bound and exterior area bound), and locates the first
two crossings of consecutive bounded-ellipse eigenvalue branches.
Everything lands as CSV/JSON under results/.  --quick trades the
benchmark grids for n = 256 (results agree to ~1e-9).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from steklov import DomainKind
from steklov.cli import fmt, write_csv, write_json
from steklov.studies import check_inequalities, find_crossing, parameter_sweep


def sweep_rows(sweep, k):
    return [[rec.r, rec.a, rec.n, rec.perimeter, rec.area] + list(rec.lambdas[:k])
            for rec in sweep]


def inequality_rows(report):
    rows = []
    for rec in report:
        rows.append([
            rec.r, rec.lambda_1,
            "" if rec.lambda_2 is None else rec.lambda_2,
            "" if rec.slack_sum is None else rec.slack_sum,
            "" if rec.slack_product is None else rec.slack_product,
            "" if rec.slack_bound is None else rec.slack_bound,
            int(rec.satisfied),
        ])
    return rows


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
    header = ["r", "a", "n", "perimeter", "area"] + [f"lambda_{j + 1}" for j in range(k)]
    for family, kind, r_values in sweeps:
        sweep = parameter_sweep(family, kind, r_values, k, n_policy=n_policy)
        tag = f"{family}_{kind.value}"
        write_csv(outdir / f"sweep_{tag}.csv", header, sweep_rows(sweep, k))
        report = check_inequalities(sweep, kind)
        write_csv(
            outdir / f"inequalities_{tag}.csv",
            ["r", "lambda_1", "lambda_2", "slack_sum", "slack_product", "slack_bound", "satisfied"],
            inequality_rows(report),
        )
        print(f"{tag:20s} inequalities satisfied at all {len(report)} points:",
              all(rec.satisfied for rec in report))

    for kk, bracket in ((2, (1.5, 2.5)), (3, (2.5, 3.5))):
        res = find_crossing("ellipse", DomainKind.BOUNDED_INTERIOR, kk, bracket,
                            n_policy=n_policy)
        write_json(outdir / f"crossing_k{kk}.json", {
            "k": res.k, "r": res.r, "lambda_low": res.lambda_low,
            "lambda_high": res.lambda_high, "gap": res.gap, "n": res.n,
            "solves": res.solves,
        })
        print(f"crossing k={kk}: r* = {fmt(res.r)}, gap = {fmt(res.gap)}, "
              f"{res.solves} solves")

    print(f"artifacts written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
