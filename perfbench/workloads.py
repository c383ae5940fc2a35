"""Operations, warm-up and correctness gates of the benchmark workloads.

Each operation calls the public API through a module attribute looked up
at call time (``steklov.spectrum.solve_spectrum``, not a name bound at
import), so the traced run's wrappers see it.  ``check`` returns None
for a correct result and a message otherwise; ``corrupt`` damages a
result so the self-test can show that the gate catches it.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
from pathlib import Path

import numpy as np

import steklov.cli
import steklov.curves
import steklov.extension
import steklov.spectrum
import steklov.studies
from steklov.curves import DomainKind

# Reference values of the acceptance suite (tests/test_acceptance.py):
# converged n = 1024 spectra, stable to ~1e-13 under refinement.
G1_SCALED = np.array([
    1.61465185265077, 1.61465185265086, 2.97737736702950, 2.97737736702974,
    5.48337898612383, 5.48337898612393, 6.70773879741621, 6.70773879741642,
    7.65773980917837, 9.01958292273808,
])
G2_SCALED = np.array([
    0.82158389917705, 2.88853778576938, 2.94484661549781, 3.34172628966417,
    4.55074794910963, 5.03673963982603, 6.23305352696130, 6.32549098892433,
    7.80580771944321, 7.90841610595226,
])
KITE_INTERIOR = np.array([
    0.40305996416748, 0.52424200142763, 1.18270198665242, 1.38370805250322,
    1.72113574153495, 2.01779563230560, 2.20083979220023, 2.70613635836981,
    2.78466524903348,
])
KITE_EXTERIOR = np.array([
    0.54467770056080, 0.57081699412402, 1.12953414359678, 1.30930577399346,
    1.74564067269481, 1.82146960379857, 2.29287781627365, 2.44997484632459,
    2.90350756743372,
])
ELLIPSE_CROSSING_R = {2: 1.983873708359900, 3: 3.117811741879000}
ELLIPSE_CROSSING_VALUE_K2 = 1.679239176823

SPECTRUM_TOL = 1e-9
CROSSING_R_RTOL = 1e-6
CROSSING_VALUE_TOL = 1e-8
# The CLI prints 15 significant digits, so a row differs from the
# library value by at most ~5e-15 relative to the value.
CSV_RTOL = 1e-13


class Workload:
    """Set up by ``__init__`` and ``warmup()``; defines ``ops``, ``run(op)``,
    ``check(op, out)`` and ``corrupt(op, out)``."""

    def before_pass(self) -> None:
        """Untimed preparation before each pass."""

    def close(self) -> None:
        """Release what the workload created."""


class SolveLarge(Workload):
    """solve_spectrum(curve, n, k) on g1, g2 and the interior and exterior kite."""

    WARM_N = 300  # above the dense threshold, so warm-up loads the Arnoldi path

    def __init__(self, inputs: dict, workdir: Path):
        self.n, self.k = inputs["n"], inputs["k"]
        self.ops = inputs["ops"]
        self.curves = {}
        for op in self.ops:
            alpha = complex(*op["alpha"]) if op["alpha"] is not None else None
            self.curves[op["label"]] = steklov.curves.make_builtin(
                op["family"], kind=DomainKind(op["kind"]), alpha=alpha
            )

    def warmup(self) -> None:
        steklov.spectrum.solve_spectrum(self.curves["kite-interior"], self.WARM_N, self.k)

    def run(self, op):
        return steklov.spectrum.solve_spectrum(self.curves[op["label"]], self.n, self.k)

    def check(self, op, spec) -> str | None:
        label = op["label"]
        if label in ("g1", "g2"):
            got, ref = spec.lambdas_scaled, G1_SCALED if label == "g1" else G2_SCALED
        else:
            got, ref = spec.lambdas, KITE_INTERIOR if label == "kite-interior" else KITE_EXTERIOR
        err = float(np.max(np.abs(got[: len(ref)] - ref)))
        return None if err <= SPECTRUM_TOL else f"{label}: eigenvalue error {err:.3e}"

    def corrupt(self, op, spec):
        scaled = spec.lambdas_scaled
        return dataclasses.replace(
            spec,
            lambdas=spec.lambdas * (1.0 + 1e-8),
            lambdas_scaled=None if scaled is None else scaled * (1.0 + 1e-8),
        )


class Crossing(Workload):
    """find_crossing on the bounded ellipse family for k = 2 and k = 3."""

    WARM_N = 64

    def __init__(self, inputs: dict, workdir: Path):
        self.family, self.kind = inputs["family"], DomainKind(inputs["kind"])
        self.n = inputs["n"]
        self.ops = inputs["ops"]

    def warmup(self) -> None:
        curve = steklov.curves.scale_to_perimeter(
            self.family, {"r": 2.0}, 2.0 * math.pi, self.WARM_N, kind=self.kind
        )
        steklov.spectrum.solve_spectrum(curve, self.WARM_N, 3)

    def run(self, op):
        return steklov.studies.find_crossing(
            self.family, self.kind, op["k"], tuple(op["bracket"]), n_policy=self.n
        )

    def check(self, op, res) -> str | None:
        k = op["k"]
        rel = abs(res.r - ELLIPSE_CROSSING_R[k]) / ELLIPSE_CROSSING_R[k]
        if not rel <= CROSSING_R_RTOL:
            return f"k={k}: r* relative error {rel:.3e}"
        if k == 2:
            err = max(abs(res.lambda_low - ELLIPSE_CROSSING_VALUE_K2),
                      abs(res.lambda_high - ELLIPSE_CROSSING_VALUE_K2))
            if not err <= CROSSING_VALUE_TOL:
                return f"k=2: crossing value error {err:.3e}"
        return None

    def corrupt(self, op, res):
        return dataclasses.replace(res, r=res.r * (1.0 + 1e-5))


class Modes(Workload):
    """In-process ``steklov modes`` CLI calls on the interior and exterior kite."""

    WARM_N = 64

    def __init__(self, inputs: dict, workdir: Path):
        self.n, self.k = inputs["n"], inputs["k"]
        self.modes, self.raster = inputs["modes"], inputs["raster"]
        self.ops = inputs["ops"]
        self.workdir = workdir
        self._reference: dict[str, list] = {}

    def _outdir(self, op) -> Path:
        return self.workdir / op["label"]

    def argv(self, op, outdir: Path, n: int, modes: list[int], raster: int) -> list[str]:
        spec = op["spec"]
        argv = ["modes", "--curve", spec["family"]]
        if spec["kind"] == DomainKind.UNBOUNDED_EXTERIOR.value:
            argv.append("--exterior")
        if spec.get("alpha") is not None:
            # One token, since a leading minus would read as an option.
            argv.append("--alpha=" + ",".join(repr(float(v)) for v in spec["alpha"]))
        return argv + ["--n", str(n), "--k", str(self.k),
                       "--modes", ",".join(str(j) for j in modes),
                       "--raster", str(raster), "--output", str(outdir)]

    def _call(self, argv: list[str]) -> None:
        code = steklov.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"steklov {' '.join(argv)} exited with {code}")

    def warmup(self) -> None:
        op = self.ops[0]
        self._call(self.argv(op, self.workdir / "warmup", self.WARM_N, [1], 16))

    def before_pass(self) -> None:
        for op in self.ops:
            shutil.rmtree(self._outdir(op), ignore_errors=True)

    def run(self, op):
        outdir = self._outdir(op)
        self._call(self.argv(op, outdir, self.n, self.modes, self.raster))
        return outdir

    def reference(self, op) -> list:
        """Library rasters of the same spectrum, computed once per operation."""
        label = op["label"]
        if label not in self._reference:
            curve = steklov.curves.curve_from_spec(op["spec"], n=self.n)
            spec = steklov.spectrum.solve_spectrum(curve, self.n, self.k)
            self._reference[label] = [
                steklov.extension.raster_field(spec, j, self.raster) for j in self.modes
            ]
        return self._reference[label]

    def check(self, op, outdir: Path) -> str | None:
        label = op["label"]
        for j, ras in zip(self.modes, self.reference(op)):
            path = outdir / f"mode_{j}.csv"
            if not path.is_file():
                return f"{label}: {path.name} was not written"
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            ny, nx = ras.u.shape
            if rows.shape != (nx * ny, 4):
                return f"{label}: {path.name} has shape {rows.shape}, expected {(nx * ny, 4)}"
            x, y, u, flag = rows.T
            if not (np.allclose(x, np.tile(ras.x, ny), rtol=CSV_RTOL, atol=0.0)
                    and np.allclose(y, np.repeat(ras.y, nx), rtol=CSV_RTOL, atol=0.0)):
                return f"{label}: {path.name} raster coordinates differ"
            if not np.array_equal(flag, ras.flags.ravel().astype(float)):
                return f"{label}: {path.name} near-boundary flags differ"
            ref_u = ras.u.ravel()
            if not np.array_equal(np.isnan(u), np.isnan(ref_u)):
                return f"{label}: {path.name} nan mask differs"
            ok = ~np.isnan(ref_u) & (flag == 0)
            scale = float(np.max(np.abs(ref_u[ok]), initial=0.0))
            err = float(np.max(np.abs(u[ok] - ref_u[ok]), initial=0.0))
            if not err <= CSV_RTOL * scale:
                return f"{label}: {path.name} field differs by {err:.3e} (scale {scale:.3e})"
        return None

    def corrupt(self, op, outdir: Path) -> Path:
        """Nudge the first finite field value of the first mode by one part in 1e9."""
        path = outdir / f"mode_{self.modes[0]}.csv"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            x, y, u, flag = line.split(",")
            if u != "nan":
                lines[i] = ",".join([x, y, repr(float(u) * (1.0 + 1e-9) + 1e-9), flag])
                break
        path.write_text("\n".join(lines) + "\n")
        return outdir

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"solve-large": SolveLarge, "crossing": Crossing, "modes": Modes}
