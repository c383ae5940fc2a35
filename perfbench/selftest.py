"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in about a minute:

* every workload runs at a tiny size through ``run.py``, untraced and
  traced, with no failed operation and every metric reported;
* the traced counts repeat exactly when a run is repeated;
* a corrupted result is counted as failed (``--corrupt``);
* the tracing wrappers return their results unchanged and are removed
  afterwards, a wrapped name that no longer exists is reported as not
  measured, and self times add up;
* ``BENCHMARK.json`` names the harness's workloads and metrics.

Exits 0 if every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import BLAS_THREADS  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import OP, PER_LAYER, TARGETS, Tracer, layer_metrics, self_times  # noqa: E402

# Counts that must repeat exactly between runs of the same inputs.
EXACT_COUNTS = (
    "studies.solves_per_crossing",
    "operators.wittich_matrix.calls",
    "densela.arnoldi_matvec.calls",
    "extension.points_evaluated",
    "cli.bytes_written",
)

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def harness(workload: str, *flags: str) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--tiny", *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    plain = harness(workload, "--trace", "0")
    expect(plain is not None and plain["correct"] and plain["failed"] == 0
           and set(plain["metrics"]) == set(END_TO_END_UNITS)
           and all(m["value"] > 0 for m in plain["metrics"].values()),
           f"{workload}: untraced tiny run is correct and reports every end-to-end metric")

    traced = [harness(workload, "--trace", "1") for _ in range(2)]
    ok = all(r is not None and r["correct"] and r["failed"] == 0 for r in traced)
    expect(ok and all(set(r["metrics"]) == set(PER_LAYER)
                      and all(m["value"] is not None for m in r["metrics"].values())
                      for r in traced),
           f"{workload}: traced tiny runs are correct and report every per-layer metric")
    if ok:
        first, second = (r["metrics"] for r in traced)
        expect(all(first[c]["value"] == second[c]["value"] for c in EXACT_COUNTS),
               f"{workload}: counts repeat exactly "
               + str({c: first[c]["value"] for c in EXACT_COUNTS}))

    bad = harness(workload, "--trace", "1", "--corrupt")
    expect(bad is not None and not bad["correct"] and bad["failed"] == bad["attempted"] > 0
           and bad["metrics"]["failed_frac"]["value"] == 1.0,
           f"{workload}: every corrupted result counts as failed")


def check_tracing() -> None:
    import numpy as np

    import steklov.operators
    import steklov.spectrum
    from steklov import make_builtin

    curve = make_builtin("kite")
    original = steklov.operators.lu_factor
    expected = steklov.spectrum.solve_spectrum(curve, 300, 4)

    gone = tuple(t for t in TARGETS if t[1] != "wittich_matrix") + (
        ("steklov.operators", "wittich_matrix_renamed", "operators.wittich_matrix", None),
        ("steklov.no_such_module", "anything", "operators.wittich_matrix", None),
    )
    tracer = Tracer(gone)
    with tracer.installed():
        wrapped = steklov.operators.lu_factor is not original
        tracer.op = (1, "kite")
        t0 = time.perf_counter()
        span = tracer.open(OP)
        got = steklov.spectrum.solve_spectrum(curve, 300, 4)
        tracer.close(span)
        wall = time.perf_counter() - t0
    expect(wrapped and steklov.operators.lu_factor is original,
           "wrappers are installed, then the originals restored")
    expect(all(np.array_equal(getattr(got, f), getattr(expected, f))
               for f in ("lambdas", "traces", "conjugates", "residuals")),
           "a traced solve returns exactly the untraced result")
    expect(len(tracer.missing) == 2, f"missing targets are skipped: {tracer.missing}")

    passes = [{"index": 0, "traced": False, "wall": wall}, {"index": 1, "traced": True, "wall": wall}]
    metrics, error = layer_metrics(tracer, passes, attempted=1, failed=0)
    expect(error is None, "self times plus untracked time add up to the traced wall time")
    expect(metrics["operators.wittich_matrix.calls"]["value"] is None
           and metrics["operators.wittich_matrix.self_s"]["value"] is None
           and metrics["densela.arnoldi_matvec.calls"]["value"] > 0,
           "metrics of a vanished target are not measured, the rest are")

    spans = [["a", 0.0, 10.0, -1, None, 0], ["b", 1.0, 3.0, 0, None, 0],
             ["c", 4.0, 6.0, 0, None, 0], ["d", 4.5, 5.0, 2, None, 0]]
    expect(self_times(spans) == [6.0, 2.0, 1.5, 0.5], "self time subtracts direct children only")


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(BLAS_THREADS),
           "BENCHMARK.json names the harness's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
           "BENCHMARK.json names the end-to-end metrics with their units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {name: unit for name, (unit, *_rest) in PER_LAYER.items()},
           "BENCHMARK.json names the per-layer metrics with their units")


def main() -> int:
    check_manifest()
    check_tracing()
    for workload in BLAS_THREADS:
        check_workload(workload)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
