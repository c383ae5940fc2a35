"""One workload process: set up, then run passes of operations in a closed loop.

Started by ``run.py`` with the workload's BLAS thread count already in
the environment.  One caller issues the operations; each starts when
the previous one returns.  Correctness gates run between passes,
outside the timed region.  The last line of standard output is one
JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import OP, Tracer, layer_metrics


def _openblas_libraries() -> dict:
    """Version and live thread count of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info = {"threads": threads(), "config": config().decode()}
                    break
            if info:
                break
        found[os.path.basename(path)] = info
    return found


def environment(workload: str, seed: int, blas_threads: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_loaded": _openblas_libraries(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
    }


def run_pass(wl, index: int, tracer) -> tuple[dict, list]:
    """One timed pass over the workload's operations; returns the pass and its outputs."""
    wl.before_pass()
    latencies, outputs = [], []
    t0 = time.perf_counter()
    for op in wl.ops:
        start = time.perf_counter()
        if tracer is not None:
            tracer.op = (index, op["label"])
            span = tracer.open(OP)
        try:
            outputs.append((wl.run(op), None))
        except Exception:
            outputs.append((None, traceback.format_exc()))
        finally:
            if tracer is not None:
                tracer.close(span)
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    return {"index": index, "traced": tracer is not None, "wall": wall,
            "latencies": latencies}, outputs


def gate(wl, record: dict, outputs: list, corrupt: bool) -> None:
    """Check each operation's output; a raise or a failed check fails the operation."""
    record["ok"] = []
    for op, (out, error) in zip(wl.ops, outputs):
        if error is None:
            if corrupt:
                out = wl.corrupt(op, out)
            try:
                error = wl.check(op, out)
            except Exception:
                error = traceback.format_exc()
        record["ok"].append(error is None)
        if error is not None:
            print(f"operation {op['label']} failed in pass {record['index']}: {error}",
                  file=sys.stderr)


def measure(wl, seconds: float, trace: bool, corrupt: bool):
    """Passes until the next one would take the timed total past ``seconds``.

    With tracing, passes alternate untraced and traced (at least one
    of each), so the difference of their medians is the tracing
    overhead.  Gates run with the wrappers removed.
    """
    tracer = Tracer() if trace else None
    passes = []
    timed = 0.0
    while True:
        index = len(passes)
        if trace and index % 2 == 1:
            with tracer.installed():
                record, outputs = run_pass(wl, index, tracer)
        else:
            record, outputs = run_pass(wl, index, None)
        gate(wl, record, outputs, corrupt)
        passes.append(record)
        timed += record["wall"]
        if trace and index == 0:
            continue
        if timed + record["wall"] > seconds:
            return passes, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="JSON inputs from inputs.make_inputs")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true", help="set up, report setup_s, exit")
    parser.add_argument("--corrupt", action="store_true", help="damage every result (self-test)")
    args = parser.parse_args()

    import steklov
    from inputs import BLAS_THREADS
    from workloads import WORKLOADS

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(steklov.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported steklov from {steklov.__file__}, not from {src}")

    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](json.loads(args.inputs), workdir)
    try:
        wl.warmup()
        setup_s = time.monotonic() - args.spawned_at
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes, tracer = measure(wl, args.seconds, bool(args.trace), args.corrupt)
    finally:
        wl.close()

    record = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "environment": environment(args.workload, args.seed, BLAS_THREADS),
    }
    if tracer is not None:
        attempted = sum(len(p["ok"]) for p in passes)
        failed = sum(not ok for p in passes for ok in p["ok"])
        record["layers"], record["trace_error"] = layer_metrics(tracer, passes, attempted, failed)
        record["not_measured"] = tracer.missing
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
