"""Benchmark of the steklov solver, one workload per run.

    python3 perfbench/run.py --workload {solve-large,crossing,modes} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The seed makes the workload's inputs (``inputs.py``), and
the workload process receives only those inputs.  Each run starts
fresh processes with the workload's BLAS thread count in their
environment: ``SETUP_PROBES`` that only set up (import, curves,
warm-up), then one that sets up and measures.  ``setup_s`` is the
median set-up time of all of them.

The workload process is a closed loop with one caller: it repeats
passes over the workload's operations until the next pass would take
the timed total past ``--seconds``, and checks every output.  With
``--trace 0`` the result holds the end-to-end metrics:

    setup_s      process start to the first timed operation (median)
    wall_s       one pass over the operations (median over passes)
    op_p50_s     median latency of one operation
    peak_rss_mb  peak resident memory of the workload process

With ``--trace 1`` passes alternate untraced and traced, and the result
holds the per-layer metrics of ``tracing.PER_LAYER`` instead.  The last
line of standard output is the JSON result; the line before it is the
environment record.  The full record, with every pass and span, goes
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import BLAS_THREADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 4
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class HarnessError(RuntimeError):
    """A workload process failed; the run has no result."""


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS[workload])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one workload process to completion and return its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("time limit reached before the workload process started")
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise HarnessError("workload process printed no record")
    return json.loads(lines[-1])


def end_to_end(record: dict, setups: list[float]) -> dict:
    plain = [p for p in record["passes"] if not p["traced"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "op_p50_s": statistics.median(t for p in plain for t in p["latencies"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(BLAS_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes (self-test only)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every result before its check (self-test only)")
    args = parser.parse_args()
    # subprocess.run kills and waits for its child on any exception.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "steklov" / "__init__.py").is_file():
        print(f"error: no steklov package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    inputs = make_inputs(args.workload, args.seed, tiny=args.tiny)
    env = child_env(args.workload)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--inputs", json.dumps(inputs)]
    workdirs = [OUT / f"work-{tag}-{os.getpid()}-{i}" for i in range(SETUP_PROBES + 1)]
    try:
        setups = [spawn(common + ["--workdir", str(workdirs[i]), "--probe"], env, deadline)["setup_s"]
                  for i in range(SETUP_PROBES)]
        record = spawn(common + ["--workdir", str(workdirs[-1]), "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                       + (["--corrupt"] if args.corrupt else []), env, deadline)
    except HarnessError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    setups.append(record["setup_s"])

    oks = [ok for p in record["passes"] for ok in p["ok"]]
    attempted, failed = len(oks), oks.count(False)
    e2e = end_to_end(record, setups)
    correct = failed == 0
    if args.trace:
        metrics = record["layers"]
        if record["trace_error"] is not None:
            print(f"error: trace does not add up: {record['trace_error']}", file=sys.stderr)
            correct = False
        if record["not_measured"]:
            print(f"not measured (targets gone): {', '.join(record['not_measured'])}")
    else:
        metrics = e2e
    record.update(inputs=inputs, setup_samples=setups, end_to_end=e2e, attempted=attempted,
                  failed=failed, correct=correct)
    (OUT / f"{tag}.json").write_text(json.dumps(record) + "\n")

    plain = [p for p in record["passes"] if not p["traced"]]
    print(f"{args.workload} seed {args.seed}: {len(record['passes'])} passes "
          f"({len(plain)} untraced), {attempted} operations, {failed} failed; "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in e2e.items())
          + f"; setup samples {len(setups)}")
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
