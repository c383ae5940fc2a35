"""The benchmark's workloads run and pass their own gates at full size.

perfbench/ times the public API in fresh processes; a warm-up that
raises, or a result that fails a workload's correctness gate, shows
there only as a failed run.  This test loads the input and workload
modules from their files (the harness itself is not run) and makes one
untimed pass of every workload for three seeds.
"""

import importlib.util
import warnings
from pathlib import Path

import pytest

from steklov import UnderResolvedWarning

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs, workloads = _load("inputs"), _load("workloads")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pass_meets_its_gates(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](inputs.make_inputs(name, seed), tmp_path / "work")
    try:
        with warnings.catch_warnings():  # the modes warm-up's n = 64 kite warns, by design
            warnings.simplefilter("ignore", UnderResolvedWarning)
            wl.warmup()
        wl.before_pass()
        for op in wl.ops:
            assert wl.check(op, wl.run(op)) is None, op["label"]
    finally:
        wl.close()
