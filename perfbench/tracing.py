"""Spans around the package's layer functions, for the traced run.

A target is wrapped at the module attribute its caller looks up:
``from .densela import lu_factor`` binds ``lu_factor`` in
``steklov.operators``, so the same function is wrapped once there (as
``operators.lu_factor``) and once in ``steklov.densela`` (as
``densela.lu_factor``).  Every wrapper returns its result unchanged.  A
target that no longer exists is skipped, and the metrics it feeds are
reported as not measured (``None``).

A span is ``[name, start, end, parent, op, count]``; spans are kept in
memory and written out by the caller at the end of the run.  Self time
is a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time


def _lu_solve_name(args, kwargs) -> str:
    # LUFactors.solve(self, b): a matrix of right-hand sides is the E
    # solve in build_dtn, one vector is an Arnoldi step on A^{-1}.
    b = args[1] if len(args) > 1 else kwargs["b"]
    return "operators.E_solve" if getattr(b, "ndim", 1) == 2 else "densela.arnoldi_matvec"


def _points(args, kwargs, result) -> int:
    return int(result.points.size)


def _bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, span name or name function, count function)
TARGETS = (
    ("steklov.studies", "scale_to_perimeter", "curves.scale_to_perimeter", None),
    ("steklov.curves", "build_grid", "curves.build_grid", None),
    ("steklov.operators", "build_grid", "curves.build_grid", None),
    ("steklov.spectrum", "build_dtn", "operators.build_dtn", None),
    ("steklov.operators", "nystrom_matrices", "operators.nystrom_matrices", None),
    ("steklov.operators", "wittich_matrix", "operators.wittich_matrix", None),
    ("steklov.operators", "lu_factor", "operators.lu_factor", None),
    ("steklov.densela", "LUFactors.solve", _lu_solve_name, None),
    ("steklov.spectrum", "fourier_diff_matrix", "spectrum.fourier_diff_matrix", None),
    ("steklov.spectrum", "assemble_q", "spectrum.assemble_q", None),
    ("steklov.spectrum", "solve_spectrum", "spectrum.solve_spectrum", None),
    ("steklov.studies", "solve_spectrum", "spectrum.solve_spectrum", None),
    ("steklov.cli", "solve_spectrum", "spectrum.solve_spectrum", None),
    ("steklov.spectrum", "smallest_magnitude_eigs", "densela.smallest_magnitude_eigs", None),
    ("steklov.densela", "lu_factor", "densela.lu_factor", None),
    ("steklov.studies", "find_crossing", "studies.find_crossing", None),
    ("steklov.cli", "raster_field", "extension.raster_field", None),
    ("steklov.extension", "cauchy_eval", "extension.cauchy_eval", _points),
    ("steklov.cli", "main", "cli.main", None),
    ("steklov.cli", "write_csv", "cli.write_csv", _bytes),
)

# Span names fed by the LUFactors.solve target.
_LU_SOLVE_NAMES = ("operators.E_solve", "densela.arnoldi_matvec")

# Root span of one benchmark operation; its self time is code inside
# the operation that no layer span covers.
OP = "op"

# Per-layer metrics: name -> (unit, spans it needs, how it is computed).
# Values are per traced pass of the workload.
_SELF = (
    "operators.build_dtn", "operators.nystrom_matrices", "operators.wittich_matrix",
    "operators.lu_factor", "operators.E_solve",
    "spectrum.solve_spectrum", "spectrum.fourier_diff_matrix", "spectrum.assemble_q",
    "densela.smallest_magnitude_eigs", "densela.lu_factor", "densela.arnoldi_matvec",
    "curves.scale_to_perimeter", "curves.build_grid",
    "extension.raster_field", "extension.cauchy_eval",
    "cli.main", "cli.write_csv", OP,
)
PER_LAYER = {f"{name}.self_s": ("s", (name,), ("self", name)) for name in _SELF}
PER_LAYER.update({
    "operators.wittich_matrix.calls": ("count", ("operators.wittich_matrix",),
                                       ("calls", "operators.wittich_matrix")),
    "densela.arnoldi_matvec.calls": ("count", ("densela.arnoldi_matvec",),
                                     ("calls", "densela.arnoldi_matvec")),
    "studies.find_crossing.s": ("s", ("studies.find_crossing",),
                                ("total", "studies.find_crossing")),
    "studies.solves_per_crossing": ("count", ("studies.find_crossing", "spectrum.solve_spectrum"),
                                    ("solves_per_crossing",)),
    "extension.points_evaluated": ("count", ("extension.cauchy_eval",),
                                   ("count", "extension.cauchy_eval")),
    "cli.bytes_written": ("bytes", ("cli.write_csv",), ("count", "cli.write_csv")),
    "trace.untracked_s": ("s", (), ("untracked",)),
    "trace.overhead_s": ("s", (), ("overhead",)),
    "failed_frac": ("ratio", (), ("failed_frac",)),
})


def _resolve(module: str, attr: str):
    """(owner, leaf name, function) of a target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return (owner, leaf, fn) if callable(fn) else None


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._names: set[str] = {OP}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.spans[idx][5] += count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every resolvable wrapper; restore the originals on exit."""
        saved = []
        self.missing = []
        try:
            for module, attr, name, count in self.targets:
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, leaf, fn = found
                saved.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(fn, name, count))
                self._names.update(_LU_SOLVE_NAMES if callable(name) else (name,))
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    def measured(self, metric: str) -> bool:
        return all(name in self._names for name in PER_LAYER[metric][1])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: list[dict], attempted: int, failed: int) -> tuple[dict, str | None]:
    """Per-layer metrics over the traced passes, and an error if the books do not balance.

    ``passes`` holds every pass of the run, each with ``traced``,
    ``index`` and ``wall``.  For every traced pass the self times of its
    spans plus the time no operation span covers must add up to the
    pass's wall time.
    """
    spans = tracer.spans
    if any(span[2] is None for span in spans):
        return {}, "a span was never closed"
    selfs = self_times(spans)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    by_pass = {p["index"]: [] for p in traced}
    for i, span in enumerate(spans):
        by_pass[span[4][0]].append(i)

    error = None
    untracked = 0.0
    for p in traced:
        idx = by_pass[p["index"]]
        roots = sum(spans[i][2] - spans[i][1] for i in idx if spans[i][3] < 0)
        gap = p["wall"] - roots
        total_self = sum(selfs[i] for i in idx)
        if gap < 0.0 or abs(total_self + gap - p["wall"]) > 1e-9 * max(1.0, p["wall"]):
            error = (f"pass {p['index']}: self times {total_self:.9f} s + untracked {gap:.9f} s "
                     f"!= wall {p['wall']:.9f} s")
        untracked += gap

    per = 1.0 / len(traced)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    total: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + span[5]
        total[name] = total.get(name, 0.0) + (span[2] - span[1])

    crossings = calls.get("studies.find_crossing", 0)
    solves_in_crossings = 0
    for span in spans:
        if span[0] != "spectrum.solve_spectrum":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "studies.find_crossing":
            parent = spans[parent][3]
        solves_in_crossings += parent >= 0

    metrics = {}
    for metric, (unit, _needs, (kind, *arg)) in PER_LAYER.items():
        if not tracer.measured(metric):
            value = None
        elif kind == "self":
            value = self_by_name.get(arg[0], 0.0) * per
        elif kind == "total":
            value = total.get(arg[0], 0.0) * per
        elif kind == "calls":
            value = calls.get(arg[0], 0) * per
        elif kind == "count":
            value = counts.get(arg[0], 0) * per
        elif kind == "solves_per_crossing":
            value = solves_in_crossings / crossings if crossings else 0.0
        elif kind == "untracked":
            value = untracked * per
        elif kind == "overhead":
            value = (statistics.median(p["wall"] for p in traced)
                     - statistics.median(p["wall"] for p in plain))
        else:
            value = failed / attempted
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, error
