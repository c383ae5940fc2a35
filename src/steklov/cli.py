"""Command-line front end producing deterministic CSV/JSON artifacts.

Subcommands
-----------
solve      spectrum of one domain -> spectrum.json (or .csv), optional
           trace CSV and operator dumps
modes      interior eigenfunction fields -> mode_<j>.csv, from a fresh
           solve or from a previously written spectrum.json
converge   eigenvalue errors against a fine-grid reference -> convergence.csv
sweep      family sweep at fixed perimeter -> sweep.csv
crossing   consecutive-eigenvalue crossing search -> crossing.json
verify     spectral inequality report over a sweep -> inequalities.csv

All floating point output is formatted with 15 significant digits, so
identical configurations produce byte-identical artifacts.  Exit
status: 0 success, 2 configuration error, 3 solver error; failures
emit a one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from . import curves
from .curves import CurveError, DomainKind
from .densela import EigenSolveError
from .extension import ExtensionError, RasterField, eigenmode_field, raster_field
from .operators import DiscretizationError, build_dtn
from .spectrum import SteklovSpectrum, solve_spectrum
from .studies import (
    StudyError,
    asymptotic_gaps,
    check_inequalities,
    convergence_study,
    find_crossing,
    parameter_sweep,
)

SCHEMA = "steklov/2"


class ConfigError(Exception):
    """Invalid command-line request."""


_CONFIG_ERRORS = (ConfigError, CurveError, StudyError, OSError)
_SOLVER_ERRORS = (DiscretizationError, EigenSolveError, ExtensionError, np.linalg.LinAlgError)


@contextmanager
def _reading(what: str):  # a ValueError or KeyError in user input is a ConfigError
    try:
        yield
    except CurveError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed {what}: {exc!r}") from exc


def _check_size(n: int | None, k: int) -> None:
    if k < 1 or (n is not None and (n < 4 or n % 2 or k + 2 > n // 2)):
        raise ConfigError(f"need an even grid size n >= 4 and 1 <= k <= n/2 - 2, got n={n}, k={k}")


def fmt(x: float) -> str:
    """Fixed 15-significant-digit rendering used everywhere."""
    return f"{float(x):.15g}"


def _json_ready(obj):
    """Round floats to the printed precision so json output is stable."""
    if isinstance(obj, dict):
        return {key: _json_ready(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(val) for val in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    """Floats (Python or numpy) as `fmt` renders them, other cells as `str`.

    All cells go through one %-format, with a row template per tuple of
    cell types; every row of a float array has the same one.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        kinds = [(float,) * rows.shape[1]] * len(rows)
        rows = rows.tolist()
    else:
        rows = list(rows)
        kinds = [tuple(map(type, row)) for row in rows]
    templates = {
        k: ",".join("%.15g" if issubclass(t, (float, np.floating)) else "%s" for t in k) + "\n"
        for k in set(kinds)
    }
    body = "".join(map(templates.__getitem__, kinds)) % tuple(chain.from_iterable(rows))
    path.write_text(",".join(header) + "\n" + body)


# ---------------------------------------------------------------------------
# Curve options
# ---------------------------------------------------------------------------

def _add_curve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--curve", "--family", dest="family", help="builtin curve family")
    parser.add_argument(
        "--params", default="", help="family parameters as comma-separated k=v pairs, e.g. r=2,a=1"
    )
    parser.add_argument(
        "--exterior", action="store_true", help="solve the unbounded exterior problem"
    )
    parser.add_argument("--alpha", help="base point override as re,im (bounded domains)")
    parser.add_argument(
        "--perimeter", type=float, default=None, help="normalize the curve to this boundary length"
    )
    parser.add_argument("--config", help="JSON file with a curve spec (overrides curve flags)")


def _parse_params(text: str) -> dict:
    params = {}
    for item in filter(None, (piece.strip() for piece in text.split(","))):
        if "=" not in item:
            raise CurveError(f"malformed --params entry {item!r}; expected k=v")
        key, val = item.split("=", 1)
        params[key.strip()] = float(val)
    return params


def _curve_spec_from_args(args) -> dict:
    if args.config:
        return json.loads(Path(args.config).read_text())  # curve_from_spec checks its type
    if not args.family:
        raise CurveError("a curve is required: pass --curve/--family or --config")
    spec: dict = {"family": args.family, "params": _parse_params(args.params)}
    spec["kind"] = (
        DomainKind.UNBOUNDED_EXTERIOR.value if args.exterior else DomainKind.BOUNDED_INTERIOR.value
    )
    if args.alpha:
        re_part, im_part = (float(p) for p in args.alpha.split(","))
        spec["alpha"] = [re_part, im_part]
    if args.perimeter is not None:
        spec["perimeter_normalize"] = args.perimeter
    return spec


def _build_curve(args, n: int):
    with _reading("curve options or --config"):
        return curves.curve_from_spec(_curve_spec_from_args(args), n=n)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _spectrum_payload(spec: SteklovSpectrum) -> dict:
    payload = {
        "schema": SCHEMA,
        "curve": curves.curve_to_spec(spec.curve),
        "kind": spec.curve.kind.value,
        "n": spec.n,
        "k": spec.k,
        "lambdas": list(spec.lambdas),
        "lambdas_scaled": list(spec.lambdas_scaled) if spec.lambdas_scaled is not None else None,
        "residuals": list(spec.residuals),
        "trace_tail": list(spec.trace_tail),
        "perimeter": spec.perimeter,
        "area": spec.area,
    }
    return payload


def _write_spectrum_csv(path: Path, spec: SteklovSpectrum) -> None:
    rows = []
    for j in range(spec.k):
        scaled = spec.lambdas_scaled[j] if spec.lambdas_scaled is not None else ""
        rows.append([j + 1, spec.lambdas[j], scaled, spec.residuals[j]])
    write_csv(path, ["mode", "lambda", "lambda_scaled", "residual"], rows)


def write_field_csvs(outdir: Path, modes: list[int], fields) -> None:
    """mode_<j>.csv (x, y, u, flag) for raster fields or point samples of the given modes.

    The fields share their coordinates, as one `raster_field` or `eigenmode_field` call
    returns them: x and y are rendered once into a row template that each file fills
    with u and flag.  The bytes are those of `write_csv` on the float table.
    """
    def render(values: np.ndarray) -> list[str]:
        return ["%.15g" % v for v in values.tolist()]

    first = fields[0]
    if isinstance(first, RasterField):
        xs = render(first.x)
        xy = ((x, y) for y in render(first.y) for x in xs)
    else:
        xy = zip(render(first.points.real), render(first.points.imag))
    template = "".join(f"{x},{y},%.15g,%.15g\n" for x, y in xy)
    for j, field in zip(modes, fields):
        cells = np.column_stack((field.u.ravel(), field.flags.ravel())).ravel().tolist()
        (outdir / f"mode_{j}.csv").write_text("x,y,u,flag\n" + template % tuple(cells))


def _dump_operators(outdir: Path, curve, n: int) -> None:
    disc = build_dtn(curve, n)
    for name, mat in (("K", disc.K), ("B", disc.B), ("C", disc.C), ("E", disc.E)):
        write_csv(outdir / f"operator_{name}.csv", [f"c{j}" for j in range(n)], mat)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args, outdir: Path) -> int:
    if args.scaled and args.exterior:
        raise CurveError("--scaled applies to bounded domains only")
    _check_size(args.n, args.k)
    curve = _build_curve(args, args.n)
    spec = solve_spectrum(curve, args.n, args.k)
    if args.format == "json":
        write_json(outdir / "spectrum.json", _spectrum_payload(spec))
    else:
        _write_spectrum_csv(outdir / "spectrum.csv", spec)
    if args.traces:
        columns = (("traces", "gamma", spec.traces), ("conjugates", "mu", spec.conjugates))
        for name, col, data in columns:
            header = ["t"] + [f"{col}_{j + 1}" for j in range(spec.k)]
            write_csv(outdir / f"{name}.csv", header, np.column_stack((spec.grid.t, data)))
    if args.dump_operators:
        _dump_operators(outdir, curve, args.n)
    shown = spec.lambdas_scaled if args.scaled else spec.lambdas
    label = "lambda_scaled" if args.scaled else "lambda"
    for j, val in enumerate(shown):
        print(f"{label}_{j + 1} = {fmt(val)}")
    return 0


def _spectrum_for_modes(args, modes: list[int]) -> SteklovSpectrum:
    if args.spectrum:
        with _reading(f"--spectrum {args.spectrum}"):
            payload = json.loads(Path(args.spectrum).read_text())
            if not isinstance(payload, dict):
                raise ConfigError(f"--spectrum {args.spectrum} must hold a JSON object")
            if payload.get("schema") not in ("steklov/1", SCHEMA):  # curve, n, k read alike
                raise CurveError(f"unsupported spectrum schema {payload.get('schema')!r}")
            n, k = int(payload["n"]), int(payload["k"])
            _check_size(n, k)
            curve = curves.curve_from_spec(payload["curve"], n=n)
    elif args.n is None:
        raise CurveError("modes requires --n (or --spectrum to reuse a solve)")
    else:
        _check_size(args.n, args.k)
        n, k, curve = args.n, args.k, _build_curve(args, args.n)
    for j in modes:
        if not 1 <= j <= k:
            raise ConfigError(f"--modes index {j} out of range 1..{k}")
    return solve_spectrum(curve, n, k)


def _cmd_modes(args, outdir: Path) -> int:
    with _reading("--modes"):
        modes = [int(j) for j in args.modes.split(",")]
    if args.points:
        with _reading(f"--points {args.points}"), warnings.catch_warnings():
            # an empty table is a ConfigError below, not a numpy warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(args.points, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] == 0 or data.shape[1] < 2:
            raise ConfigError(f"--points file {args.points} needs x,y rows after its header")
    spec = _spectrum_for_modes(args, modes)
    if args.points:
        fields = eigenmode_field(spec, modes, data[:, 0] + 1j * data[:, 1])
    else:
        fields = raster_field(spec, modes, args.raster)
    write_field_csvs(outdir, modes, fields)
    return 0


def _cmd_converge(args, outdir: Path) -> int:
    with _reading("--n-list"):
        n_list = [int(v) for v in args.n_list.split(",")]
    _check_size(min(n_list), args.k)  # build_grid rejects an odd n, and n_ref > max(n_list)
    curve = _build_curve(args, args.n_ref)
    records = convergence_study(curve, n_list, args.k, args.n_ref)
    header = ["n"] + [f"rel_err_{j + 1}" for j in range(args.k)]
    rows = [[rec.n] + list(rec.rel_errors) for rec in records]
    write_csv(outdir / "convergence.csv", header, rows)
    return 0


def _kind_from_args(args) -> DomainKind:
    return DomainKind.UNBOUNDED_EXTERIOR if args.exterior else DomainKind.BOUNDED_INTERIOR


def _cmd_sweep(args, outdir: Path) -> int:
    with _reading("--r-values"):
        r_values = [float(v) for v in args.r_values.split(",")]
    _check_size(args.n, args.k)
    sweep = parameter_sweep(
        args.family,
        _kind_from_args(args),
        r_values,
        args.k,
        target_perimeter=args.perimeter,
        n_policy=args.n,
    )
    header = ["r", "a", "n", "perimeter", "area"] + [f"lambda_{j + 1}" for j in range(args.k)]
    rows = [
        [rec.r, rec.a, rec.n, rec.perimeter, rec.area] + list(rec.lambdas) for rec in sweep
    ]
    write_csv(outdir / "sweep.csv", header, rows)
    return 0


def _cmd_crossing(args, outdir: Path) -> int:
    _check_size(args.n, args.k + 1)
    result = find_crossing(
        args.family,
        _kind_from_args(args),
        args.k,
        (args.bracket[0], args.bracket[1]),
        target_perimeter=args.perimeter,
        r_tol=args.r_tol,
        n_policy=args.n,
    )
    write_json(
        outdir / "crossing.json",
        {
            "schema": SCHEMA,
            "family": args.family,
            "kind": _kind_from_args(args).value,
            "k": result.k,
            "r": result.r,
            "lambda_low": result.lambda_low,
            "lambda_high": result.lambda_high,
            "gap": result.gap,
            "n": result.n,
            "method": result.method,
            "solves": result.solves,
        },
    )
    print(
        f"r_star = {fmt(result.r)}  gap = {fmt(result.gap)}  "
        f"method = {result.method}  solves = {result.solves}"
    )
    return 0


def _cmd_verify(args, outdir: Path) -> int:
    kind = _kind_from_args(args)
    with _reading("--r-values"):
        r_values = [float(v) for v in args.r_values.split(",")]
    _check_size(args.n, max(args.k, 2))
    sweep = parameter_sweep(
        args.family, kind, r_values, max(args.k, 2), target_perimeter=args.perimeter, n_policy=args.n
    )
    report = check_inequalities(sweep, kind, tol=args.tol)
    header = ["r", "lambda_1", "lambda_2", "slack_sum", "slack_product", "slack_bound", "satisfied"]
    rows = []
    for rec in report:
        rows.append(
            [
                rec.r,
                rec.lambda_1,
                "" if rec.lambda_2 is None else rec.lambda_2,
                "" if rec.slack_sum is None else rec.slack_sum,
                "" if rec.slack_product is None else rec.slack_product,
                "" if rec.slack_bound is None else rec.slack_bound,
                int(rec.satisfied),
            ]
        )
    write_csv(outdir / "inequalities.csv", header, rows)
    ok = all(rec.satisfied for rec in report)
    print(f"inequalities satisfied: {ok}")
    return 0 if ok else 3


def _cmd_gaps(args, outdir: Path) -> int:
    _check_size(args.n, args.k)
    curve = _build_curve(args, args.n)
    spec = solve_spectrum(curve, args.n, args.k)
    records = asymptotic_gaps(spec)
    rows = [[rec.k, rec.gap_odd, rec.gap_even] for rec in records]
    write_csv(outdir / "gaps.csv", ["k", "gap_odd", "gap_even"], rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _raster_size(text: str) -> int:
    if int(text) < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Boundary-only Steklov eigenvalue solver for smooth planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a Steklov spectrum")
    _add_curve_options(p_solve)
    p_solve.add_argument("--n", type=int, required=True, help="even grid size")
    p_solve.add_argument("--k", type=int, default=10, help="number of nonzero eigenvalues")
    p_solve.add_argument("--scaled", action="store_true", help="print area-scaled eigenvalues")
    p_solve.add_argument("--traces", action="store_true", help="write boundary trace CSVs")
    p_solve.add_argument("--dump-operators", action="store_true", help="write K/B/C/E CSVs")
    p_solve.add_argument("--output", default=".", help="output directory")
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")
    p_solve.set_defaults(func=_cmd_solve)

    p_modes = sub.add_parser("modes", help="evaluate eigenfunction fields")
    _add_curve_options(p_modes)
    p_modes.add_argument("--spectrum", help="existing spectrum.json to reuse")
    p_modes.add_argument("--n", type=int, help="even grid size (fused run)")
    p_modes.add_argument("--k", type=int, default=10, help="mode count (fused run)")
    p_modes.add_argument("--modes", default="1", help="comma-separated 1-based mode indices")
    p_modes.add_argument("--raster", type=_raster_size, default=64, help="points per axis (>= 2)")
    p_modes.add_argument("--points", help="CSV of x,y evaluation points (overrides --raster)")
    p_modes.add_argument("--output", default=".", help="output directory")
    p_modes.set_defaults(func=_cmd_modes)

    p_conv = sub.add_parser("converge", help="eigenvalue convergence against a reference grid")
    _add_curve_options(p_conv)
    p_conv.add_argument("--n-list", required=True, help="comma-separated grid sizes")
    p_conv.add_argument("--n-ref", type=int, required=True, help="reference grid size")
    p_conv.add_argument("--k", type=int, default=10)
    p_conv.add_argument("--output", default=".")
    p_conv.set_defaults(func=_cmd_converge)

    p_sweep = sub.add_parser("sweep", help="family sweep at fixed perimeter")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--exterior", action="store_true")
    p_sweep.add_argument("--r-values", required=True, help="comma-separated family parameters")
    p_sweep.add_argument("--k", type=int, default=10)
    p_sweep.add_argument("--perimeter", type=float, default=2.0 * np.pi)
    p_sweep.add_argument("--n", type=int, default=None, help="fixed grid size (default: policy)")
    p_sweep.add_argument("--output", default=".")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cross = sub.add_parser("crossing", help="locate an eigenvalue crossing in r")
    p_cross.add_argument("--family", required=True)
    p_cross.add_argument("--exterior", action="store_true")
    p_cross.add_argument("--k", type=int, required=True, help="lower branch index")
    p_cross.add_argument("--bracket", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p_cross.add_argument("--perimeter", type=float, default=2.0 * np.pi)
    p_cross.add_argument("--r-tol", type=float, default=1e-8)
    p_cross.add_argument("--n", type=int, default=None)
    p_cross.add_argument("--output", default=".")
    p_cross.set_defaults(func=_cmd_crossing)

    p_verify = sub.add_parser("verify", help="verify spectral inequalities over a sweep")
    p_verify.add_argument("--family", required=True)
    p_verify.add_argument("--exterior", action="store_true")
    p_verify.add_argument("--r-values", required=True)
    p_verify.add_argument("--k", type=int, default=2)
    p_verify.add_argument("--perimeter", type=float, default=2.0 * np.pi)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--output", default=".")
    p_verify.set_defaults(func=_cmd_verify)

    p_gaps = sub.add_parser("gaps", help="asymptotic eigenvalue gaps")
    _add_curve_options(p_gaps)
    p_gaps.add_argument("--n", type=int, required=True)
    p_gaps.add_argument("--k", type=int, default=100)
    p_gaps.add_argument("--output", default=".")
    p_gaps.set_defaults(func=_cmd_gaps)

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"schema": SCHEMA, "error": {"type": kind, "message": str(exc)}}) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Path(args.output).mkdir(parents=True, exist_ok=True)
        return args.func(args, Path(args.output))
    except _SOLVER_ERRORS as exc:
        _emit_error(type(exc).__name__, exc)
        return 3
    except _CONFIG_ERRORS as exc:
        _emit_error(type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
