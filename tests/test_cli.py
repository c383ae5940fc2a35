import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import steklov
import steklov.cli
import steklov.curves
import steklov.operators
import steklov.spectrum
from steklov.cli import fmt, main, write_csv, write_field_csvs
from steklov.densela import SingularMatrixError
from steklov.extension import FieldSample, RasterField, eigenmode_field, raster_field

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    return main(args)


def test_solve_disk_json(tmp_path, capsys):
    code = run_cli(["solve", "--curve", "disk", "--n", "64", "--k", "10", "--output", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["schema"] == "steklov/2"
    assert payload["n"] == 64
    expected = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert np.allclose(payload["lambdas"], expected, atol=1e-12)
    assert "zero_modes" not in payload
    assert len(payload["trace_tail"]) == 10
    assert max(payload["trace_tail"]) <= 1e-12  # the disk's traces are trigonometric
    out = capsys.readouterr().out
    assert out.count("lambda_") == 10


def test_solve_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run_cli(
            ["solve", "--curve", "ellipse", "--params", "r=2", "--n", "96", "--k", "4",
             "--traces", "--output", str(d)]
        ) == 0
    assert (d1 / "spectrum.json").read_bytes() == (d2 / "spectrum.json").read_bytes()
    assert (d1 / "traces.csv").read_bytes() == (d2 / "traces.csv").read_bytes()


def test_solve_csv_format(tmp_path):
    assert run_cli(
        ["solve", "--curve", "disk", "--n", "32", "--k", "3", "--format", "csv",
         "--output", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "mode,lambda,lambda_scaled,residual"
    assert len(lines) == 4


def test_solve_exterior_and_scaled_conflict(tmp_path):
    code = run_cli(
        ["solve", "--curve", "kite", "--exterior", "--scaled", "--n", "64", "--k", "2",
         "--output", str(tmp_path)]
    )
    assert code == 2


def test_solve_with_config_file(tmp_path):
    cfg = tmp_path / "curve.json"
    cfg.write_text(json.dumps({"family": "ellipse", "params": {"r": 2.0},
                               "perimeter_normalize": 2 * np.pi}))
    assert run_cli(
        ["solve", "--config", str(cfg), "--n", "96", "--k", "2", "--output", str(tmp_path)]
    ) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["perimeter"] == pytest.approx(2 * np.pi, rel=1e-12)
    # the resolved scale is embedded so downstream runs rebuild the same curve
    assert payload["curve"]["params"]["a"] == pytest.approx(0.6485233924101425, rel=1e-9)


def test_unknown_family_is_config_error(tmp_path, capsys):
    code = run_cli(["solve", "--curve", "heptagon", "--n", "32", "--output", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CurveError"


def test_modes_roundtrip_matches_fused_run(tmp_path):
    solve_dir = tmp_path / "solve"
    fused_dir = tmp_path / "fused"
    reload_dir = tmp_path / "reload"
    base = ["--curve", "ellipse", "--params", "r=2", "--n", "96", "--k", "3"]
    assert run_cli(["solve", *base, "--output", str(solve_dir)]) == 0
    assert run_cli(["modes", *base, "--modes", "1,3", "--raster", "24",
                    "--output", str(fused_dir)]) == 0
    assert run_cli(["modes", "--spectrum", str(solve_dir / "spectrum.json"),
                    "--modes", "1,3", "--raster", "24", "--output", str(reload_dir)]) == 0
    for name in ("mode_1.csv", "mode_3.csv"):
        assert (fused_dir / name).read_bytes() == (reload_dir / name).read_bytes()


def test_kite_modes_roundtrip_matches_fused_run(tmp_path):
    # the kite's default base point is exact, so spectrum.json reloads the same curve
    base = ["--curve", "kite", "--n", "64", "--k", "2"]
    assert run_cli(["solve", *base, "--output", str(tmp_path / "solve")]) == 0
    assert run_cli(["modes", *base, "--modes", "2", "--output", str(tmp_path / "fused")]) == 0
    assert run_cli(["modes", "--spectrum", str(tmp_path / "solve" / "spectrum.json"),
                    "--modes", "2", "--output", str(tmp_path / "reload")]) == 0
    fused, reload = (tmp_path / d / "mode_2.csv" for d in ("fused", "reload"))
    assert fused.read_bytes() == reload.read_bytes()


def test_modes_reads_steklov_1_spectrum(tmp_path):
    # modes --spectrum reads only curve, n and k, which the old schema also holds
    solve_dir, fused_dir, reload_dir = tmp_path / "solve", tmp_path / "fused", tmp_path / "reload"
    base = ["--curve", "ellipse", "--params", "r=2", "--n", "96", "--k", "2"]
    assert run_cli(["solve", *base, "--output", str(solve_dir)]) == 0
    path = solve_dir / "spectrum.json"
    payload = json.loads(path.read_text())
    payload["schema"] = "steklov/1"
    payload["zero_modes"] = [-1e-15, 1e-15]
    del payload["trace_tail"]
    path.write_text(json.dumps(payload))
    assert run_cli(["modes", *base, "--modes", "2", "--raster", "12",
                    "--output", str(fused_dir)]) == 0
    assert run_cli(["modes", "--spectrum", str(path), "--modes", "2", "--raster", "12",
                    "--output", str(reload_dir)]) == 0
    assert (fused_dir / "mode_2.csv").read_bytes() == (reload_dir / "mode_2.csv").read_bytes()


def test_singular_pencil_is_solver_error(tmp_path, capsys, monkeypatch):
    factored = []

    def singular(a, *args, **kwargs):
        factored.append(np.shape(a))
        raise SingularMatrixError("zero pivot")

    monkeypatch.setattr(steklov.operators, "lu_factor", singular)
    code = run_cli(["solve", "--curve", "disk", "--n", "32", "--k", "2", "--output", str(tmp_path)])
    assert factored == [(2, 2)]  # the band's I - B̂: the disk's band is the constant
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "DiscretizationError"


def test_arpack_error_is_solver_error(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("the eigenvectors failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
    code = run_cli(["solve", "--curve", "disk", "--n", "32", "--k", "2", "--output", str(tmp_path)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "EigenSolveError"


def test_value_error_inside_the_solve_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("raised inside the eigensolver")

    monkeypatch.setattr(steklov.spectrum, "smallest_magnitude_eigs", broken)
    with pytest.raises(ValueError, match="inside the eigensolver"):
        run_cli(["solve", "--curve", "disk", "--n", "32", "--k", "2", "--output", str(tmp_path)])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--curve", "disk", "--n", "31", "--k", "2"],
        ["solve", "--curve", "disk", "--n", "32", "--k", "0"],
        ["solve", "--curve", "disk", "--n", "16", "--k", "7"],
        ["solve", "--curve", "ellipse", "--params", "r=two", "--n", "32", "--k", "2"],
        ["gaps", "--curve", "disk", "--n", "16", "--k", "20"],
        ["modes", "--curve", "disk", "--n", "32", "--k", "2", "--modes", "one"],
        ["converge", "--curve", "disk", "--n-list", "16,x", "--n-ref", "32", "--k", "2"],
        ["converge", "--curve", "disk", "--n-list", "8", "--n-ref", "32", "--k", "4"],
        ["sweep", "--family", "ellipse", "--r-values", "1,b", "--n", "32", "--k", "2"],
        ["sweep", "--family", "ellipse", "--r-values", "1,2", "--n", "32", "--k", "20"],
        ["verify", "--family", "ellipse", "--r-values", "1;2", "--n", "32"],
        ["crossing", "--family", "ellipse", "--k", "7", "--bracket", "1.8", "2.2", "--n", "16"],
    ],
    ids=["odd-n", "zero-k", "k-beyond-band", "params", "gaps-k", "modes", "n-list",
         "n-list-k", "r-values", "sweep-k", "verify-r-values", "crossing-k"],
)
def test_bad_user_input_is_config_error(tmp_path, capsys, argv):
    assert run_cli([*argv, "--output", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "flags",
    [["--curve", "ellipse", "--params", "R=2"], ["--curve", "kite", "--params", "r=0.5"],
     ["--curve", "ellipse", "--params", "r=nan"], ["--curve", "star2", "--params", "a=inf"],
     ["--curve", "kite", "--exterior", "--alpha", "5,5"]],
    ids=["ellipse-R=2", "kite-r=0.5", "ellipse-r=nan", "star2-a=inf", "kite-exterior-alpha"],
)
def test_bad_curve_parameter_flag_is_curve_error(tmp_path, capsys, flags):
    argv = ["solve", *flags, "--n", "32", "--k", "2"]
    assert run_cli([*argv, "--output", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "CurveError"


@pytest.mark.parametrize(
    "name,text,error",
    [("config", "{not json", "ConfigError"),
     ("config", '{"family": "ellipse", "params": {"r": "x"}}', "ConfigError"),
     ("config", '{"family": "g1", "alpha": [8.5]}', "CurveError"),
     ("config", '{"family": "ellipse", "params": [1]}', "CurveError"),
     ("config", '{"family": "kite", "params": {"r": 0.5}}', "CurveError"),
     ("config", '{"family": "ellipse", "params": {"R": 2}}', "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": null}}', "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": [2]}}', "CurveError"),
     ("config", '{"family": "ellipse", "params": {"a": true}}', "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": NaN}}', "CurveError"),
     ("config", '{"family": "star2", "params": {"a": Infinity}}', "CurveError"),
     ("config", '{"family": "star2", "params": {"r": -Infinity}}', "CurveError"),
     ("config", '{"family": "kite", "kind": "exterior", "alpha": [5, 5]}', "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": 2}, "perimeter_normalize": [6]}',
      "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": 2}, "perimeter_normalize": true}',
      "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": 2}, "perimeter_normalize": NaN}',
      "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": 2}, "perimeter_normalize": Infinity}',
      "CurveError"),
     ("config", '{"family": "ellipse", "params": {"r": 2}, "perimeter_normalize": -Infinity}',
      "CurveError"),
     ("config", '{"family": "g1", "alpha": [true, false]}', "CurveError"),
     ("spectrum", "{not json", "ConfigError"),
     ("spectrum", '{"schema": "steklov/2", "n": 32}', "ConfigError"),
     ("spectrum", "[]", "ConfigError"),
     ("spectrum", '{"schema": "steklov/2", "n": [32], "k": 2, "curve": {"family": "disk"}}',
      "ConfigError"),
     ("spectrum", '{"schema": "steklov/2", "n": 32, "k": 2, "curve": []}', "CurveError"),
     ("points", "x,y\n0.1,zero\n", "ConfigError")],
    ids=["config-json", "config-value", "config-alpha-one-number", "config-params-not-object",
         "config-kite-r", "config-ellipse-R", "config-value-null", "config-value-list",
         "config-value-bool", "config-value-nan", "config-value-inf", "config-value-minus-inf",
         "config-exterior-alpha", "config-perimeter-list", "config-perimeter-bool",
         "config-perimeter-nan", "config-perimeter-inf", "config-perimeter-minus-inf",
         "config-alpha-bool",
         "spectrum-json", "spectrum-missing-key", "spectrum-not-object", "spectrum-n-not-integer",
         "spectrum-curve-not-object", "points"],
)
def test_malformed_input_file_is_config_error(tmp_path, capsys, name, text, error):
    path = tmp_path / "input"
    path.write_text(text)
    argv = {
        "config": ["solve", "--config", str(path), "--n", "32", "--k", "2"],
        "spectrum": ["modes", "--spectrum", str(path)],
        "points": ["modes", "--curve", "disk", "--n", "32", "--k", "2", "--points", str(path)],
    }[name]
    assert run_cli([*argv, "--output", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error


def test_modes_field_csv_shape(tmp_path):
    assert run_cli(["modes", "--curve", "disk", "--n", "64", "--k", "2", "--modes", "1",
                    "--raster", "16", "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "mode_1.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,u,flag"
    assert len(lines) == 16 * 16 + 1
    assert any("nan" in line for line in lines[1:])  # masked exterior points


def test_modes_with_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.3,0.0\n0.0,0.25\n")
    assert run_cli(["modes", "--curve", "disk", "--n", "64", "--k", "2", "--modes", "1",
                    "--points", str(pts), "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "mode_1.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_modes_points_flags_use_the_spectrum_grid(tmp_path):
    # scattered points 0.05-4 local spacings inside the kite, where the margin of the
    # n = 512 grid and that of the 190 nodes the Cauchy sums run on flag differently
    rng = np.random.default_rng(512)
    curve = steklov.make_builtin("kite")
    t = rng.uniform(0.0, 2.0 * np.pi, 400)
    d = rng.uniform(0.05, 4.0, 400) * (2.0 * np.pi / 512)
    z = curve.eta(t) + d * 1j * curve.eta1(t)
    pts = tmp_path / "pts.csv"
    np.savetxt(pts, np.column_stack([z.real, z.imag]), fmt="%.17g", delimiter=",",
               header="x,y", comments="")
    assert run_cli(["modes", "--curve", "kite", "--n", "512", "--k", "4", "--modes", "1,4",
                    "--points", str(pts), "--output", str(tmp_path)]) == 0
    near = steklov.extension._classify(steklov.curves.build_grid(curve, 512), z, True)[1]
    coarse = steklov.extension._classify(steklov.curves.build_grid(curve, 190), z, True)[1]
    assert near.any() and not near.all() and not np.array_equal(near, coarse)
    for j in (1, 4):
        rows = np.loadtxt(tmp_path / f"mode_{j}.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 0] + 1j * rows[:, 1] - z)) <= 1e-14  # written as %.15g
        assert np.array_equal(rows[:, 3] == 1, near)


@pytest.mark.parametrize(
    "text",
    ["x\n0.1\n", "x,y\n", "x,y\n0.1,0.0\ninf,0\n", "x,y\nnan,0\n", "x,y\n0.1,-inf\n"],
    ids=["one-column", "header-only", "inf-x", "nan-x", "minus-inf-y"],
)
def test_modes_malformed_points_file_is_config_error(tmp_path, capsys, monkeypatch, text):
    def no_solve(*args):
        raise AssertionError("solved before the points file was checked")

    monkeypatch.setattr(steklov.cli, "solve_spectrum", no_solve)
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "modes"
    code = run_cli(["modes", "--curve", "disk", "--n", "32", "--k", "2", "--modes", "1",
                    "--points", str(pts), "--output", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"
    assert list(out.glob("mode_*.csv")) == []


def test_modes_outside_point_is_solver_error(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n2.0,0.0\n")
    code = run_cli(["modes", "--curve", "disk", "--n", "64", "--k", "2", "--modes", "1",
                    "--points", str(pts), "--output", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ExtensionError"


def _src_env():
    src = str(Path(steklov.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def test_modes_raster_makes_no_runtime_warning(tmp_path):
    # outside raster points have a zero Cauchy denominator; nothing may divide by it
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "steklov.cli", "modes",
            "--curve", "kite", "--alpha=-0.35,0.05", "--n", "512", "--k", "4", "--modes", "1",
            "--raster", "120", "--output", str(tmp_path)]
    proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("source", ["fused", "spectrum"])
def test_modes_bad_index_is_config_error(tmp_path, capsys, source):
    base = ["--curve", "disk", "--n", "64", "--k", "2"]
    if source == "spectrum":
        assert run_cli(["solve", *base, "--output", str(tmp_path)]) == 0
        base = ["--spectrum", str(tmp_path / "spectrum.json")]
    capsys.readouterr()
    out = tmp_path / "modes"
    assert run_cli(["modes", *base, "--modes", "1,3", "--output", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert list(out.glob("mode_*.csv")) == []


@pytest.mark.parametrize("size", ["0", "1", "-3"])
def test_modes_raster_below_two_rejected(tmp_path, capsys, size):
    with pytest.raises(SystemExit) as exc:
        run_cli(["modes", "--curve", "disk", "--n", "64", "--k", "2", "--raster", size,
                 "--output", str(tmp_path)])
    assert exc.value.code == 2
    assert "--raster: must be at least 2" in capsys.readouterr().err
    assert list(tmp_path.glob("mode_*.csv")) == []


@pytest.mark.parametrize(
    "flags",
    [["--n", "32"], ["--k", "2"], ["--curve", "kite"], ["--family", "kite"], ["--params", "r=2"],
     ["--exterior"], ["--alpha=0.1,0.0"], ["--perimeter", "6"], ["--config", "curve.json"]],
    ids=["n", "k", "curve", "family", "params", "exterior", "alpha", "perimeter", "config"],
)
def test_modes_spectrum_rejects_fused_run_flags(tmp_path, capsys, monkeypatch, flags):
    assert run_cli(["solve", "--curve", "disk", "--n", "32", "--k", "2",
                    "--output", str(tmp_path)]) == 0
    capsys.readouterr()

    def no_solve(*args):
        raise AssertionError("solved although --spectrum conflicts with a fused-run flag")

    monkeypatch.setattr(steklov.cli, "solve_spectrum", no_solve)
    out = tmp_path / "modes"
    code = run_cli(["modes", "--spectrum", str(tmp_path / "spectrum.json"), *flags,
                    "--output", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert flags[0].split("=")[0] in err["message"]
    assert list(out.glob("mode_*.csv")) == []


def test_modes_fused_run_defaults_to_ten_modes(tmp_path, capsys):
    disk = ["modes", "--curve", "disk", "--n", "32"]
    assert run_cli([*disk, "--modes", "10", "--raster", "8", "--output", str(tmp_path)]) == 0
    assert run_cli([*disk, "--modes", "11", "--output", str(tmp_path)]) == 2
    assert "out of range 1..10" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_write_csv_matches_per_cell_rendering(tmp_path):
    def per_cell(rows):
        return "".join(
            ",".join(fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row) + "\n"
            for row in rows
        )

    mixed = [
        [1, float("nan"), "", -0.0, 1e-300],
        [np.int64(7), np.float64(-2.5e17), np.float32(0.1), 3, True],
        [2, 0.1, 1.0 / 3.0, "", np.nan],
        [np.int32(-4), np.float64(np.inf), -1e-5, 12345678901234567, 0.0],
    ]
    operator = np.asfortranarray(np.random.default_rng(3).normal(size=(5, 5)) * 1e-7)
    operator[0, 0], operator[1, 1], operator[2, 2] = np.nan, -0.0, 1e300
    for rows, as_rows in ((mixed, mixed), (operator, operator), ([], [])):
        write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], rows)
        assert (tmp_path / "t.csv").read_text() == "a,b,c,d,e\n" + per_cell(as_rows)


def test_field_csvs_match_write_csv(tmp_path):
    awkward = [np.nan, -0.0, 1e-300, 1e16, 0.1 + 0.2, -2.5, 0.0, 7.0]
    x, y = np.array([-1.5, -0.0, 0.1 + 0.2, 1e16]), np.array([np.nan, -1e-300, 2.5])
    u = np.array(awkward + awkward[::-2]).reshape(3, 4)
    flags = np.arange(12).reshape(3, 4) % 3 == 0
    one = np.array([-0.25 + 1e-300j])
    cases = {
        "raster": ([RasterField(x=x, y=y, u=u, flags=flags),
                    RasterField(x=x, y=y, u=-u[::-1], flags=~flags)],
                   np.tile(x, 3), np.repeat(y, 4)),
        "points": ([FieldSample(points=one, values=one, u=np.array([v]), flags=np.array([f]))
                    for v, f in ((0.1 + 0.2, True), (np.nan, False))],
                   one.real, one.imag),
    }
    for name, (fields, xs, ys) in cases.items():
        out = tmp_path / name
        out.mkdir()
        write_field_csvs(out, [2, 5], fields)
        for j, field in zip([2, 5], fields):
            table = np.column_stack((xs, ys, field.u.ravel(), field.flags.ravel()))
            write_csv(tmp_path / "expected.csv", ["x", "y", "u", "flag"], table)
            assert (out / f"mode_{j}.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def _expected_csv(tmp_path, xs, ys, field) -> bytes:
    table = np.column_stack((xs, ys, field.u.ravel(), field.flags.ravel()))
    write_csv(tmp_path / "expected.csv", ["x", "y", "u", "flag"], table)
    return (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("kind", ["bounded", "exterior"])
def test_field_csvs_of_real_fields_match_write_csv(tmp_path, kind):
    curve = steklov.curves.make_builtin("kite", kind=steklov.curves.DomainKind(kind))
    spec = steklov.spectrum.solve_spectrum(curve, 128, 4)
    modes = [1, 2, 3, 4]
    rasters = raster_field(spec, modes, 24)
    write_field_csvs(tmp_path, modes, rasters)
    xs, ys = np.tile(rasters[0].x, 24), np.repeat(rasters[0].y, 24)
    assert np.any(rasters[0].flags) and np.any(np.isnan(rasters[0].u))
    for j, ras in zip(modes, rasters):
        assert (tmp_path / f"mode_{j}.csv").read_bytes() == _expected_csv(tmp_path, xs, ys, ras)
    # the raster's kept and flagged cells lie inside, and some are near the boundary
    kept = ~np.isnan(rasters[0].u.ravel()) | rasters[0].flags.ravel()
    points = (xs + 1j * ys)[kept]
    samples = eigenmode_field(spec, [2, 3], points)
    assert np.any(samples[0].flags) and not np.all(samples[0].flags)
    write_field_csvs(tmp_path, [2, 3], samples)
    for j, sample in zip([2, 3], samples):
        expected = _expected_csv(tmp_path, points.real, points.imag, sample)
        assert (tmp_path / f"mode_{j}.csv").read_bytes() == expected


def test_field_csvs_reject_fields_with_other_coordinates(tmp_path):
    x, y = np.array([0.0, 1.0, np.nan]), np.array([-1.0, 2.0])
    u, flags = np.zeros((2, 3)), np.zeros((2, 3), dtype=bool)
    pts = np.array([0.1 + 0.2j, np.nan])

    def raster(x, y):
        return RasterField(x=x, y=y, u=u, flags=flags)

    def sample(points):
        return FieldSample(points=points, values=points, u=points.real, flags=flags[0, :2])

    write_field_csvs(tmp_path, [1, 2], [raster(x, y), raster(x.copy(), y.copy())])  # nan == nan
    write_field_csvs(tmp_path, [1, 2], [sample(pts), sample(pts.copy())])
    cases = {
        "x": [raster(x, y), raster(x + 1.0, y)],
        "y": [raster(x, y), raster(x, y[::-1])],
        "points": [sample(pts), sample(pts + 1j)],
        "raster-then-sample": [raster(x, y), sample(pts)],
        "sample-then-raster": [sample(pts), raster(x, y)],
    }
    for name, fields in cases.items():
        out = tmp_path / name
        out.mkdir()
        with pytest.raises(ValueError, match="coordinates"):
            write_field_csvs(out, [1, 2], fields)
        assert list(out.glob("mode_*.csv")) == [], name


def test_scripts_write_the_cli_artifacts(tmp_path):
    # both experiment scripts write through the CLI's writers, so their --quick
    # artifacts match the CLI's byte for byte
    for script in ("run_benchmarks.py", "run_family_studies.py"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--quick", "--output",
             str(tmp_path / "scripts")],
            env=_src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    assert run_cli(["crossing", "--family", "ellipse", "--k", "2", "--bracket", "1.5", "2.5",
                    "--n", "256", "--output", str(tmp_path / "crossing")]) == 0
    assert run_cli(["solve", "--curve", "g1", "--n", "256", "--k", "10", "--format", "csv",
                    "--output", str(tmp_path / "solve")]) == 0
    for script_file, cli_file in (("crossing_k2.json", "crossing/crossing.json"),
                                  ("spectrum_g1.csv", "solve/spectrum.csv")):
        expected = (tmp_path / cli_file).read_bytes()
        assert (tmp_path / "scripts" / script_file).read_bytes() == expected, script_file


def test_converge_csv(tmp_path):
    assert run_cli(["converge", "--curve", "disk", "--n-list", "24,32,48", "--n-ref", "96",
                    "--k", "4", "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,rel_err_1,rel_err_2,rel_err_3,rel_err_4"
    assert len(lines) == 4


def test_sweep_csv(tmp_path):
    assert run_cli(["sweep", "--family", "ellipse", "--r-values", "1,2", "--k", "3",
                    "--n", "96", "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("r,a,n,perimeter,area,lambda_1")
    assert len(lines) == 3


def test_crossing_json(tmp_path, capsys):
    assert run_cli(["crossing", "--family", "ellipse", "--k", "2", "--bracket", "1.8", "2.2",
                    "--r-tol", "1e-4", "--n", "96", "--output", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "crossing.json").read_text())
    assert payload["k"] == 2
    assert abs(payload["r"] - 1.98387) < 1e-3
    assert "method" not in payload
    assert 2 <= payload["solves"] <= 10
    out = capsys.readouterr().out
    assert f"gap = {fmt(payload['gap'])}  solves = {payload['solves']}" in out


def test_crossing_zero_r_tol_is_config_error(tmp_path, capsys):
    code = run_cli(["crossing", "--family", "ellipse", "--k", "2", "--bracket", "1.8", "2.2",
                    "--r-tol", "0", "--n", "32", "--output", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "StudyError"


def test_verify_csv(tmp_path):
    assert run_cli(["verify", "--family", "ellipse", "--r-values", "1,2", "--n", "96",
                    "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "inequalities.csv").read_text().strip().splitlines()
    assert lines[0] == "r,lambda_1,lambda_2,slack_sum,slack_product,slack_bound,satisfied"
    assert all(line.endswith(",1") for line in lines[1:])


def test_gaps_csv(tmp_path):
    assert run_cli(["gaps", "--curve", "disk", "--n", "96", "--k", "20",
                    "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "gaps.csv").read_text().strip().splitlines()
    assert lines[0] == "k,gap_odd,gap_even"
    assert len(lines) == 11


def test_dump_operators(tmp_path):
    assert run_cli(["solve", "--curve", "disk", "--n", "16", "--k", "2", "--dump-operators",
                    "--output", str(tmp_path)]) == 0
    for name in ("K", "B", "C", "E"):
        lines = (tmp_path / f"operator_{name}.csv").read_text().strip().splitlines()
        assert len(lines) == 17


def test_solve_scaled_benchmark_value(tmp_path, capsys):
    # g1 is fully resolved by n = 512; the leading area-scaled
    # eigenvalue is a stable regression target
    assert run_cli(["solve", "--curve", "g1", "--n", "512", "--k", "2", "--scaled",
                    "--output", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["lambdas_scaled"][0] == pytest.approx(1.61465185265077, abs=1e-9)
    out = capsys.readouterr().out
    assert out.startswith("lambda_scaled_1 = 1.61465185265")


def test_alpha_flag(tmp_path):
    assert run_cli(["solve", "--curve", "g1", "--alpha", "8.5,0", "--n", "256", "--k", "2",
                    "--output", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["curve"]["alpha"] == [8.5, 0.0]
