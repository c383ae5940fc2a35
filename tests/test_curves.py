import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from steklov import (
    BoundaryCurve,
    CurveError,
    DomainKind,
    area,
    build_grid,
    builtin_families,
    curve_from_spec,
    make_builtin,
    perimeter,
    scale_to_perimeter,
)
from steklov.curves import curve_to_spec, nodes, with_alpha

# Circumference of the ellipse with semiaxes 1 and 2, frozen from the
# adaptive-quadrature oracle below (quad agrees to 2 ulp).
ELLIPSE_R2_PERIMETER = 9.688448220547675
# Enclosed area of the g1 boundary: pi * sum(k |c_k|^2) for the
# Fourier coefficients c_1 = 5, c_6 = 0.5, i.e. 26.5 pi.
G1_AREA = 26.5 * np.pi

ALL_FAMILY_CASES = [
    ("disk", {}),
    ("ellipse", {"r": 2.0}),
    ("star2", {"r": 0.5}),
    ("kite", {}),
    ("g1", {}),
    ("g2", {}),
]


def test_disk_is_unit_circle():
    c = make_builtin("disk")
    t = nodes(16)
    assert np.allclose(c.eta(t), np.exp(1j * t), atol=1e-15)
    assert c.alpha == 0.0


def test_g1_parametrization_and_alpha():
    c = make_builtin("g1")
    t = nodes(32)
    assert np.allclose(c.eta(t), 8 + 5 * np.exp(1j * t) + 0.5 * np.exp(6j * t), atol=1e-14)
    assert c.alpha == 8.0


@pytest.mark.parametrize(
    "family,params,closed_form",
    [("ellipse", {"r": 3.0, "a": 0.7}, lambda t: 0.7 * (np.cos(t) + 3j * np.sin(t))),
     ("star2", {"r": 0.8, "a": 2.0}, lambda t: 2.0 * (1 + 0.8 * np.cos(2 * t)) * np.exp(1j * t))],
)
def test_coefficient_table_matches_closed_forms(family, params, closed_form):
    t = nodes(32)
    assert np.max(np.abs(make_builtin(family, params).eta(t) - closed_form(t))) <= 1e-14


def test_kite_exterior_flips_the_odd_part():
    c = make_builtin("kite", kind=DomainKind.UNBOUNDED_EXTERIOR)
    t = nodes(32)
    expected = (
        1.5 * np.cos(t) + 0.7 * np.cos(2 * t) - 0.4
        + 1j * (-1.5 * np.sin(t) - 0.3 * np.cos(t))
    )
    assert np.allclose(c.eta(t), expected, atol=1e-14)
    assert c.alpha is None


@pytest.mark.parametrize("family,params", ALL_FAMILY_CASES)
@pytest.mark.parametrize("kind", list(DomainKind))
def test_builtin_periodicity(family, params, kind):
    c = make_builtin(family, params, kind=kind)
    ends = c.eta(np.array([0.0, 2 * np.pi]))
    assert abs(ends[0] - ends[1]) < 1e-12


@pytest.mark.parametrize("family,params", ALL_FAMILY_CASES)
@pytest.mark.parametrize("kind", list(DomainKind))
def test_orientation_sign(family, params, kind):
    c = make_builtin(family, params, kind=kind)
    signed = c.signed_area()
    if kind is DomainKind.BOUNDED_INTERIOR:
        assert signed > 0
    else:
        assert signed < 0


@pytest.mark.parametrize("family,params", ALL_FAMILY_CASES)
@pytest.mark.parametrize("kind", list(DomainKind))
def test_derivatives_match_finite_differences(family, params, kind):
    c = make_builtin(family, params, kind=kind)
    t = np.linspace(0.1, 2 * np.pi, 17)
    h = 1e-5
    d1 = (c.eta(t + h) - c.eta(t - h)) / (2 * h)
    d2 = (c.eta1(t + h) - c.eta1(t - h)) / (2 * h)
    assert np.max(np.abs(d1 - c.eta1(t)) / np.abs(c.eta1(t))) < 1e-8
    assert np.max(np.abs(d2 - c.eta2(t))) < 1e-6 * np.max(np.abs(c.eta2(t)))


@pytest.mark.parametrize("family,params", ALL_FAMILY_CASES)
@pytest.mark.parametrize("kind", list(DomainKind))
def test_r_derivative_matches_finite_differences(family, params, kind):
    c = make_builtin(family, params, kind=kind)
    if "r" not in params:
        assert c.eta_r is None
        return
    t = np.linspace(0.1, 2 * np.pi, 17)
    r, a, h = params["r"], 1.7, 1e-5
    c = make_builtin(family, {"r": r, "a": a}, kind=kind)
    up = make_builtin(family, {"r": r + h, "a": a}, kind=kind).eta(t)
    down = make_builtin(family, {"r": r - h, "a": a}, kind=kind).eta(t)
    assert np.max(np.abs((up - down) / (2 * h) - c.eta_r(t))) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9),
    r=st.floats(min_value=1.0, max_value=8.0),
)
def test_ellipse_derivative_property(t, r):
    c = make_builtin("ellipse", {"r": r})
    h = 1e-5
    t_arr = np.array([t])
    fd = (c.eta(t_arr + h) - c.eta(t_arr - h)) / (2 * h)
    assert abs(fd[0] - c.eta1(t_arr)[0]) < 1e-8 * max(1.0, abs(c.eta1(t_arr)[0]))


def test_unknown_family_rejected():
    with pytest.raises(CurveError):
        make_builtin("pentagon")


def test_bad_parameters_rejected():
    with pytest.raises(CurveError):
        make_builtin("star2", {"r": 1.0})  # region pinches off
    with pytest.raises(CurveError):
        make_builtin("ellipse", {"r": 0.5})
    with pytest.raises(CurveError):
        make_builtin("ellipse", {"r": 2.0, "a": -1.0})
    with pytest.raises(CurveError):
        make_builtin("kite", {"a": 2.0})  # no scale parameter
    with pytest.raises(CurveError):
        make_builtin("kite", {"r": 0.5})  # no r either
    with pytest.raises(CurveError):
        make_builtin("ellipse", {"R": 2.0})  # not a name the ellipse takes
    for value in (None, [2.0], True, np.nan, np.inf, -np.inf):
        for name in ("r", "a"):
            with pytest.raises(CurveError):
                make_builtin("ellipse", {name: value})
            with pytest.raises(CurveError):
                scale_to_perimeter("star2", {name: value})


def test_alpha_must_be_interior():
    with pytest.raises(CurveError):
        make_builtin("disk", alpha=2.0)
    with pytest.raises(CurveError):
        make_builtin("disk", alpha=1.0)  # on the curve, at the node t = 0
    with pytest.raises(CurveError):
        with_alpha(make_builtin("g1"), 8 + 6j)


@pytest.mark.parametrize("r", [36.0, 50.0, 1000.0, 1e4])
def test_thin_ellipses_construct(r):
    for kind in DomainKind:
        curve = make_builtin("ellipse", {"r": r}, kind=kind)
        assert curve.kind is kind
    with pytest.raises(CurveError):
        make_builtin("ellipse", {"r": r}, alpha=2.0)


def test_alpha_override():
    c = make_builtin("g1", alpha=8.5)
    assert c.alpha == 8.5


# ---------------------------------------------------------------------------
# Perimeter / area
# ---------------------------------------------------------------------------

def test_unit_circle_perimeter():
    assert perimeter(make_builtin("disk"), 64) == pytest.approx(2 * np.pi, abs=1e-13)


def test_unit_ellipse_r1_perimeter():
    c = make_builtin("ellipse", {"r": 1.0})
    assert perimeter(c, 64) == pytest.approx(2 * np.pi, abs=1e-13)


def test_ellipse_r2_perimeter_vs_quadrature_oracle():
    oracle, _ = quad(lambda t: np.sqrt(np.cos(t) ** 2 + 4 * np.sin(t) ** 2), 0, 2 * np.pi, limit=200)
    assert oracle == pytest.approx(ELLIPSE_R2_PERIMETER, abs=1e-12)
    c = make_builtin("ellipse", {"r": 2.0})
    assert perimeter(c, 256) == pytest.approx(ELLIPSE_R2_PERIMETER, rel=1e-12)


def test_perimeter_requires_min_grid():
    with pytest.raises(CurveError):
        perimeter(make_builtin("disk"), 8)


def test_unit_circle_area():
    assert area(make_builtin("disk"), 64) == pytest.approx(np.pi, abs=1e-13)


def test_ellipse_r3_area():
    assert area(make_builtin("ellipse", {"r": 3.0}), 128) == pytest.approx(3 * np.pi, rel=1e-13)


def test_g1_area_vs_fourier_oracle():
    assert area(make_builtin("g1"), 256) == pytest.approx(G1_AREA, rel=1e-13)


def test_exterior_area_is_bounded_complement():
    c = make_builtin("ellipse", {"r": 3.0}, kind=DomainKind.UNBOUNDED_EXTERIOR)
    assert area(c, 128) == pytest.approx(3 * np.pi, rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(min_value=0.1, max_value=5.0))
def test_ellipse_perimeter_and_area_scaling(a):
    base_p = perimeter(make_builtin("ellipse", {"r": 2.0, "a": 1.0}), 128)
    base_a = area(make_builtin("ellipse", {"r": 2.0, "a": 1.0}), 128)
    scaled = make_builtin("ellipse", {"r": 2.0, "a": a})
    assert perimeter(scaled, 128) == pytest.approx(a * base_p, rel=1e-12)
    assert area(scaled, 128) == pytest.approx(a * a * base_a, rel=1e-12)


# ---------------------------------------------------------------------------
# Perimeter normalization
# ---------------------------------------------------------------------------

def test_scale_to_perimeter_circle_is_identity():
    c = scale_to_perimeter("ellipse", {"r": 1.0}, 2 * np.pi, 64)
    assert c.params["a"] == pytest.approx(1.0, abs=1e-13)


def test_scale_to_perimeter_star_r0_is_circle():
    c = scale_to_perimeter("star2", {"r": 0.0}, 2 * np.pi, 64)
    assert c.params["a"] == pytest.approx(1.0, abs=1e-13)


def test_scale_to_perimeter_ellipse_r2():
    c = scale_to_perimeter("ellipse", {"r": 2.0}, 2 * np.pi, 256)
    assert c.params["a"] == pytest.approx(2 * np.pi / ELLIPSE_R2_PERIMETER, rel=1e-9)
    assert perimeter(c, 256) == pytest.approx(2 * np.pi, abs=1e-10 * 2 * np.pi)


def test_scale_to_perimeter_needs_scale_parameter():
    with pytest.raises(CurveError):
        scale_to_perimeter("kite", {}, 2 * np.pi, 64)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_grid_samples_and_weights(g1_curve):
    g = build_grid(g1_curve, 32)
    assert g.n == 32
    assert np.allclose(g.t, nodes(32))
    assert np.allclose(g.eta, g1_curve.eta(g.t))
    assert np.all(g.speed > 0)
    assert np.allclose(g.rho * g.speed, 1.0)


def test_grid_rejects_odd_or_tiny_n(disk):
    with pytest.raises(CurveError):
        build_grid(disk, 31)
    with pytest.raises(CurveError):
        build_grid(disk, 2)


def test_grid_rejects_vanishing_derivative():
    bad = BoundaryCurve.__new__(BoundaryCurve)  # bypass construction checks
    object.__setattr__(bad, "name", "pinched")
    object.__setattr__(bad, "eta", lambda t: np.exp(1j * np.asarray(t)))
    object.__setattr__(bad, "eta1", lambda t: 1j * np.exp(1j * np.asarray(t)) * np.sin(np.asarray(t)))
    object.__setattr__(bad, "eta2", lambda t: np.zeros_like(np.asarray(t), dtype=complex))
    object.__setattr__(bad, "kind", DomainKind.UNBOUNDED_EXTERIOR)
    object.__setattr__(bad, "alpha", None)
    object.__setattr__(bad, "params", {})
    with pytest.raises(CurveError):
        build_grid(bad, 16)


# ---------------------------------------------------------------------------
# Config specs
# ---------------------------------------------------------------------------

def test_curve_from_spec_roundtrip():
    spec = {"family": "ellipse", "params": {"r": 2.0}, "kind": "exterior"}
    c = curve_from_spec(spec)
    assert c.kind is DomainKind.UNBOUNDED_EXTERIOR
    back = curve_to_spec(c)
    assert back["family"] == "ellipse"
    assert back["kind"] == "exterior"
    assert back["params"]["r"] == 2.0


def test_curve_from_spec_with_normalization():
    spec = {"family": "ellipse", "params": {"r": 2.0}, "perimeter_normalize": 2 * np.pi}
    c = curve_from_spec(spec, n=256)
    assert perimeter(c, 256) == pytest.approx(2 * np.pi, rel=1e-12)


def test_curve_from_spec_alpha():
    c = curve_from_spec({"family": "g1", "alpha": [8.5, 0.0]})
    assert c.alpha == 8.5


def test_curve_from_spec_errors():
    with pytest.raises(CurveError):
        curve_from_spec({"params": {}})
    with pytest.raises(CurveError):
        curve_from_spec({"family": "disk", "kind": "interior-ish"})


def test_default_alpha_survives_json_rendering():
    # the default base points are exact, so a 15-digit spec reloads the same curve
    curves = [make_builtin(family) for family in builtin_families()]
    curves += [scale_to_perimeter("ellipse", {"r": 2.0}), scale_to_perimeter("star2", {"r": 0.5})]
    for c in curves:
        rendered = [float(f"{v:.15g}") for v in curve_to_spec(c)["alpha"]]
        assert complex(*rendered) == c.alpha, c.name
    assert make_builtin("kite").alpha == -0.4
    assert make_builtin("g2").alpha == 0.0


@pytest.mark.parametrize("family", builtin_families())
def test_default_alpha_is_the_mean_of_eta(family):
    c = make_builtin(family)
    eta = c.eta(nodes(64))
    assert abs(np.mean(eta) - c.alpha) <= 1e-14 * np.max(np.abs(eta))


def test_builtin_family_list():
    assert set(builtin_families()) == {"disk", "ellipse", "star2", "kite", "g1", "g2"}
