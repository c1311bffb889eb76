"""Configuration parsing, validation and round-trip tests."""

import numpy as np
import pytest

from escher.config import (
    RunConfig,
    emit_config,
    parse_config,
    sphere_eoc_initial,
    torus_initial,
)
from escher.errors import ParseError, ValidationError

MINIMAL_SPHERE = """
surface.kind = oscillating_sphere
mesh.subdivisions = 2
eps = 0.05
tau = 1e-4
T = 0.1
scheme = fully_implicit
initial = sphere_eoc
"""

TORUS_EXPERIMENT = """
# constant-area torus dynamics
surface.kind = constant_area_torus
mesh.n_major = 64
mesh.n_minor = 47
eps = 0.05
tau = 5e-5
T = 1.0
scheme = fully_implicit
initial = torus
"""


def test_minimal_config_with_defaults():
    cfg = parse_config(MINIMAL_SPHERE)
    assert cfg.surface_kind == "oscillating_sphere"
    assert cfg.subdivisions == 2
    assert cfg.newton_tol == 1e-11
    assert cfg.newton_max_iter == 25
    assert cfg.theta == 1.0


def test_torus_experiment_config_accepted():
    cfg = parse_config(TORUS_EXPERIMENT)
    assert cfg.n_major == 64 and cfg.n_minor == 47
    mesh = cfg.build_mesh()
    assert mesh.triangle_count == 6016
    # the quoted run satisfies the fully implicit uniqueness condition
    bound = cfg.scheme_config().uniqueness_bound(cfg.build_potential())
    assert cfg.tau < bound == pytest.approx(4 * 0.05**3)


def test_negative_tau_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL_SPHERE.replace("tau = 1e-4", "tau = -1"))
    assert err.value.field == "tau"


def test_tau_must_divide_t_end():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL_SPHERE.replace("tau = 1e-4", "tau = 3e-4"))
    assert err.value.field == "tau"


def test_tau_larger_than_t_end():
    with pytest.raises(ValidationError):
        parse_config(MINIMAL_SPHERE.replace("tau = 1e-4", "tau = 0.2"))


def test_unknown_key_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL_SPHERE + "colour = blue\n")
    assert err.value.line == MINIMAL_SPHERE.count("\n") + 1


@pytest.mark.parametrize("key", ["linear_solver", "seed", "potential"])
def test_removed_keys_are_unknown(key):
    with pytest.raises(ParseError, match=f"unknown key '{key}'"):
        parse_config(MINIMAL_SPHERE + f"{key} = 0\n")


@pytest.mark.parametrize("key, value", [
    ("T", "inf"), ("T", "nan"), ("newton.tol", "nan"), ("newton.tol", "inf"),
    ("theta", "nan"), ("theta", "inf"), ("eps", "nan"), ("tau", "inf"),
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL_SPHERE + f"{key} = {value}\n")
    assert err.value.field == key


@pytest.mark.parametrize("key", ["mesh.n_major", "mesh.n_minor"])
def test_torus_grid_names_the_short_axis(key):
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL_SPHERE + f"{key} = 2\n")
    assert err.value.field == key


def test_missing_equals_sign():
    with pytest.raises(ParseError):
        parse_config("surface.kind oscillating_sphere\n")


def test_bad_number():
    with pytest.raises(ParseError):
        parse_config(MINIMAL_SPHERE.replace("eps = 0.05", "eps = tiny"))


def test_unknown_scheme():
    with pytest.raises(ValidationError):
        parse_config(MINIMAL_SPHERE.replace("fully_implicit", "leapfrog"))


def test_unknown_surface():
    with pytest.raises(ValidationError):
        parse_config(MINIMAL_SPHERE.replace("oscillating_sphere", "moebius"))


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\n" + MINIMAL_SPHERE + "\n  # trailing\n")
    assert cfg.eps == 0.05


def test_round_trip_is_identity():
    cfg = parse_config(TORUS_EXPERIMENT)
    assert parse_config(emit_config(cfg)) == cfg


def test_round_trip_with_surface_params():
    text = MINIMAL_SPHERE.replace("oscillating_sphere", "static_sphere")
    text += "surface.radius = 1.25\n"
    cfg = parse_config(text)
    assert cfg.surface_params == {"radius": 1.25}
    assert cfg.build_surface().radius == 1.25
    assert parse_config(emit_config(cfg)) == cfg


def test_builtin_initial_data():
    node = np.array([[1.0, 0.0, 0.0]])
    assert sphere_eoc_initial(node)[0] == pytest.approx(0.0)
    assert torus_initial(node)[0] == pytest.approx(0.0)
    pts = np.array([[0.2, 0.4, 0.1]])
    assert sphere_eoc_initial(pts)[0] == pytest.approx(
        0.5 * 0.2 * np.sin(np.pi * 0.4)
    )
    assert torus_initial(pts)[0] == pytest.approx(0.0, abs=1e-15)


def test_constant_initial_through_config():
    cfg = parse_config(MINIMAL_SPHERE.replace("initial = sphere_eoc",
                                              "initial = constant")
                       + "initial.value = 0.25\n")
    u0 = cfg.initial_function()
    assert np.all(u0(np.random.default_rng(0).normal(size=(4, 3))) == 0.25)


def test_default_dataclass_is_valid():
    from escher.config import validate_config

    validate_config(RunConfig())
