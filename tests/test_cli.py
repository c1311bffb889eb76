"""End-to-end tests of the command-line interface."""

import contextlib
import io
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escher import cli, config, meshing, studies
from escher.cli import main
from escher.solver import SCHEMES
from escher.surfaces import surface_kinds
from vtk_reader import read_snapshot

SMOKE_RUN = """
surface.kind = static_sphere
mesh.subdivisions = 1
eps = 0.1
tau = 1e-3
T = 1e-2
scheme = imex
initial = sphere_eoc
output.dir = {out}
"""

TORUS_RUN = """
surface.kind = constant_area_torus
mesh.n_major = 24
mesh.n_minor = 8
eps = 0.05
tau = 5e-3
T = 0.1
scheme = imex
initial = torus
output.dir = {out}
"""

# an IMEX study, reference included: its tau = 0.0015625 is above the fully
# implicit uniqueness bound 4 eps^3 / theta^2 = 0.0005, where IMEX still has
# one solution per step
EOC_SMOKE = """
surface.kind = oscillating_sphere
mesh.subdivisions = 1
eps = 0.05
tau = 2.5e-2
T = 0.1
scheme = imex
initial = sphere_eoc
newton.max_iter = 60
output.dir = {out}
"""


# a typed solver failure ends the run within this many seconds, the bound of
# test_solver.TestFailingDescent; each run below takes 0.05 s or less
FAILURE_WALL_S = 2.0


def main_within_wall(argv):
    """``main(argv)``, asserted to return within FAILURE_WALL_S seconds."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < FAILURE_WALL_S
    return code


def write_config(tmp_path, text, **extra):
    out = tmp_path / "out"
    body = text.format(out=out)
    for key, value in extra.items():
        body += f"{key} = {value}\n"
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path, out


def test_run_smoke(tmp_path, capsys):
    cfg, out = write_config(tmp_path, SMOKE_RUN)
    assert main(["run", str(cfg)]) == 0
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 11  # header + N_T + 1 rows


def test_run_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg1, out1 = write_config(tmp_path / "a", SMOKE_RUN)
    cfg2, out2 = write_config(tmp_path / "b", SMOKE_RUN)
    assert main(["run", str(cfg1)]) == 0
    assert main(["run", str(cfg2)]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == \
        (out2 / "diagnostics.csv").read_bytes()


def test_run_writes_snapshots(tmp_path):
    cfg, out = write_config(tmp_path, SMOKE_RUN, **{"output.snapshot_every": 5})
    assert main(["run", str(cfg)]) == 0
    files = sorted(p.name for p in out.glob("*.vtk"))
    assert files == ["snapshot_000000.vtk", "snapshot_000005.vtk",
                     "snapshot_000010.vtk"]
    points, tris, arrays = read_snapshot(out / "snapshot_000010.vtk")
    assert set(arrays) == {"u", "w"}
    assert len(points) == 42 and len(tris) == 80


def test_torus_area_column_constant(tmp_path):
    cfg, out = write_config(tmp_path, TORUS_RUN)
    assert main(["run", str(cfg)]) == 0
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
    areas = np.array([float(r.split(",")[4]) for r in rows])
    assert len(areas) == 21
    assert np.abs(areas - areas[0]).max() <= 0.01 * areas[0]


def test_periodic_torus_energy_not_monotone(tmp_path):
    text = TORUS_RUN.replace("constant_area_torus", "periodic_torus")
    cfg, out = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 0
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
    energies = np.array([float(r.split(",")[2]) for r in rows])
    assert np.any(np.diff(energies) > 0)


def test_mesh_info(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, SMOKE_RUN)
    assert main(["mesh-info", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "nodes:     42" in printed
    assert "triangles: 80" in printed


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau = -1\n")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("command", ["run", "mesh-info"])
def test_non_finite_surface_value_exit_code(tmp_path, capsys, command):
    # a configuration fault, caught before any mesh is built or solved
    cfg, out = write_config(tmp_path, SMOKE_RUN, **{"surface.radius": "nan"})
    assert main([command, str(cfg)]) == 2
    assert "surface.radius" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_initial_value_exit_code(tmp_path, capsys):
    # a configuration fault, not a singular factor in the first step
    text = SMOKE_RUN.replace("initial = sphere_eoc", "initial = constant")
    cfg, out = write_config(tmp_path, text, **{"initial.value": "nan"})
    assert main(["run", str(cfg)]) == 2
    assert "initial.value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, radii", [
    ("constant_area_torus", {"surface.major": 0.2, "surface.minor": 0.5}),
    ("periodic_torus", {"surface.minor": 0.5, "surface.amplitude": 0.25}),
    # r(t) passes R(t) within the first step, and 1 + rate t is 0 at its end
    ("constant_area_torus", {"surface.rate": -200}),
])
def test_torus_radii_exit_code(tmp_path, capsys, kind, radii):
    # a tube that reaches the axis at some t: self-intersecting, caught
    # before any mesh
    cfg, out = write_config(tmp_path, TORUS_RUN.replace("constant_area_torus", kind),
                            **radii)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "surface" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    ({"mesh.subdivisions": -1}, "mesh.subdivisions: must be >= 0"),
    ({"newton.max_iter": 0}, "newton.max_iter: must be >= 1"),
    ({"output.snapshot_every": -1}, "output.snapshot_every: must be >= 0"),
    ({"initial": "bogus"}, "initial: expected one of"),
    ({"surface.kind": "oscillating_sphere", "surface.base": 0.1,
      "surface.amplitude": 0.2}, "surface: radius must stay positive for all t"),
    ({"surface.base": "abc"}, "bad number 'abc'"),
    ({"": 3}, "empty key or value"),
    ({"eps": ""}, "empty key or value"),
    ({"newton.max_iter": 1000000000}, "newton.max_iter: must be >= 1 and <= 1000"),
    ({"output.dir": "runs\x00x"}, "output.dir: must be printable"),
])
def test_input_rule_exit_code(tmp_path, capsys, settings, message):
    # each input rule exits 2 with one line naming it, before any output
    cfg, out = write_config(tmp_path, SMOKE_RUN, **settings)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_non_utf8_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"eps = 0.05\n\xff\xfe = 1\n")
    assert main(["run", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_with_byte_order_mark_runs(tmp_path):
    cfg, out = write_config(tmp_path, SMOKE_RUN)
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert main(["run", str(cfg)]) == 0
    assert (out / "diagnostics.csv").is_file()


def test_eoc_needs_sphere(tmp_path):
    cfg, _ = write_config(tmp_path, TORUS_RUN)
    assert main(["eoc", str(cfg), "--levels", "2"]) == 2


def test_eoc_needs_two_levels(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, EOC_SMOKE)
    assert main(["eoc", str(cfg), "--levels", "1"]) == 2
    assert "levels" in capsys.readouterr().err


def test_eoc_needs_one_step(tmp_path, capsys):
    # T = 0 is a valid run of no steps, but a study of no steps has no tau
    cfg, out = write_config(tmp_path, EOC_SMOKE.replace("T = 0.1", "T = 0"))
    assert main(["eoc", str(cfg), "--levels", "2"]) == 2
    assert "at least one step" in capsys.readouterr().err
    assert not out.exists()


def test_eoc_imex_flag_removed(tmp_path):
    # the scheme comes from the config's `scheme` key
    cfg, _ = write_config(tmp_path, EOC_SMOKE)
    with pytest.raises(SystemExit) as err:
        main(["eoc", str(cfg), "--imex"])
    assert err.value.code == 2


def test_solver_failure_exit_code(tmp_path):
    # an over-the-fold fully implicit step with a one-iteration budget
    text = """
surface.kind = oscillating_sphere
mesh.subdivisions = 2
eps = 0.05
tau = 3.125e-3
T = 0.1
scheme = fully_implicit
initial = sphere_eoc
newton.max_iter = 1
output.dir = {out}
"""
    cfg, _ = write_config(tmp_path, text)
    with pytest.warns(RuntimeWarning, match="multiple solutions"):
        assert main_within_wall(["run", str(cfg)]) == 3


def test_non_finite_geometry_exit_code(tmp_path, capsys):
    # the refined midpoints of so small a sphere underflow to nan nodes
    cfg, out = write_config(tmp_path, SMOKE_RUN, **{"surface.radius": 1e-200})
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "triangle area nan" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("setting", ["eps = 1e200", "eps = 0.1\ntheta = 1e300"])
def test_beyond_float32_exit_code(tmp_path, capsys, setting):
    # valid settings whose Newton matrix leaves the float32 factor's range:
    # a typed error before the cast, not its overflow warning and a
    # "singular" factor
    text = SMOKE_RUN.replace("scheme = imex", "scheme = fully_implicit")
    cfg, out = write_config(tmp_path, text.replace("eps = 0.1", setting))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main_within_wall(["run", str(cfg)]) == 3
    # theta = 1e300 puts every tau above the uniqueness bound
    assert all("multiple solutions" in str(w.message) for w in caught)
    err = capsys.readouterr().err
    assert "float32" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_beyond_float64_initial_potential_exit_code(tmp_path, capsys):
    # a valid eps whose 1/eps overflows the initial chemical potential's
    # right-hand side: a typed error naming the range, not a Jacobi-PCG miss
    text = """
surface.kind = constant_area_torus
mesh.n_major = 12
mesh.n_minor = 16
eps = 5e-324
tau = 1e-4
T = 2e-4
scheme = imex
initial = constant
initial.value = 1e-3
output.dir = {out}
"""
    cfg, out = write_config(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main_within_wall(["run", str(cfg)]) == 3
    assert not caught
    err = capsys.readouterr().err
    assert "float64 range" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_theta_square_underflow_runs(tmp_path):
    # theta^2 underflows to 0: no uniqueness bound, as for theta = 0
    text = SMOKE_RUN.replace("static_sphere", "oscillating_sphere")
    text = text.replace("scheme = imex", "scheme = fully_implicit")
    cfg, out = write_config(tmp_path, text, theta=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg)]) == 0
    assert (out / "diagnostics.csv").is_file()


def test_imex_theta_beyond_float64_exit_code(tmp_path, capsys):
    # the IMEX matrix holds no theta, but the right-hand side is near the
    # float64 limit: the linear solve must not overflow, and a trial step
    # whose cubic load overflows is rejected, so Newton reports divergence
    cfg, out = write_config(tmp_path, SMOKE_RUN.replace(
        "eps = 0.1", "eps = 0.1\ntheta = 1e300"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main_within_wall(["run", str(cfg)]) == 3
    assert not caught
    err = capsys.readouterr().err
    assert "no convergence" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_eoc_smoke(tmp_path, capsys):
    cfg, out = write_config(tmp_path, EOC_SMOKE)
    assert main(["eoc", str(cfg), "--levels", "2"]) == 0
    for name in ("eoc_u.csv", "eoc_w.csv"):
        lines = (out / name).read_text().strip().splitlines()
        assert lines[0] == "h,error,eoc"
        assert len(lines) == 3  # two levels


def test_imex_eoc_runs_no_fully_implicit_solve(tmp_path):
    # the reference runs the study's scheme, so the uniqueness warning of
    # the fully implicit scheme has nothing to warn about
    cfg, _ = write_config(tmp_path, EOC_SMOKE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["eoc", str(cfg), "--levels", "2"]) == 0


@pytest.fixture
def solves(monkeypatch):
    """Names of the solve entry points ``cli`` calls, in call order."""
    calls = []
    for name in ("run_simulation", "eoc_study"):
        def spy(*args, _name=name, _solve=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    return calls


@pytest.mark.parametrize("command", ["run", "eoc"])
def test_output_dir_is_a_file_exit_code(tmp_path, capsys, command, solves):
    # an output failure is typed: one line, no traceback, the file kept
    text = SMOKE_RUN if command == "run" else EOC_SMOKE
    cfg, out = write_config(tmp_path, text)
    out.write_text("kept\n")
    levels = ["--levels", "2"] if command == "eoc" else []
    assert main([command, str(cfg), *levels]) == 3
    err = capsys.readouterr().err
    assert "cannot write" in err and len(err.splitlines()) == 1
    assert err.startswith("escher: output error: ")
    assert out.read_text() == "kept\n"
    assert solves == []  # found before the first step


@pytest.mark.parametrize("command", ["run", "eoc"])
def test_output_dir_below_a_file_exit_code(tmp_path, capsys, command, solves):
    text = SMOKE_RUN if command == "run" else EOC_SMOKE
    cfg, out = write_config(tmp_path, text.replace(
        "output.dir = {out}", "output.dir = {out}/sub"))
    out.write_text("kept\n")
    levels = ["--levels", "2"] if command == "eoc" else []
    assert main([command, str(cfg), *levels]) == 3
    err = capsys.readouterr().err
    assert err.startswith("escher: output error: cannot write ")
    assert len(err.splitlines()) == 1
    assert out.read_text() == "kept\n"
    assert solves == []


def test_run_makes_nested_output_dir(tmp_path):
    cfg, out = write_config(tmp_path, SMOKE_RUN.replace(
        "output.dir = {out}", "output.dir = {out}/a/b"))
    assert main(["run", str(cfg)]) == 0
    assert (out / "a" / "b" / "diagnostics.csv").is_file()


@pytest.mark.parametrize("command", ["run", "mesh-info"])
def test_step_count_overflow_exit_code(tmp_path, capsys, command):
    # T / tau = 1e310 overflows to inf, which no step count rounds from
    text = SMOKE_RUN.replace("tau = 1e-3", "tau = 1e-300")
    cfg, out = write_config(tmp_path, text.replace("T = 1e-2", "T = 1e10"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tau" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("radius", [1e160, 1e200])
@pytest.mark.parametrize("command", ["run", "mesh-info"])
def test_sphere_radius_square_overflow_exit_code(tmp_path, capsys, command,
                                                 radius):
    # radius**2 is beyond float64: a configuration fault, not OverflowError
    cfg, out = write_config(tmp_path, SMOKE_RUN, **{"surface.radius": radius})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "surface" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_large_sphere_runs(tmp_path, capsys):
    # on a sphere of radius 1e4, |phi| at escher's own nodes is about 1e-8:
    # roundoff of the radius squared, not a node off the surface
    cfg, out = write_config(tmp_path, SMOKE_RUN, **{
        "surface.radius": 1e4, "initial": "constant", "initial.value": 0.5})
    assert main(["run", str(cfg)]) == 0
    assert (out / "diagnostics.csv").exists()


@pytest.fixture
def no_meshes(monkeypatch):
    """Every mesh builder escher can reach raises: a test that takes this
    fixture allocates no mesh."""
    def refuse(*args, **kwargs):
        raise AssertionError("a mesh was built")

    for owner in (meshing, config, studies):
        for name in ("build_icosphere", "build_torus_mesh", "refine"):
            if name in vars(owner):
                monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("command, text, settings, levels, message", [
    ("run", SMOKE_RUN, {"mesh.subdivisions": 40}, [],
     "mesh.subdivisions: must be >= 0 and <= 8"),
    ("mesh-info", SMOKE_RUN, {"mesh.subdivisions": 9}, [],
     "mesh.subdivisions: must be >= 0 and <= 8"),
    ("run", TORUS_RUN, {"mesh.n_major": 31623, "mesh.n_minor": 31623}, [],
     "mesh.n_major: n_major * n_minor must be <= 1048576"),
    ("eoc", EOC_SMOKE, {}, ["--levels", "60"],
     "levels: mesh.subdivisions + levels must be <= 8"),
    ("eoc", EOC_SMOKE, {}, ["--levels", "8"],
     "levels: mesh.subdivisions + levels must be <= 8"),
], ids=["subdivisions-40", "mesh-info-9", "torus-1e9-nodes", "eoc-levels-60",
        "eoc-levels-8"])
def test_oversize_mesh_exit_code(tmp_path, capsys, no_meshes, command, text,
                                 settings, levels, message):
    # a mesh over MAX_NODES is refused by one line before any is built
    cfg, out = write_config(tmp_path, text, **settings)
    assert main([command, str(cfg), *levels]) == 2
    err = capsys.readouterr().err
    assert err == f"escher: configuration error: {message}\n"
    assert not out.exists()


# values a fuzzed key may take in place of a valid one: subnormal, tiny,
# huge, zero, negative and non-finite
EXTREMES = ("5e-324", "1e-300", "1e-100", "1e-30", "1e-10", "1e-3", "1e3",
            "1e10", "1e30", "1e100", "1e300", "0", "-1", "nan", "inf")
FUZZ_WALL_S = 10.0  # every fuzzed call ends within this many seconds

SURFACE_PARAMS = {  # valid parameters of each kind
    "static_sphere": {"radius": st.floats(0.5, 2.0)},
    "oscillating_sphere": {"base": st.floats(0.5, 1.5),
                           "amplitude": st.floats(-0.2, 0.2),
                           "omega": st.floats(0.0, 20.0 * np.pi)},
    "constant_area_torus": {"major": st.floats(0.6, 1.2),
                            "minor": st.floats(0.1, 0.5),
                            "rate": st.floats(0.0, 2.0)},
    "periodic_torus": {"major": st.floats(0.6, 1.2),
                       "minor": st.floats(0.1, 0.5),
                       "amplitude": st.floats(-0.09, 0.09),
                       "omega": st.floats(0.0, 20.0 * np.pi)},
}
VALID = {
    "mesh.subdivisions": st.integers(0, 2),
    "mesh.n_major": st.integers(3, 12),
    "mesh.n_minor": st.integers(3, 6),
    "eps": st.floats(0.02, 0.5),
    "theta": st.floats(0.0, 3.0),
    "scheme": st.sampled_from(SCHEMES),
    "initial": st.sampled_from(config.INITIAL_DATA),
    "initial.value": st.floats(-1.0, 1.0),
    "newton.tol": st.floats(-13.0, -6.0).map(lambda e: 10.0 ** e),
    "newton.max_iter": st.integers(1, 60),
    "output.dir": st.just("out"),  # relative: each call runs in a new dir
    "output.snapshot_every": st.integers(0, 10),
}
SIZES = ("mesh.n_major", "mesh.n_minor")  # always drawn: 48 x 16 by default
FUZZED_KEYS = sorted({"surface.kind", "tau", *VALID, *(
    f"surface.{name}" for params in SURFACE_PARAMS.values() for name in params)})


@st.composite
def fuzzed_configs(draw):
    """A config text: for a drawn surface kind, each key of VALID and each
    of the kind's parameters left out or valid, SIZES always valid; then up
    to five keys of FUZZED_KEYS, any kind's parameters included, from
    EXTREMES; and T = steps * tau for 0 to 10 steps."""
    kind = draw(st.sampled_from(surface_kinds()))
    valid = {**VALID, **{f"surface.{name}": value
                         for name, value in SURFACE_PARAMS[kind].items()}}
    values = {"surface.kind": kind}
    for key, value in valid.items():
        if key in SIZES or draw(st.booleans()):
            values[key] = str(draw(value))
    values["tau"] = repr(10.0 ** draw(st.floats(-5.0, -1.0)))
    for key in draw(st.sets(st.sampled_from(FUZZED_KEYS), max_size=5)):
        values[key] = draw(st.sampled_from(EXTREMES))
    values["T"] = repr(draw(st.integers(0, 10)) * float(values["tau"]))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@settings(max_examples=15, deadline=None)
@given(text=fuzzed_configs(),
       command=st.sampled_from((["run"], ["mesh-info"],
                                ["eoc", "--levels", "2"])))
def test_cli_over_random_configs(text, command):
    """Any config of the fuzz grammar exits 0, 2 or 3, a failure with one
    stderr line, within FUZZ_WALL_S.  Valid draws: the four surface kinds
    with radius 0.5-2, base 0.5-1.5, amplitude +-0.2 (+-0.09 on the
    periodic torus), omega 0-20 pi, major 0.6-1.2, minor 0.1-0.5 and rate
    0-2; subdivisions 0-2, tori 3-12 x 3-6; eps 0.02-0.5, theta 0-3, both
    schemes, the three initial data, initial.value +-1; newton.tol
    log-uniform in [1e-13, 1e-6], newton.max_iter 1-60; snapshots every
    0-10 steps; tau log-uniform in [1e-5, 1e-1].  Up to five keys take a
    value of EXTREMES, and T = steps * tau for 0-10 steps, so no config asks
    for more than 10 steps.  Warnings are not counted as stderr lines."""
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)  # a relative output.dir lands here
        err = io.StringIO()
        try:
            with open("run.cfg", "w") as cfg:
                cfg.write(text)
            start = time.perf_counter()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                code = main([command[0], "run.cfg", *command[1:]])
            elapsed = time.perf_counter() - start
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3)
    assert code == 0 or len(err.getvalue().splitlines()) == 1
    assert elapsed < FUZZ_WALL_S
