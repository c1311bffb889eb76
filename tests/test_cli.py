"""End-to-end tests of the command-line interface."""

import warnings

import numpy as np
import pytest

from escher.cli import main
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


def test_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_eoc_needs_sphere(tmp_path):
    cfg, _ = write_config(tmp_path, TORUS_RUN)
    assert main(["eoc", str(cfg), "--levels", "2"]) == 2


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
        assert main(["run", str(cfg)]) == 3


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
