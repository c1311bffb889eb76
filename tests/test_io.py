"""VTK and CSV emission tests, including exact round-trips."""

import io

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays as np_arrays

from escher.diagnostics import DiagnosticRecord, eoc
from escher.errors import IoError, LengthMismatch
from escher.io import write_diagnostics_csv, write_eoc_csv, write_vtk
from escher.meshing import SurfaceMesh, build_icosphere
from escher.surfaces import StaticSphere
from vtk_reader import read_snapshot


@pytest.fixture(scope="module")
def mesh():
    return build_icosphere(StaticSphere(), 0)


def test_vtk_layout(mesh, tmp_path):
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, {"u": np.linspace(-1, 1, 12)}, path)
    text = path.read_text()
    assert "# vtk DataFile Version 2.0" in text
    assert "POINTS 12 double" in text
    assert "POLYGONS 20 80" in text
    assert "POINT_DATA 12" in text
    assert "SCALARS u double 1" in text


def test_vtk_round_trip(mesh, tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"u": rng.normal(size=12), "w": rng.normal(size=12)}
    path = tmp_path / "snap.vtk"
    write_vtk(mesh, arrays, path)
    points, tris, back = read_snapshot(path)
    npt.assert_array_equal(points, mesh.nodes)       # 17 digits round-trip
    npt.assert_array_equal(tris, mesh.triangles)
    for name in arrays:
        npt.assert_array_equal(back[name], arrays[name])


def test_vtk_geometry_only(mesh, tmp_path):
    path = tmp_path / "geom.vtk"
    write_vtk(mesh, {}, path)
    _, _, arrays = read_snapshot(path)
    assert arrays == {}
    assert "POINT_DATA" not in path.read_text()


def test_vtk_seventeen_digits(mesh, tmp_path):
    path = tmp_path / "digits.vtk"
    write_vtk(mesh, {"u": np.full(12, 1.0 / 3.0)}, path)
    assert "0.33333333333333331" in path.read_text()


SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                  1e308, -1e308, 1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


def savetxt_snapshot(mesh, arrays):
    """The snapshot text, each block written by ``np.savetxt``."""
    fh = io.StringIO()
    n, nt = mesh.node_count, mesh.triangle_count
    fh.write("# vtk DataFile Version 2.0\n"
             f"escher surface snapshot t={mesh.current_time!r}\n"
             f"ASCII\nDATASET POLYDATA\nPOINTS {n} double\n")
    np.savetxt(fh, mesh.nodes, fmt="%.17g")
    fh.write(f"POLYGONS {nt} {4 * nt}\n")
    np.savetxt(fh, mesh.triangles, fmt="3 %d %d %d")
    if arrays:
        fh.write(f"POINT_DATA {n}\n")
        for name, values in arrays.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            np.savetxt(fh, values, fmt="%.17g")
    return fh.getvalue()


@st.composite
def snapshots(draw):
    n = draw(st.integers(1, 6))
    nodes = draw(np_arrays(np.float64, (n, 3), elements=FLOATS))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    triangles = draw(np_arrays(dtype, (draw(st.integers(1, 6)), 3),
                               elements=st.integers(info.min, info.max)))
    names = draw(st.lists(st.sampled_from(["u", "w", "phi"]), max_size=3,
                          unique=True))
    arrays = {name: draw(np_arrays(np.float64, n, elements=FLOATS))
              for name in names}
    mesh = SurfaceMesh(np.zeros((n, 3)), triangles, StaticSphere(),
                       current_time=draw(st.floats(0.0, 1.0)))
    # the writer's inputs as they may come: unvalidated nodes, possibly in
    # Fortran order, and triangles of either integer width
    mesh.nodes = np.asfortranarray(nodes) if draw(st.booleans()) else nodes
    mesh.triangles = triangles
    return mesh, arrays


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_vtk_text_equals_savetxt(tmp_path_factory, snapshot):
    mesh, arrays = snapshot
    path = tmp_path_factory.mktemp("oracle") / "snap.vtk"
    write_vtk(mesh, arrays, path)
    assert path.read_text(encoding="ascii") == savetxt_snapshot(mesh, arrays)


def test_vtk_wrong_length(mesh, tmp_path):
    with pytest.raises(LengthMismatch):
        write_vtk(mesh, {"u": np.zeros(5)}, tmp_path / "bad.vtk")


@pytest.mark.parametrize("name", ["ü", "two words", ""])
def test_vtk_array_name_rejected(mesh, tmp_path, name):
    # legacy-VTK readers split a SCALARS line at whitespace
    path = tmp_path / "bad.vtk"
    with pytest.raises(IoError):
        write_vtk(mesh, {name: np.zeros(12)}, path)
    assert not path.exists()


def test_diagnostics_csv(tmp_path):
    records = [
        DiagnosticRecord(step=i, time=0.1 * i, energy=1.0 / (i + 1), mass=0.5,
                         area=4.0, h=0.3, newton_iters=i)
        for i in range(3)
    ]
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,time,energy,mass,area,h,newton_iters"
    assert len(lines) == 4
    assert lines[1].startswith("0,0,1,")


def test_eoc_csv(tmp_path):
    table = eoc([4.0, 1.0, 0.25], [1.0, 0.5, 0.25])
    path = tmp_path / "eoc.csv"
    write_eoc_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,error,eoc"
    assert len(lines) == 4
    assert lines[1].endswith(",")          # first row has no order
    assert lines[2].split(",")[2] == "2"
