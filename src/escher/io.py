"""File emission: legacy VTK snapshots and CSV tables.

VTK files are legacy 2.0 ASCII POLYDATA with triangle polygons and named
scalar point-data arrays written at 17 significant digits.  CSV files use
full double precision with '.' as the decimal separator; diagnostics
tables have one column per field of ``DiagnosticRecord`` and EOC tables
are ``h,error,eoc`` with an empty order on the first row.
"""

from dataclasses import fields

import numpy as np

from .diagnostics import DiagnosticRecord
from .errors import IoError


def _fmt(x):
    return format(float(x), ".17g")


def write_vtk(mesh, arrays, path):
    """Write a mesh with named nodal scalar arrays as legacy ASCII VTK."""
    arrays = dict(arrays or {})
    n = mesh.node_count
    for name, values in arrays.items():
        values = np.asarray(values)
        if values.shape != (n,):
            raise IoError(f"array {name!r} has shape {values.shape}, "
                          f"expected ({n},)")
        arrays[name] = values
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# vtk DataFile Version 2.0\n")
            fh.write(f"escher surface snapshot t={mesh.current_time!r}\n")
            fh.write("ASCII\n")
            fh.write("DATASET POLYDATA\n")
            fh.write(f"POINTS {n} double\n")
            np.savetxt(fh, mesh.nodes, fmt="%.17g")
            nt = mesh.triangle_count
            fh.write(f"POLYGONS {nt} {4 * nt}\n")
            np.savetxt(fh, mesh.triangles, fmt="3 %d %d %d")
            if arrays:
                fh.write(f"POINT_DATA {n}\n")
                for name, values in arrays.items():
                    fh.write(f"SCALARS {name} double 1\n")
                    fh.write("LOOKUP_TABLE default\n")
                    np.savetxt(fh, values, fmt="%.17g")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_diagnostics_csv(records, path):
    """Diagnostic trajectory as CSV, one row per recorded step."""
    columns = [(c.name, _fmt if c.type is float else str)
               for c in fields(DiagnosticRecord)]
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(name for name, _ in columns) + "\n")
            for r in records:
                fh.write(",".join(fmt(getattr(r, name))
                                  for name, fmt in columns) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_eoc_csv(table, path):
    """EOC table as CSV with columns h,error,eoc."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("h,error,eoc\n")
            for h, e, order in table.rows():
                order_s = "" if order is None else _fmt(order)
                fh.write(f"{_fmt(h)},{_fmt(e)},{order_s}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
