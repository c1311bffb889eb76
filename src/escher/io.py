"""File emission: legacy VTK snapshots and CSV tables.

VTK files are legacy 2.0 ASCII POLYDATA with triangle polygons and named
scalar point-data arrays written at 17 significant digits; each block is
one ``%`` format of ``np.savetxt``'s row format, so the text is savetxt's
without its per-row loop.  CSV files use full double precision with '.' as
the decimal separator; diagnostics tables have one column per field of
``DiagnosticRecord`` and EOC tables are ``h,error,eoc`` with an empty
order on the first row.
"""

import re
from dataclasses import fields

import numpy as np

from .assembly import check_length
from .diagnostics import DiagnosticRecord
from .errors import IoError


def _fmt(x):
    return format(float(x), ".17g")


def _write_block(fh, arr, row_fmt):
    fh.write(((row_fmt + "\n") * len(arr)) % tuple(np.ravel(arr).tolist()))


def write_vtk(mesh, arrays, path):
    """Write a mesh with named nodal scalar arrays as legacy ASCII VTK.

    Each block is one ``%`` format, so the text is ``np.savetxt``'s.  Array
    names must be printable ASCII without whitespace, which readers split."""
    arrays = {name: check_length(mesh, values)
              for name, values in (arrays or {}).items()}
    for name in arrays:
        if not re.fullmatch("[!-~]+", str(name)):
            raise IoError(f"VTK array name {name!r} is not printable ASCII "
                          "without whitespace")
    n = mesh.node_count
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# vtk DataFile Version 2.0\n"
                     f"escher surface snapshot t={mesh.current_time!r}\n"
                     f"ASCII\nDATASET POLYDATA\nPOINTS {n} double\n")
            _write_block(fh, mesh.nodes, "%.17g %.17g %.17g")
            nt = mesh.triangle_count
            fh.write(f"POLYGONS {nt} {4 * nt}\n")
            _write_block(fh, mesh.triangles, "3 %d %d %d")
            if arrays:
                fh.write(f"POINT_DATA {n}\n")
                for name, values in arrays.items():
                    fh.write(f"SCALARS {name} double 1\n")
                    fh.write("LOOKUP_TABLE default\n")
                    _write_block(fh, values, "%.17g")
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
