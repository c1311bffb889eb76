"""File emission: legacy VTK snapshots and CSV tables.

Every file goes through one writer, ``_write``: it creates the parent
directory, writes ASCII, and raises ``IoError`` for any operating-system
failure.  Its chunks are strings or ``(rows, row_format)`` blocks, each
block one ``%`` format of ``np.savetxt``'s row format, so the text is
savetxt's without its per-row loop.  VTK files are legacy 2.0 ASCII
POLYDATA with triangle polygons and named scalar point-data arrays.
Floats are written at 17 significant digits with '.' as the decimal
separator; diagnostics tables have one column per field of
``DiagnosticRecord`` and EOC tables are ``h,error,eoc`` with an empty
order on the first row.
"""

import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from .assembly import check_length
from .diagnostics import DiagnosticRecord
from .errors import IoError


def _write(path, *chunks):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for chunk in chunks:
                if not isinstance(chunk, str):
                    rows, row_fmt = chunk
                    chunk = ((row_fmt + "\n") * len(rows)) % tuple(
                        np.ravel(rows).tolist())
                fh.write(chunk)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def check_output_dir(path):
    """Raise IoError unless ``path``, or else its nearest existing ancestor,
    is a directory, so ``_write`` can make it; creates nothing."""
    found = os.path.abspath(path)
    while not os.path.exists(found):  # false on any OSError; "/" exists
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise IoError(f"cannot write {path}: {found} is not a directory")


def write_vtk(mesh, arrays, path):
    """Write a mesh with named nodal scalar arrays as legacy ASCII VTK.

    Each block is one ``%`` format, so the text is ``np.savetxt``'s.  Array
    names must be printable ASCII without whitespace, which readers split."""
    arrays = {name: check_length(mesh, values)
              for name, values in arrays.items()}
    for name in arrays:
        if not re.fullmatch("[!-~]+", str(name)):
            raise IoError(f"VTK array name {name!r} is not printable ASCII "
                          "without whitespace")
    n, nt = mesh.node_count, mesh.triangle_count
    chunks = ["# vtk DataFile Version 2.0\n"
              f"escher surface snapshot t={mesh.current_time!r}\n"
              f"ASCII\nDATASET POLYDATA\nPOINTS {n} double\n",
              (mesh.nodes, "%.17g %.17g %.17g"),
              f"POLYGONS {nt} {4 * nt}\n", (mesh.triangles, "3 %d %d %d")]
    if arrays:
        chunks.append(f"POINT_DATA {n}\n")
    for name, values in arrays.items():
        chunks += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                   (values, "%.17g")]
    _write(path, *chunks)


def write_diagnostics_csv(records, path):
    """Diagnostic trajectory as CSV, one row per recorded step."""
    columns = fields(DiagnosticRecord)
    rows = np.array([[getattr(r, c.name) for c in columns] for r in records],
                    dtype=object)  # integer columns stay Python ints
    _write(path, ",".join(c.name for c in columns) + "\n",
           (rows, ",".join("%.17g" if c.type is float else "%d"
                           for c in columns)))


def write_eoc_csv(table, path):
    """EOC table as CSV with columns h,error,eoc."""
    rows = table.rows()
    _write(path, "h,error,eoc\n", ([row[:2] for row in rows[:1]], "%.17g,%.17g,"),
           (rows[1:], "%.17g,%.17g,%.17g"))
