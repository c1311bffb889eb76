"""Test helper: read back a snapshot written by ``escher.io.write_vtk``.

The writer's layout is fixed (four header lines, POINTS, POLYGONS, then
optionally POINT_DATA with one SCALARS/LOOKUP_TABLE block per array), so
the numeric blocks are sliced out by line and parsed with ``np.loadtxt``.
"""

from pathlib import Path

import numpy as np


def read_snapshot(path):
    """Return ``(points, triangles, arrays)`` with arrays keyed by name."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    n = int(lines[4].split()[1])
    nt = int(lines[5 + n].split()[1])
    points = np.loadtxt(lines[5:5 + n], ndmin=2)
    tris = np.loadtxt(lines[6 + n:6 + n + nt], dtype=np.int64, ndmin=2)[:, 1:]
    arrays = {}
    start = 7 + n + nt  # first SCALARS line, past POINT_DATA
    while start < len(lines):
        name = lines[start].split()[1]
        arrays[name] = np.loadtxt(lines[start + 2:start + 2 + n], ndmin=1)
        start += 2 + n
    return points, tris, arrays
