"""Command-line front end.

Subcommands::

    escher run <config>                  time-step a configuration, write
                                         diagnostics.csv and VTK snapshots
    escher eoc <config> --levels N       mesh-refinement study on a sphere,
                                         write eoc_u.csv / eoc_w.csv
    escher mesh-info <config>            print mesh statistics and exit

Exit codes: 0 success, 2 configuration error, 3 solver or output failure.
"""

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import (EscherError, IoError, ParseError, ValidationError,
                     WrongSurfaceKind)
from .io import check_output_dir, write_diagnostics_csv, write_eoc_csv, write_vtk
from .meshing import mesh_quality, mesh_size_h, surface_area
from .solver import initial_data_interpolate, run_simulation
from .studies import eoc_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="escher",
        description="Phase-field dynamics on evolving triangulated surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="time-step a configuration")
    p_run.add_argument("config", type=Path)

    p_eoc = sub.add_parser("eoc", help="mesh-refinement convergence study")
    p_eoc.add_argument("config", type=Path)
    p_eoc.add_argument("--levels", type=int, default=4)

    p_info = sub.add_parser("mesh-info", help="print mesh statistics")
    p_info.add_argument("config", type=Path)
    return parser


def _load(path):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def _cmd_run(args):
    cfg = _load(args.config)
    check_output_dir(cfg.output_dir)
    surface = cfg.build_surface()
    mesh = cfg.build_mesh(surface)
    pot = cfg.build_potential()
    alpha0 = initial_data_interpolate(mesh, cfg.initial_function())
    result = run_simulation(cfg.scheme_config(), mesh, alpha0, pot,
                            snapshot_every=cfg.snapshot_every)

    outdir = Path(cfg.output_dir)
    write_diagnostics_csv(result.records, outdir / "diagnostics.csv")
    for snap_mesh, snap_state in result.snapshots:
        name = f"snapshot_{snap_state.step:06d}.vtk"
        write_vtk(snap_mesh, {"u": snap_state.alpha, "w": snap_state.beta},
                  outdir / name)
    last = result.records[-1]
    print(f"completed {last.step} steps to t={last.time:g}; "
          f"energy={last.energy:.6e}, mass={last.mass:.6e}")
    print(f"wrote {outdir / 'diagnostics.csv'}"
          + (f" and {len(result.snapshots)} snapshots" if result.snapshots else ""))
    return EXIT_OK


def _cmd_eoc(args):
    cfg = _load(args.config)
    check_output_dir(cfg.output_dir)
    pot = cfg.build_potential()
    result = eoc_study(cfg.scheme_config(), cfg.build_surface(), pot,
                       cfg.initial_function(), cfg.subdivisions, args.levels)

    outdir = Path(cfg.output_dir)
    write_eoc_csv(result.table_u, outdir / "eoc_u.csv")
    write_eoc_csv(result.table_w, outdir / "eoc_w.csv")
    print(result.table_u)
    print(result.table_w)
    print(f"wrote {outdir / 'eoc_u.csv'} and {outdir / 'eoc_w.csv'}")
    return EXIT_OK


def _cmd_mesh_info(args):
    cfg = _load(args.config)
    surface = cfg.build_surface()
    mesh = cfg.build_mesh(surface)
    print(f"surface:   {surface.kind}")
    print(f"nodes:     {mesh.node_count}")
    print(f"triangles: {mesh.triangle_count}")
    print(f"h:         {mesh_size_h(mesh):.6e}")
    print(f"area:      {surface_area(mesh):.6e}")
    print(f"quality:   {mesh_quality(mesh):.4f} (min inradius / h)")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "eoc": _cmd_eoc, "mesh-info": _cmd_mesh_info}
    try:
        return handler[args.command](args)
    except (ParseError, ValidationError, WrongSurfaceKind) as exc:
        print(f"escher: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EscherError as exc:
        kind = "output" if isinstance(exc, IoError) else "solver"
        print(f"escher: {kind} error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
