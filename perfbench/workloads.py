"""The benchmark's workloads and the correctness checks behind failed/attempted.

Every workload drives escher's public API from outside, in the order that
``escher run`` or ``escher eoc`` calls it, and looks the functions up
through ``escher.cli`` so that the tracer wraps the very names the command
line uses.  The seed only draws a rigid rotation R; escher receives the
nodal data of ``u0(R x)``.  The surfaces are symmetric under the drawn
rotations (any rotation for the spheres, rotations about the symmetry axis
for the torus), so the cost of the problem does not depend on the seed.

Checked operations are the time steps and, on ``eoc-sphere``, the EOC
table.  A step fails when the run raises ``EscherError``, when its mass
drifts from the initial mass by more than ``1e-8 |m0| + n * newton_tol``
after n steps (acceptance criterion 3), or, for the last step of a run,
when the final energy or mass leaves the tolerance recorded in
``baseline.json``.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from escher import cli, studies
from escher.errors import EscherError
from escher.meshing import MeshHierarchy, build_icosphere

# acceptance bands of the fully implicit scheme for the finest EOC order
U_BAND = (1.8, 2.4)
W_BAND = (1.8, 2.5)


def random_rotation(seed, axis_only):
    """A rotation drawn from ``seed``: uniform on SO(3), or about z only."""
    rng = np.random.default_rng(seed)
    if axis_only:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _rotated(u0, rotation):
    def u(points):
        return u0(np.asarray(points, dtype=float) @ rotation.T)
    return u


def _config_text(entries):
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


@dataclass
class Outcome:
    """One workload instance: timings, checked operations, Newton work."""

    wall_s: float
    step_s: float
    steps: int
    attempted: int
    failed: int
    recorded_newton_iters: int = 0   # summed over the runs' records


def _newton_iters(results):
    return sum(r.newton_iters for result in results for r in result.records)


def _failed_steps(result, newton_tol, final_check):
    """Indices of the run's steps that break their correctness check."""
    records = result.records
    m0 = records[0].mass
    bad = {n for n, r in enumerate(records[1:], start=1)
           if abs(r.mass - m0) > 1e-8 * abs(m0) + n * newton_tol}
    last = records[-1]
    if final_check is not None and (
            abs(last.energy - final_check["energy"]) > final_check["energy_tol"]
            or abs(last.mass - final_check["mass"]) > final_check["mass_tol"]):
        bad.add(len(records) - 1)
    return bad


class RunWorkload:
    """A time-stepping run in the order of ``escher run``.

    ``config`` holds the run's configuration entries; ``write_output`` decides
    whether the diagnostics CSV and VTK snapshots are written, as the
    command line does, or the records are kept in memory as the result.
    ``clock`` times the run; the benchmark swaps in one that leaves out
    the time of its pace samples.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, seed, config, final_check, rotate_about_axis,
                 write_output):
        self.config = config
        self.final_check = final_check
        self.rotation = random_rotation(seed, rotate_about_axis)
        self.write_output = write_output

    def setup(self):
        cfg = cli.parse_config(_config_text(self.config))
        surface = cfg.build_surface()
        mesh = cfg.build_mesh(surface)
        pot = cfg.build_potential()
        alpha0 = cli.initial_data_interpolate(
            mesh, _rotated(cfg.initial_function(), self.rotation))
        return cfg, mesh, pot, alpha0

    def run(self):
        start = self.clock()
        cfg, mesh, pot, alpha0 = self.setup()
        scheme = cfg.scheme_config()
        steps = scheme.step_count()
        stepping = self.clock()
        try:
            result = cli.run_simulation(scheme, mesh, alpha0, pot,
                                        snapshot_every=cfg.snapshot_every)
        except EscherError:
            now = self.clock()
            return Outcome(now - start, now - stepping, steps, steps, steps)
        stepped = self.clock()
        if self.write_output:
            outdir = Path(cfg.output_dir)
            outdir.mkdir(parents=True, exist_ok=True)
            cli.write_diagnostics_csv(result.records, outdir / "diagnostics.csv")
            for snap_mesh, snap_state in result.snapshots:
                cli.write_vtk(snap_mesh,
                              {"u": snap_state.alpha, "w": snap_state.beta},
                              outdir / f"snapshot_{snap_state.step:06d}.vtk")
        end = self.clock()
        failed = _failed_steps(result, scheme.newton_tol, self.final_check)
        return Outcome(end - start, stepped - stepping, steps, steps,
                       len(failed), _newton_iters([result]))


@contextmanager
def _timed_runs(runs, clock):
    """Collect (seconds, result) of every run_simulation that studies makes."""
    original = studies.run_simulation

    def timed(*args, **kwargs):
        start = clock()
        result = original(*args, **kwargs)
        runs.append((clock() - start, result))
        return result

    studies.run_simulation = timed
    try:
        yield
    finally:
        studies.run_simulation = original


class EocWorkload:
    """A refinement study in the order of ``escher eoc``; the result is the
    pair of EOC tables."""

    LEVELS = 3
    clock = staticmethod(time.perf_counter)

    def __init__(self, seed, config, final_check):
        self.config = config
        self.final_check = final_check
        self.rotation = random_rotation(seed, axis_only=False)

    def _load(self):
        cfg = cli.parse_config(_config_text(self.config))
        return (cfg, cfg.build_surface(), cfg.build_potential(),
                _rotated(cfg.initial_function(), self.rotation))

    def expected_steps(self, scheme):
        base = scheme.step_count()
        return sum(base * 4**level for level in range(self.LEVELS + 1))

    def setup(self):
        """What the study sets up before its first step: the hierarchy and
        the initial data on every level."""
        cfg, surface, _, u0 = self._load()
        hierarchy = MeshHierarchy.build(
            build_icosphere(surface, cfg.subdivisions), self.LEVELS)
        return [cli.initial_data_interpolate(mesh, u0)
                for mesh in hierarchy.levels]

    def run(self):
        start = self.clock()
        cfg, surface, pot, u0 = self._load()
        scheme = cfg.scheme_config()
        attempted = self.expected_steps(scheme) + 1
        runs = []
        try:
            with _timed_runs(runs, self.clock):
                study = cli.eoc_study(scheme, surface, pot, u0,
                                      cfg.subdivisions, self.LEVELS)
        except EscherError:
            now = self.clock()
            stepped = sum(seconds for seconds, _ in runs)
            return Outcome(now - start, stepped, attempted - 1, attempted,
                           attempted)
        end = self.clock()

        results = [result for _, result in runs]
        failed = 0
        for index, result in enumerate(results):
            # the first run is the reference solve, whose final values are
            # recorded; the level runs are checked for mass only
            final = self.final_check if index == 0 else None
            failed += len(_failed_steps(result, scheme.newton_tol, final))
        u_order, w_order = study.table_u.eocs[-1], study.table_w.eocs[-1]
        if not (U_BAND[0] <= u_order <= U_BAND[1]
                and W_BAND[0] <= w_order <= W_BAND[1]):
            failed += 1
        steps = sum(len(r.records) - 1 for r in results)
        return Outcome(end - start, sum(seconds for seconds, _ in runs),
                       steps, attempted, failed, _newton_iters(results))


TORUS_STEPS = 60
SPHERE_10K_STEPS = 24
SPHERE_10K_TAU = 0.1 / 768


def make(name, seed, outdir):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    baseline = Path(__file__).with_name("baseline.json").read_text()
    final_check = json.loads(baseline)["checks"][name]
    if name == "eoc-sphere":
        return EocWorkload(seed, {
            "surface.kind": "oscillating_sphere",
            "mesh.subdivisions": 1,
            "eps": 0.5,
            "tau": repr(0.1 / 3),
            "T": 0.1,
            "scheme": "fully_implicit",
            "newton.max_iter": 60,
            "initial": "sphere_eoc",
        }, final_check)
    if name == "torus-imex":
        return RunWorkload(seed, {
            "surface.kind": "constant_area_torus",
            "mesh.n_major": 64,
            "mesh.n_minor": 47,
            "eps": 0.05,
            "tau": 5e-5,
            "T": repr(TORUS_STEPS * 5e-5),
            "scheme": "imex",
            "initial": "torus",
            "output.dir": outdir / name,
            "output.snapshot_every": 10,
        }, final_check, rotate_about_axis=True, write_output=True)
    if name == "sphere-10k":
        return RunWorkload(seed, {
            "surface.kind": "oscillating_sphere",
            "mesh.subdivisions": 5,
            "eps": 0.5,
            "tau": repr(SPHERE_10K_TAU),
            "T": repr(SPHERE_10K_STEPS * SPHERE_10K_TAU),
            "scheme": "fully_implicit",
            "newton.max_iter": 60,
            "initial": "sphere_eoc",
        }, final_check, rotate_about_axis=False, write_output=False)
    raise KeyError(name)


NAMES = ("eoc-sphere", "torus-imex", "sphere-10k")
