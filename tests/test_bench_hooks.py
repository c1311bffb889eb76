"""The names the benchmark patches at call time still exist.

``perfbench/tracer.py`` replaces functions by name for its per-layer
metrics, and ``perfbench/pace.py`` replaces ``solver.advance_mesh`` during
untraced runs.  A name deleted or moved from the patched module would break
only a traced benchmark run; this test fails first.  It imports the tracer
without installing it.  The tracer also reads the ``"operators"`` key of a
mesh's cache to count operator builds, so that key is checked too, and it
counts Newton iterations and steps by the calls of two patched names, so a
short run checks that each is called once per iteration or step.  It times
the block-matrix build by the calls of ``scipy.sparse.bmat``, so a short run
of each scheme checks that the name is looked up once per factorisation.
"""

import importlib.util
from pathlib import Path

import pytest
import scipy.sparse as sp

from escher import solver
from escher.config import sphere_eoc_initial
from escher.meshing import build_icosphere
from escher.potentials import quartic_potential
from escher.surfaces import OscillatingSphere, StaticSphere

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_defined_on_its_owner():
    targets = _tracer_module().Tracer().patch_targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr in targets if attr not in vars(owner)]
    assert not missing


def test_pace_hook_exists():
    assert callable(vars(solver)["advance_mesh"])


def test_operators_cache_key(monkeypatch):
    # the tracer counts a build whenever "operators" is missing from the
    # mesh cache; a renamed key would count every call as a build
    mesh = build_icosphere(StaticSphere(), 1)
    assert "operators" not in mesh._cache
    ops = vars(solver)["assemble_operators"](mesh)
    assert mesh._cache["operators"] is ops

    class Forbidden:  # the fixed product every M, A and J goes through
        def __matmul__(self, values):
            raise AssertionError("assembled again")

    monkeypatch.setattr(mesh._cache["pattern"], "pair_map", Forbidden())
    assert vars(solver)["assemble_operators"](mesh) is ops


@pytest.mark.parametrize("scheme", solver.SCHEMES)
def test_traced_counts_see_every_iteration_and_step(monkeypatch, scheme):
    # the tracer takes solver.newton_iters from the calls of
    # solver.assemble_nonlinear_jacobian and the steps from those of
    # solver.advance_mesh; an assembly that bypassed either name would read
    # fewer.  Every step here converges from its first start, so each
    # Newton iteration makes one linear solve and adds one to newton_iters.
    calls = {"assemble_nonlinear_jacobian": 0, "advance_mesh": 0}
    for name in calls:
        def spy(*args, name=name, original=vars(solver)[name]):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(solver, name, spy)
    solves, solve = [], solver.LinearContext.solve

    def counting_solve(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(solver.LinearContext, "solve", counting_solve)
    cfg = solver.SchemeConfig(eps=0.5, tau=0.01, t_end=0.05, scheme=scheme)
    mesh = build_icosphere(OscillatingSphere(), 2)
    alpha = solver.initial_data_interpolate(mesh, sphere_eoc_initial)
    result = solver.run_simulation(cfg, mesh, alpha, quartic_potential())
    iterations = sum(record.newton_iters for record in result.records)
    assert iterations >= cfg.step_count()
    assert calls["assemble_nonlinear_jacobian"] == len(solves) == iterations
    assert calls["advance_mesh"] == cfg.step_count()


@pytest.mark.parametrize("scheme", solver.SCHEMES)
def test_block_build_is_one_bmat_per_factor(monkeypatch, scheme):
    # solver.block_build_* wraps scipy.sparse.bmat; a build that went round
    # the name would read 0 again, as it did before the build called it
    calls = {"bmat": 0, "lu_factor": 0}
    for owner, name in ((sp, "bmat"), (solver, "lu_factor")):
        def spy(*args, name=name, original=vars(owner)[name], **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    cfg = solver.SchemeConfig(eps=0.5, tau=0.01, t_end=0.05, scheme=scheme)
    mesh = build_icosphere(OscillatingSphere(), 2)
    alpha = solver.initial_data_interpolate(mesh, sphere_eoc_initial)
    solver.run_simulation(cfg, mesh, alpha, quartic_potential())
    assert calls["bmat"] == calls["lu_factor"] >= 1
