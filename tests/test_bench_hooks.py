"""The names the benchmark patches at call time still exist.

``perfbench/tracer.py`` replaces functions by name for its per-layer
metrics, and ``perfbench/pace.py`` replaces ``solver.advance_mesh`` during
untraced runs.  A name deleted or moved from the patched module would break
only a traced benchmark run; this test fails first.  It imports the tracer
without installing it.  The tracer also reads the ``"operators"`` key of a
mesh's cache to count operator builds, so that key is checked too.
"""

import importlib.util
from pathlib import Path

from escher import solver
from escher.meshing import build_icosphere
from escher.surfaces import StaticSphere

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
