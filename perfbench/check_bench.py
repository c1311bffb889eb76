"""The benchmark's own checks; run with ``python3 -m pytest perfbench/check_bench.py``.

The file name keeps these minutes-long checks out of the unit suite's
default collection.  They check that the exact counts of a traced run
repeat between two runs of one seed, that tracing restores every name it
patched, that the pace sampling of untraced runs restores the mesh
advance it wraps and takes its kernel time out of the workload's clock,
and that the benchmark refuses to run without escher's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import ROOT

sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402  (needs escher on the path)
import tracer  # noqa: E402
import workloads  # noqa: E402
from escher import solver  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exact_counts_repeat_for_one_seed(name):
    counts = []
    for _ in range(2):
        done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({key: result["metrics"][key]["value"]
                       for key in tracer.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


def _originals(patcher):
    return [(owner, attr, vars(owner)[attr])
            for owner, attr in patcher.patch_targets()]


def test_tracing_restores_every_patched_name(tmp_path):
    patcher = tracer.Tracer()
    before = _originals(patcher)
    workload = workloads.make("torus-imex", 5, tmp_path)
    with patcher.installed():
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in before)
        outcome = workload.run()
    assert outcome.failed == 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert {span[0] for span in patcher.spans} >= {
        "solver.run", "solver.newton", "linalg.tri_solve", "io.vtk"}


def test_tracing_restores_names_when_the_workload_raises():
    patcher = tracer.Tracer()
    before = _originals(patcher)
    with pytest.raises(RuntimeError):
        with patcher.installed():
            raise RuntimeError("workload failed")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_pace_restores_the_mesh_advance_and_its_clock_skips_samples(
        tmp_path):
    sampler = pace.Pace(interval=0.0)
    original = solver.advance_mesh
    workload = workloads.make("torus-imex", 5, tmp_path)
    workload.clock = sampler.clock
    with sampler.block() as factor:
        assert solver.advance_mesh is not original
        outcome = workload.run()
    assert solver.advance_mesh is original
    assert outcome.failed == 0
    # one sample before every step, and one before and after the block
    assert len(sampler.samples) == outcome.steps + 2
    assert factor[0] > 0
    start = sampler.clock()
    sampler.sample()
    assert sampler.clock() - start < sampler.samples[-1]


def test_refuses_to_run_without_escher_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "torus-imex", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
