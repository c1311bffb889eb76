"""Byte identity of the command-line outputs against a checked-in manifest.

Three small configurations run through ``python -m escher.cli`` in a
subprocess with BLAS and OpenMP pinned to one thread: an IMEX torus with
snapshots, a fully implicit oscillating sphere with snapshots, and a
two-level refinement study.  The SHA-256 of every file they write must
equal the digest in ``golden_manifest.json``, which also records the
Python, numpy and scipy versions it was made with.

A change that moves roundoff on purpose regenerates the manifest::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_manifest.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CASES = {
    "torus-imex": (["run"], """
surface.kind = constant_area_torus
mesh.n_major = 16
mesh.n_minor = 12
eps = 0.05
tau = 5e-3
T = 0.05
scheme = imex
initial = torus
output.snapshot_every = 5
"""),
    "sphere-fully-implicit": (["run"], """
surface.kind = oscillating_sphere
mesh.subdivisions = 2
eps = 0.1
tau = 1e-3
T = 1e-2
scheme = fully_implicit
initial = sphere_eoc
output.snapshot_every = 5
"""),
    "eoc-sphere": (["eoc", "--levels", "2"], """
surface.kind = oscillating_sphere
mesh.subdivisions = 0
eps = 0.5
tau = 2.5e-2
T = 0.05
scheme = fully_implicit
initial = sphere_eoc
"""),
}


def versions():
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_case(name, workdir):
    """Run one case in ``workdir`` and return {file name: SHA-256}."""
    args, config = CASES[name]
    out = Path(workdir) / "out"
    cfg = Path(workdir) / "run.cfg"
    cfg.write_text(config + f"output.dir = {out}\n")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-m", "escher.cli", *args,
                           str(cfg)], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_manifest(name, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    expected = manifest["cases"][name]
    got = run_case(name, tmp_path)
    where = (f"manifest made with {manifest['versions']}, "
             f"this run with {versions()}")
    assert sorted(got) == sorted(expected), f"{name}: file set differs; {where}"
    for file, digest in expected.items():
        assert got[file] == digest, f"{name}/{file} differs; {where}"


def write_manifest():
    """Rewrite the manifest and print each case/file whose digest it
    changes, then how many changed of how many."""
    old = json.loads(MANIFEST.read_text())["cases"] if MANIFEST.exists() else {}
    cases, changed = {}, []
    for name in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            cases[name] = run_case(name, workdir)
        changed += [f"{name}/{file}" for file, digest in cases[name].items()
                    if old.get(name, {}).get(file) != digest]
    print(*changed, sep="\n")
    print(f"{len(changed)} of {sum(map(len, cases.values()))} digests changed")
    MANIFEST.write_text(json.dumps({"versions": versions(), "cases": cases},
                                   indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_manifest()
