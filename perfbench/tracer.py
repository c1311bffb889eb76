"""Span tracer behind the benchmark's per-layer metrics.

``Tracer.installed()`` wraps, for the duration of a ``with`` block, the
public functions at escher's module boundaries: the names that
``escher.cli``, ``escher.studies`` and ``escher.solver`` look up at call
time, ``RunConfig.build_mesh`` and ``MeshHierarchy.build``, and
``scipy.sparse.bmat`` / ``scipy.sparse.linalg.bicgstab``.  Each wrapped
call appends one span ``[name, start, end, parent]`` to an in-memory list;
nothing is written until the benchmark ends.  Every factorisation
returned by ``lu_factor`` is handed back inside a proxy whose ``solve`` is
timed, which is how the triangular solves inside the reuse-LU Krylov
preconditioner are seen.  Leaving the block restores every patched name,
also when the block raises.
"""

import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from escher import cli, config, meshing, solver, studies

# bytes one triangular-solve pair reads per stored factor entry: a float64
# value and an int32 row index (SuperLU's supernodal layout is close to this)
BYTES_PER_FACTOR_ENTRY = 12

# (module or class, attribute, span name) for wrappers that only record a span
_PLAIN = (
    (cli, "run_simulation", "solver.run"),
    (cli, "write_diagnostics_csv", "io.csv"),
    (studies, "run_simulation", "solver.run"),
    (studies, "compute_reference", "studies.reference"),
    (studies, "_run_level_star", "studies.level"),
    (studies, "prolong_to", "studies.prolong"),
    (studies, "l2_error", "diagnostics.error"),
    (studies, "build_icosphere", "meshing.build"),
    (meshing.MeshHierarchy, "build", "meshing.build"),
    (config.RunConfig, "build_mesh", "meshing.build"),
    (solver, "advance_mesh", "meshing.advance"),
    (solver, "assemble_nonlinear_load", "assembly.nl_load"),
    (solver, "assemble_nonlinear_jacobian", "assembly.nl_jac"),
    (solver, "_newton", "solver.newton"),
    (solver, "step_fully_implicit", "solver.step"),
    (solver, "step_imex", "solver.step"),
    (solver, "_record", "diagnostics.record"),
    (sp, "bmat", "solver.block_build"),
)

# spans whose own time, after their children, is reported as solver.self_s
_SOLVER_SELF = ("solver.run", "solver.step", "solver.newton")

# counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = ("solver.newton_iters", "linalg.factor_calls",
                "linalg.krylov_iters", "linalg.lu_fill_nnz")


class _TracedFactor:
    """A SuperLU factorisation whose ``solve`` records a tri_solve span."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args):
        with self._tracer.span("linalg.tri_solve"):
            x = self._lu.solve(rhs, *args)
        self._tracer.counts["linalg.tri_solve_bytes"] += (
            BYTES_PER_FACTOR_ENTRY * self._lu.nnz)
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counts of one traced workload instance."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.factors = []      # (nnz of L+U, nnz of the factored matrix)
        self._open = []
        self._saved = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _patch(self, owner, attr, make_replacement):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make_replacement(original.__func__))
        else:
            replacement = make_replacement(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _replacements(self):
        """(owner, attribute, wrapper factory) for every name it replaces."""
        return [(owner, attr, lambda fn, name=name: self._wrap(name, fn))
                for owner, attr, name in _PLAIN] + [
            (cli, "write_vtk", self._write_vtk),
            (solver, "assemble_operators", self._operators),
            (solver, "lu_factor", self._lu_factor),
            (spla, "bicgstab", self._bicgstab),
            # run_simulation picks its stepper from this table, not by name;
            # patched after the steppers, so it holds their wrappers
            (solver, "_STEPPERS", lambda table: {
                solver.FULLY_IMPLICIT: solver.step_fully_implicit,
                solver.IMEX: solver.step_imex}),
        ]

    def patch_targets(self):
        """Every (owner, attribute) pair ``installed`` replaces."""
        return [(owner, attr) for owner, attr, _ in self._replacements()]

    @contextmanager
    def installed(self):
        try:
            for owner, attr, make_replacement in self._replacements():
                self._patch(owner, attr, make_replacement)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _write_vtk(self, fn):
        def traced(mesh, arrays, path):
            with self.span("io.vtk"):
                fn(mesh, arrays, path)
            self.counts["io.vtk_bytes"] += os.path.getsize(path)
        return traced

    def _operators(self, fn):
        def traced(mesh):
            if "operators" not in mesh._cache:
                self.counts["assembly.operators_built"] += 1
            with self.span("assembly.operators"):
                return fn(mesh)
        return traced

    def _lu_factor(self, fn):
        def traced(matrix):
            with self.span("linalg.factor"):
                lu = fn(matrix)
            self.factors.append((lu.nnz, matrix.nnz))
            return _TracedFactor(self, lu)
        return traced

    def _bicgstab(self, fn):
        def traced(A, b, *args, callback=None, **kwargs):
            def tick(xk):
                self.counts["linalg.krylov_iters"] += 1
                if callback is not None:
                    callback(xk)

            with self.span("linalg.krylov"):
                x, info = fn(A, b, *args, callback=tick, **kwargs)
            if info != 0 or not np.isfinite(x).all():
                self.counts["linalg.krylov_fail"] += 1
            return x, info
        return traced

    def layer_metrics(self, recorded_newton_iters):
        """Per-layer numbers of this instance.

        ``*_s`` is the time spent in a layer's own spans after subtracting
        their child spans, so the layers partition the traced time;
        ``studies.reference_s`` and ``studies.levels_s`` are the exception
        and include the solves they contain.  ``recorded_newton_iters`` is
        the sum of ``newton_iters`` over the run's diagnostic records.
        """
        calls, total, own = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - inner

        newton = calls["assembly.nl_jac"]
        krylov_ok = calls["linalg.krylov"] - self.counts["linalg.krylov_fail"]
        fill, matrix_nnz = max(self.factors, default=(0, 1))
        return {
            "meshing.build_s": own["meshing.build"],
            "meshing.advance_s": own["meshing.advance"],
            "meshing.advance_calls": calls["meshing.advance"],
            "assembly.operators_s": own["assembly.operators"],
            "assembly.operators_calls": calls["assembly.operators"],
            "assembly.operators_built": self.counts["assembly.operators_built"],
            "assembly.nl_load_s": own["assembly.nl_load"],
            "assembly.nl_jac_s": own["assembly.nl_jac"],
            "assembly.nl_jac_calls": calls["assembly.nl_jac"],
            "solver.newton_iters": newton,
            "solver.newton_useful_ratio": recorded_newton_iters / max(newton, 1),
            "solver.block_build_s": own["solver.block_build"],
            "solver.block_build_calls": calls["solver.block_build"],
            "solver.self_s": sum(own[name] for name in _SOLVER_SELF),
            "linalg.factor_s": own["linalg.factor"],
            "linalg.factor_calls": calls["linalg.factor"],
            "linalg.lu_fill_nnz": fill,
            "linalg.lu_fill_ratio": fill / matrix_nnz,
            "linalg.tri_solve_s": own["linalg.tri_solve"],
            "linalg.tri_solve_calls": calls["linalg.tri_solve"],
            "linalg.tri_solve_bytes": self.counts["linalg.tri_solve_bytes"],
            "linalg.krylov_s": own["linalg.krylov"],
            "linalg.krylov_iters": self.counts["linalg.krylov_iters"],
            "linalg.krylov_fail": self.counts["linalg.krylov_fail"],
            "linalg.reuse_ratio": krylov_ok / max(newton, 1),
            "diagnostics.record_s": own["diagnostics.record"],
            "diagnostics.error_s": own["diagnostics.error"],
            "studies.reference_s": total["studies.reference"],
            "studies.levels_s": total["studies.level"],
            "studies.prolong_s": own["studies.prolong"],
            "io.vtk_s": own["io.vtk"],
            "io.vtk_bytes": self.counts["io.vtk_bytes"],
            "io.csv_s": own["io.csv"],
        }

    def write_spans(self, fh, instance):
        for index, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{instance},{index},{name},{start!r},{end!r},{parent}\n")
