"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  escher is imported from ``src/`` with no
install step.  The process pins BLAS and OpenMP to one thread before numpy
is imported, repeats the workload for about ``--seconds`` seconds, times
five set-ups after each repetition, and reports medians.  With ``--trace
0`` every time is taken at the reference pace of ``pace.py``: scaled by
how fast a fixed kernel ran around and inside its block, so that the
shared host's changes of speed do not show as changes of escher.  The
unadjusted medians are printed on the line before the result.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` spends the first half of the time on untraced repetitions and the
second half on traced ones, reports the per-layer metrics of the traced
repetitions plus ``trace_overhead`` (median traced wall time over median
untraced wall time), and writes every span to ``.perfbench_out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Without escher's sources next to ``perfbench/`` it exits with status 2 and
prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_PER_RUN = 5


def metric_units(kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _as_metrics(values, units):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _repeat(run_once, budget):
    """Run at least once, then again while the next run should still end
    within ``budget`` seconds of the first start."""
    outcomes, start = [], time.perf_counter()
    while True:
        outcomes.append(run_once())
        elapsed = time.perf_counter() - start
        if elapsed * (len(outcomes) + 1) / len(outcomes) > budget:
            return outcomes


def _end_to_end(workload, seconds):
    from pace import Pace

    pace = Pace()
    workload.clock = pace.clock
    setups, factors = [], []

    def run_once():
        with pace.block() as factor:
            outcome = workload.run()
        factors.append(factor[0])
        # set-ups are timed after each repetition: spread over the run, they
        # see the same machine as the repetitions, and the process is warm
        # (before the first repetition they run up to 1.7x slower)
        times = []
        with pace.block() as setup_factor:
            for _ in range(SETUPS_PER_RUN):
                start = pace.clock()
                workload.setup()
                times.append(pace.clock() - start)
        setups.extend((t, setup_factor[0]) for t in times)
        return outcome

    outcomes = _repeat(run_once, seconds)
    failed = sum(o.failed for o in outcomes)
    raw = {
        "setup_s": [t for t, _ in setups],
        "ms_per_step": [1e3 * o.step_s / o.steps for o in outcomes],
        "wall_s": [o.wall_s for o in outcomes],
    }
    scales = {"setup_s": [f for _, f in setups],
              "ms_per_step": factors, "wall_s": factors}
    values = {name: statistics.median(t * f for t, f in zip(raw[name],
                                                           scales[name]))
              for name in raw}
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    values["passed_frac"] = 1.0 - failed / sum(o.attempted for o in outcomes)
    print("unadjusted medians: "
          + ", ".join(f"{name} {statistics.median(times):.6g}"
                      for name, times in raw.items())
          + f"; pace factor {statistics.median(factors):.4g}"
          + f" over {len(pace.samples)} samples")
    return outcomes, _as_metrics(values, metric_units("end_to_end"))


def _per_layer(workload, seconds, spans_path):
    from tracer import EXACT_COUNTS, Tracer

    units = metric_units("per_layer")

    untraced = _repeat(workload.run, seconds / 2)
    tracers = []

    def traced_run():
        tracer = Tracer()
        with tracer.installed():
            outcome = workload.run()
        tracers.append(tracer)
        return outcome

    traced = _repeat(traced_run, seconds / 2)
    layers = [t.layer_metrics(o.recorded_newton_iters)
              for t, o in zip(tracers, traced)]
    # counts of one seed repeat exactly; a difference is a benchmark fault
    consistent = all(layer[name] == layers[0][name]
                     for layer in layers for name in EXACT_COUNTS)
    values = {name: (statistics.median(layer[name] for layer in layers)
                     if units[name] == "s" else layers[0][name])
              for name in layers[0]}
    values["trace_overhead"] = (statistics.median(o.wall_s for o in traced)
                                / statistics.median(o.wall_s for o in untraced))

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="ascii") as fh:
        fh.write("instance,index,name,start,end,parent\n")
        for instance, tracer in enumerate(tracers):
            tracer.write_spans(fh, instance)

    return untraced + traced, _as_metrics(values, units), consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "escher" / "__init__.py").is_file():
        print(f"perfbench: no escher sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload, args.seed, OUTDIR)
    if args.trace:
        spans = OUTDIR / f"spans-{args.workload}-seed{args.seed}.csv"
        outcomes, metrics, consistent = _per_layer(workload, args.seconds,
                                                   spans)
    else:
        outcomes, metrics = _end_to_end(workload, args.seconds)
        consistent = True
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": sum(o.attempted for o in outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
