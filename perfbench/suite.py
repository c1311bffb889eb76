"""Run benchmark workloads over several seeds and summarise every metric.

    python3 perfbench/suite.py [--workloads NAME,NAME] [--seeds 10]
                               [--first-seed 1] [--seconds S] [--trace]
                               [--out results.json]

The defaults are every workload of ``BENCHMARK.json`` and its run_seconds.
Every run is a fresh ``perfbench/run.py`` process, one seed after another.
The report names the machine and library versions, then for each workload
and metric prints the unit, the sample count, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread:
the quartile distance as a share of the median.  ``--trace`` summarises
the per-layer metrics of traced runs instead of the end-to-end ones.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from run import ROOT, THREAD_VARS

RUN_TIMEOUT_S = 900


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: "1" for var in THREAD_VARS},
    }


def summarise(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def run_one(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    report = {"environment": env, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_one(workload, seed, args.seconds, args.trace)
                   for seed in range(args.first_seed,
                                     args.first_seed + args.seeds)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct}, "
              f"failed {failed} of {attempted} checked operations")
        print(f"  {'metric':28s} {'unit':>10s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s}")
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarise(values)
            metrics[name] = {"unit": first["unit"], "values": values, **stats}
            print(f"  {name:28s} {first['unit']:>10s} {stats['n']:3d} "
                  f"{stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['spread']:7.3f}")
        report["workloads"][workload] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
