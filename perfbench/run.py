"""Benchmark of the flowforce CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk-water --seed 0 --seconds 28 --trace 0

The benchmark writes seeded INI configs (and, for fine-audit, a branch
file) under .perfbench_work/, drives flowforce.cli.main in this one
process for --seconds, checks every output, and deletes its files.
With --trace 0 it reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it runs the workload untraced for half
the time and traced for the other half and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it record
the environment and a per-command report.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: with the default two, repeated validate steps spread
# by about 50%; with one they stay within a few percent.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reported times are in seconds of a machine that runs calibrate() in
# this many seconds (a 2-core Xeon VM with numpy 2.4 takes 0.2-0.35 s).
CALIBRATION_REFERENCE_S = 0.25

SETUP_REPEATS = 11
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flowforce.cli
for path in sys.argv[2:]:
    flowforce.cli.load_config(path)
print(time.perf_counter() - start)
"""


def calibrate():
    """Seconds for a fixed piece of work that loads the CPU like the workloads.

    On a shared host the speed available to this process drifts by
    +-25% over minutes.  The work here mirrors the program's mix (dense
    cosine tables, a matrix product, small-array calls) without calling
    flowforce, so an iteration's time divided by the calibration around
    it tracks the program, not the host.  Its arrays stay small (2 MB),
    so it does not raise the peak memory the benchmark reports.
    """
    import numpy as np

    modes = np.arange(1, 65, dtype=float)
    x = np.linspace(0.0, 6.0, 4096)
    start = perf_counter()
    for i in range(50):
        np.cos(np.multiply.outer(x + i, modes)) @ modes
    for i in range(4000):
        np.max(np.abs(np.full(33, float(i))[1:] * 0.5))
    return perf_counter() - start


@dataclass
class Iteration:
    """One pass over the workload; `scale` converts its times to reference seconds."""

    results: list
    scale: float
    layers: dict | None = None

    @property
    def wall(self):
        return self.scale * sum(r.seconds for r in self.results)

    def command_seconds(self, command):
        return self.scale * sum(r.seconds for r in self.results if r.command == command)


def measure_setup(configs):
    """Median seconds, in fresh interpreters, to import the CLI and load the configs.

    Returns (raw median, scale to reference seconds from calibrations
    taken just before and after).  One unmeasured start first writes the
    bytecode cache, which a user pays only once per checkout.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(c.path) for c in configs]
    before = calibrate()
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    scale = CALIBRATION_REFERENCE_S / (0.5 * (before + calibrate()))
    return statistics.median(samples), scale


def run_for(run_iteration, plan, seconds, workdir, tag, tracer=None):
    """Repeat the workload until another iteration would pass `seconds`.

    Each iteration is bracketed by calibrations; their mean sets the
    iteration's scale to reference seconds.
    """
    iterations = []
    deadline = perf_counter() + seconds
    before = calibrate()
    while True:
        start = perf_counter()
        if tracer is not None:
            tracer.reset()
        results = run_iteration(plan, workdir / f"{tag}{len(iterations)}", tracer)
        after = calibrate()
        scale = CALIBRATION_REFERENCE_S / (0.5 * (before + after))
        iteration = Iteration(results, scale)
        if tracer is not None:
            iteration.layers = {
                name: value * scale if name.endswith(("_s", ".s")) else value
                for name, value in tracer.metrics().items()
            }
            iteration.layers["cli.bytes_written"] = sum(r.bytes_written for r in results)
        iterations.append(iteration)
        before = after
        if perf_counter() + (perf_counter() - start) > deadline:
            return iterations


def median_of(values):
    return statistics.median(values) if values else 0.0


def environment(args, iterations):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(iterations),
        "calibration_s": median_of([CALIBRATION_REFERENCE_S / it.scale for it in iterations]),
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
    }


def command_report(iterations, neglog10):
    """Per-command medians and accuracy figures that not every workload has."""
    report = {"raw_wall_s": {
        "value": median_of([it.wall / it.scale for it in iterations]), "unit": "s"}}
    for command in ("branch", "validate", "reconstruct"):
        if any(r.command == command for r in iterations[0].results):
            report[f"{command}_s"] = {
                "value": median_of([it.command_seconds(command) for it in iterations]),
                "unit": "s"}
    balances = [r.force_balance for it in iterations for r in it.results
                if r.force_balance is not None]
    if balances:
        report["force_balance_fine_max_log10"] = {
            "value": -neglog10(max(balances)), "unit": "decades"}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "flowforce" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no flowforce sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so set it before the
    # imports below
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    calibrate()  # the first call pays numpy's lazy start-up; not a sample
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        plan = workloads.prepare(args.workload, args.seed, workdir)
        if args.trace:
            half = args.seconds / 2.0
            plain = run_for(workloads.run_iteration, plan, half, workdir, "u")
            traced = run_for(workloads.run_iteration, plan, half, workdir, "t", Tracer())
            iterations = plain + traced
            computed = {name: median_of([it.layers[name] for it in traced])
                        for name in traced[0].layers}
            computed["trace.overhead_s"] = (
                median_of([it.wall for it in traced]) - median_of([it.wall for it in plain])
            )
            declared = spec["per_layer"]
        else:
            setup_raw, setup_scale = measure_setup(plan.configs)
            iterations = run_for(workloads.run_iteration, plan, args.seconds, workdir, "i")
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    everything = plan.setup + [r for it in iterations for r in it.results]
    attempted = len(everything)
    failed = sum(1 for r in everything if not r.ok)
    residuals = [r.residual for r in everything if r.residual is not None]
    if not args.trace:
        computed = {
            "setup_s": setup_raw * setup_scale,
            "wall_s": median_of([it.wall for it in iterations]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_fraction": 1.0 - failed / attempted,
            "residual_max_neglog10": workloads.neglog10(max(residuals)) if residuals else 0.0,
        }
    unmatched = {m["name"] for m in declared} ^ set(computed)
    if unmatched:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(unmatched)}")

    report = command_report(iterations, workloads.neglog10)
    if not args.trace:
        report["raw_setup_s"] = {"value": setup_raw, "unit": "s"}
    report["failed_fraction"] = {"value": failed / attempted, "unit": "ratio"}
    if residuals:
        report["residual_max_log10"] = {
            "value": -workloads.neglog10(max(residuals)), "unit": "decades"}
    failures = {}
    for r in everything:
        if not r.ok:
            failures.setdefault(r.label, r.failure)
    report["failed_operations"] = failures
    print("environment: " + json.dumps(environment(args, iterations), sort_keys=True))
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not any(r.wrong_output for r in everything),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
