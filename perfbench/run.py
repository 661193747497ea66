#!/usr/bin/env python3
"""Benchmark of actrate: four seeded workloads over solver, model/kernel and sim.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0

The workloads are defined in ``workloads.py``: sweep-binary, sweep-small,
lossy-table and sim-campaign. A run repeats passes of its workload until
the next pass would end after ``--seconds``. It makes at least one pass,
or two with ``--trace 1``. The program is imported from ``src/`` of the
checkout. Without it the run exits with code 2 and prints no result.

With ``--trace 0`` the result carries the end-to-end metrics:

    setup_s        median time to start Python and import actrate in a fresh
                   process, plus median time to generate the first pass's inputs
    wall_s         median over passes of the time spent in the timed calls
    query_p50_ms   median latency of one query. sweep-small: one budget
                   answered in both modes. sweep-binary: the whole budget list
                   on both specs. lossy-table: one solve_lossy_causal.
                   sim-campaign: one run_campaign.
    query_tail_ms  the workload's tail percentile of the same samples
    peak_rss_mb    ru_maxrss of this process
    rate_sum       sum of every feasible rate the first pass reports, bound
                   values included; it repeats exactly for a seed

Times are scaled to a reference machine speed (see ``tracer.speed_sample``):
each is multiplied by REFERENCE_S over the median time of a fixed numpy
kernel sampled during the same pass (or the set-up). The unscaled figures
are printed too.

With ``--trace 1``, passes alternate untraced and traced. Spans of the
traced passes give the per-layer metrics and are written to ``.bench_out/``.
Human-readable ``#`` lines come first. The last line of standard output is
the JSON result; the full record, with environment and sizes, also goes to
``.bench_out/``.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import REFERENCE_S, Tracer, speed_sample

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "peak_rss_mb": "MB", "rate_sum": "bits",
}
LAYER_UNITS = {
    "solver.sweep_noncausal_s": "s", "solver.sweep_causal_s": "s", "solver.sweeps": "count",
    "solver.query_s": "s", "solver.queries": "count",
    "solver.lossy_causal_s": "s", "solver.lossy_causal_calls": "count",
    "solver.bounds_s": "s", "solver.bounds_calls": "count",
    "model.assemble_us": "us", "model.reevals": "count", "kernel.objective_us": "us",
    "sim.binning_s": "s", "sim.timeshare_s": "s", "sim.covering_s": "s",
    "sim.trials": "count", "sim.scan_seqs_per_s": "1/s",
    "binary.reference_s": "s", "binary.gap_max": "bits",
    "solver.self_s": "s", "model.self_s": "s", "kernel.self_s": "s", "sim.self_s": "s",
    "binary.self_s": "s", "bench.self_s": "s",
    "bench.traced_passes": "count", "bench.speed_factor": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import actrate from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "actrate" / "__init__.py").is_file():
        fail(f"{SRC / 'actrate'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import actrate

    if Path(actrate.__file__).resolve().parent != SRC / "actrate":
        fail(f"actrate was imported from {actrate.__file__}")


def setup_seconds(workload, seed):
    """Raw set-up seconds and the speed samples taken around them.

    Set-up is a fresh interpreter importing actrate plus generating the
    first pass's inputs; each is repeated and its median taken.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import actrate"
    imports, inputs, speed = [], [], []
    speed_sample()  # first use pays for page faults
    for _ in range(SETUP_REPEATS):
        speed.append(speed_sample())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        imports.append(time.perf_counter() - t0)
        speed.append(speed_sample())
        t0 = time.perf_counter()
        workload.inputs(seed, 0)
        inputs.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(inputs), speed


def blas_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))  # already loaded by numpy: the same handle
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "library": libs[0].name if libs else None, "threads": threads}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed):
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "commit": git_commit(),
            "machine": platform.machine(), "seed": seed}


def measure(workload, run, seed, seconds, trace):
    """Run passes until the next would end past ``seconds``; return pass records."""
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        units = workload.inputs(seed, k)
        run.start_pass(k)
        run.tracer.recording = bool(trace) and k % 2 == 1
        t0 = time.perf_counter()
        workload.run_pass(run, units)
        run.sample_speed(force=True)
        speed = statistics.median(run.speed[k])
        passes.append({"wall_s": run.pass_wall, "traced": run.tracer.recording,
                       "speed_s": speed, "factor": REFERENCE_S / speed,
                       "speed_samples": len(run.speed[k]),
                       "elapsed_s": time.perf_counter() - t0})
        run.tracer.recording = False
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + passes[-1]["elapsed_s"] > seconds:
            return passes


def end_to_end(workload, run, passes, setup_s):
    """End-to-end metrics; times are scaled by their pass's speed factor."""
    queries = [ms * passes[k]["factor"] for k, ms in run.query_ms]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] * p["factor"] for p in passes),
        "query_p50_ms": statistics.median(queries),
        "query_tail_ms": float(np.percentile(queries, workload.tail_pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rate_sum": run.rate_sum,
    }


def per_layer(run, passes):
    """Per-layer metrics from the traced passes, scaled by their speed factor."""
    spans = run.tracer.by_name()
    factor = statistics.median(p["factor"] for p in passes if p["traced"])

    def total(name):
        return spans.get(name, (0, 0.0, []))[1] * factor

    def count(name):
        return spans.get(name, (0, 0.0, []))[0]

    def median_us(name):
        durations = spans.get(name, (0, 0.0, []))[2]
        return statistics.median(durations) * 1e6 * factor if durations else 0.0

    traced = [p["wall_s"] * p["factor"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] * p["factor"] for p in passes if not p["traced"]]
    scan_s = total("sim.binning") + total("sim.timeshare")
    out = {
        "solver.sweep_noncausal_s": total("solver.sweep_noncausal"),
        "solver.sweep_causal_s": total("solver.sweep_causal"),
        "solver.sweeps": count("solver.sweep_noncausal") + count("solver.sweep_causal"),
        "solver.query_s": total("solver.query"),
        "solver.queries": count("solver.query"),
        "solver.lossy_causal_s": total("solver.lossy_causal"),
        "solver.lossy_causal_calls": count("solver.lossy_causal"),
        "solver.bounds_s": total("solver.bounds"),
        "solver.bounds_calls": count("solver.bounds"),
        "model.assemble_us": median_us("model.assemble"),
        "model.reevals": count("model.assemble"),
        "kernel.objective_us": median_us("kernel.objective"),
        "sim.binning_s": total("sim.binning"),
        "sim.timeshare_s": total("sim.timeshare"),
        "sim.covering_s": total("sim.covering"),
        "sim.trials": run.traced_trials,
        "sim.scan_seqs_per_s": run.traced_scan_seqs / scan_s if scan_s else 0.0,
        "binary.reference_s": total("binary.reference"),
        "binary.gap_max": run.gap_max if math.isfinite(run.gap_max) else 0.0,
    }
    layers = run.tracer.layer_self_seconds()
    for layer in ("solver", "model", "kernel", "sim", "binary", "bench"):
        out[f"{layer}.self_s"] = layers.get(layer, 0.0) * factor
    out["bench.traced_passes"] = len(traced)
    out["bench.speed_factor"] = factor
    out["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    return out


def measure_and_report(workload, seed, seconds, trace, out_dir=OUT):
    """Measure one workload, print its result and return its full record."""
    import workloads

    raw_setup_s, setup_speed = setup_seconds(workload, seed)
    setup_factor = REFERENCE_S / statistics.median(setup_speed)
    run = workloads.Run(Tracer())
    passes = measure(workload, run, seed, seconds, trace)
    if trace:
        values, units = per_layer(run, passes), LAYER_UNITS
    else:
        values, units = end_to_end(workload, run, passes, raw_setup_s * setup_factor), E2E_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    raw_ms = [ms for _, ms in run.query_ms]
    raw = {"setup_s": raw_setup_s,
           "wall_s": statistics.median(p["wall_s"] for p in passes),
           "query_p50_ms": statistics.median(raw_ms) if raw_ms else None}

    print(f"# workload {workload.name} seed {seed} trace {trace}: {len(passes)} passes, "
          f"{len(raw_ms)} query samples, tail = p{workload.tail_pct}")
    print(f"# attempted {run.attempted} failed {run.failed} "
          f"failed_frac {run.failed / max(run.attempted, 1):.6g}")
    print("# speed factors (reference / measured): setup "
          f"{setup_factor:.4f}, passes " + " ".join(f"{p['factor']:.4f}" for p in passes))
    print("# unscaled: " + " ".join(f"{k} {v!r}" for k, v in raw.items()))
    if run.below_grid_dual:
        print(f"# {run.below_grid_dual} refined answers fell below the grid's dual bound")
    if math.isfinite(run.gap_max):
        print(f"# gap_max {run.gap_max!r} bits (first pass, vs closed forms)")
    for line in run.failures[:20]:
        print(f"# FAILED {line}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")

    record = {"workload": workload.name, "why": workload.why, "sizes": workload.sizes(),
              "environment": environment(seed), "seconds": seconds, "trace": trace,
              "passes": passes, "query_samples": len(raw_ms), "tail_pct": workload.tail_pct,
              "setup_factor": setup_factor, "unscaled": raw,
              "gap_max": run.gap_max if math.isfinite(run.gap_max) else None,
              "below_grid_dual": run.below_grid_dual, "failures": run.failures, **result}
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{workload.name}-seed{seed}-trace{trace}"
        with open(f"{stem}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        if trace:
            run.tracer.dump(f"{stem}-spans.json")
    print(json.dumps(result))
    return record


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    measure_and_report(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                       args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
