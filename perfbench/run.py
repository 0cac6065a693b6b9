"""curvecheb benchmark: time to a verified result, and where the time goes.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload of perfbench/workloads.py as a closed loop for S
seconds (at least one job), checks every job's output, and prints every
metric by name and unit, then one JSON line as the last line of stdout:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  A results file with the run's environment goes
to .perfbench/results/.  The checkout's own src/ is benchmarked; the run
fails without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# BLAS threads are pinned before numpy loads: on two cores a second
# OpenBLAS thread did not make the Lawson solves faster.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up probes run in batches spread over the run, between jobs, and
# setup_s is their minimum.  On a shared host the machine switches
# between a fast and a slow state for tens of seconds at a time, and one
# probe took about 0.12 s in the one and 0.19 s in the other; the fastest
# probe of the run is the one least held up by the slow state.
SETUP_BATCH = 3
SETUP_BATCHES = 4


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads(np):
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    import ctypes
    for so in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        fn = getattr(ctypes.CDLL(str(so)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(np, args):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probes(config):
    """Set-up times (import, config, curve) of SETUP_BATCH fresh processes."""
    times = []
    for _ in range(SETUP_BATCH):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def median_dict(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run_job(workload, job_id, tracer, span_cost):
    """One timed job, then its output check (untimed)."""
    job = {"id": job_id}
    offset = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.job = job_id
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.job") if tracer else contextlib.nullcontext():
            out = workload.run()
        job["seconds"] = time.perf_counter() - t0
        job["problems"] = workload.check(out)
        if not job["problems"]:
            job["quality"] = workload.quality(out)
    except Exception:
        job.setdefault("seconds", time.perf_counter() - t0)
        job["problems"] = [traceback.format_exc()]
    if tracer:
        job["layers"] = spans.job_metrics(tracer.spans[offset:], offset,
                                          job["seconds"], span_cost)
    for msg in job["problems"]:
        print(f"job {job_id} failed: {msg}", file=sys.stderr)
    return job


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "curvecheb" / "__init__.py").is_file():
        print(f"error: no curvecheb sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np
    import curvecheb
    from workloads import WORKLOADS  # imports every module the tracer patches

    if Path(curvecheb.__file__).resolve().parent != SRC / "curvecheb":
        print(f"error: imported curvecheb from {curvecheb.__file__}", file=sys.stderr)
        return 2

    env = environment(np, args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir, args.seed)

    setup_times = []
    tracer = spans.Tracer() if args.trace else None
    span_cost = spans.span_cost_s() if args.trace else 0.0

    jobs = []
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < args.seconds:
            due = (time.perf_counter() - start) * SETUP_BATCHES / args.seconds
            if not tracer and len(setup_times) < SETUP_BATCH * min(due + 1, SETUP_BATCHES):
                setup_times += setup_probes(workload.config)
            jobs.append(run_job(workload, len(jobs), tracer, span_cost))
    finally:
        if tracer:
            tracer.uninstall()

    good = [j for j in jobs if not j["problems"]]
    failed = len(jobs) - len(good)
    # output quality is the same in both modes: it is read off the results
    quality = median_dict([j["quality"] for j in good]) if good else {}
    measured = {"jobs": len(jobs), "fail_frac": failed / len(jobs),
                "job_s_p50": statistics.median(j["seconds"] for j in jobs), **quality}
    if tracer:
        metrics_spec = spec["per_layer"]
        values = median_dict([j["layers"] for j in jobs])
        # output quality is unknown when no job passed: it is left out of
        # the result line rather than written as NaN
        if good:
            values.update({"extremal_gap": 0.0, **quality})
    else:
        metrics_spec = spec["end_to_end"]
        while len(setup_times) < SETUP_BATCH * SETUP_BATCHES:
            setup_times += setup_probes(workload.config)
        values = {
            # seconds per job over the run (inverse throughput), not the
            # median job: with few jobs in a phase the median takes the
            # speed of one phase, while the mean weighs them by time
            "job_s": statistics.fmean(j["seconds"] for j in jobs),
            "setup_s": min(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": len(good) / len(jobs),
        }

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in metrics_spec if m["name"] in values}
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs "
          f"({failed} failed), closed loop, 1 process, {BLAS_THREADS} BLAS thread")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, val in {**measured, **{k: v["value"] for k, v in metrics.items()}}.items():
        print(f"  {name:32s} {val:.6g} {units.get(name, '')}")

    record = {"env": env, "jobs": jobs, "setup_times": setup_times,
              "measured": measured, "metrics": metrics}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer:
        header = {"type": "env", **env}
        tracer.write(OUT / "results" / f"{tag}-spans.jsonl", header)
        tracer.write_solves(OUT / "results" / f"{tag}-solves.jsonl", header)

    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
