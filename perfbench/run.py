"""Benchmark of the radarnet pipeline, from beat signal to vehicle label.

One workload, in this process:

    python3 perfbench/run.py --workload train-mini --seed 1 --seconds 14 --trace 0

All four workloads, each in its own process, one after the other:

    python3 perfbench/run.py --seed 1

Run from anywhere; the package is imported from the src/ directory beside
perfbench/, never from an installed copy.  A run sets up its workload
SETUP_REPS times, runs operations after each set-up until --seconds of them
are measured in all, checks every operation's output and prints, as its last
line, one JSON object with correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, their timings scaled to
the reference host speed of hostspeed.py, or the per-module metrics with
--trace 1.  The lines before it show the same figures by the names a user
of the command line would look for, with unit and sample count.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-mini", "train-full", "predict-signal", "generate-desk")
SETUP_REPS = 3
# End-to-end metrics, every one reported by every workload; see README.md.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, default=1, help="seed the inputs are made from")
    p.add_argument("--seconds", type=float, default=14.0, help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-module metrics from a traced run")
    return p.parse_args(argv)


def environment(nproc, seed) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": nproc,
        "seed": seed,
    }


class Measurement:
    """Operation durations and outcome counts of one run."""

    def __init__(self, speed=None):
        self.plain, self.traced = [], []
        self.attempted = self.failed = 0
        self.raised = False
        self.speed = speed      # a hostspeed.HostSpeed, or None

    def elapsed(self, fn, *args):
        """fn(*args) and its wall time, less the time the host-speed
        sampler took meanwhile."""
        spent = self.speed.spent_s if self.speed else 0.0
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        return result, seconds - ((self.speed.spent_s - spent) if self.speed else 0.0)

    def loop(self, wl, state, durations, until_s, min_ops, tracer=None):
        """Run operations until `durations` sums to until_s seconds and holds
        min_ops entries.  An operation that raises is a failure and ends the
        run."""
        while not self.raised and (sum(durations) < until_s or len(durations) < min_ops):
            i = self.attempted
            self.attempted += 1
            try:
                if tracer is not None:
                    tracer.enabled = True
                result, seconds = self.elapsed(wl.op, state, i)
                durations.append(seconds)
                if tracer is not None:
                    tracer.enabled = False
                self.failed += not wl.check(state, result)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                self.raised = True
            finally:
                if tracer is not None:
                    tracer.enabled = False


def measure(wl, args, work, tracer, speed):
    """Set up SETUP_REPS times and, after each set-up, measure operations up
    to that set-up's share of --seconds, so the measured operations spread
    over the whole run rather than one stretch of it; the host's speed drifts
    over seconds.  A traced run measures half of each share untraced and half
    traced.  Returns (set-up times, Measurement)."""
    setup_times, m = [], Measurement(speed)
    for rep in range(1, SETUP_REPS + 1):
        state = None
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        state, seconds = m.elapsed(wl.setup, args.seed, work)
        setup_times.append(seconds)
        share = args.seconds * rep / SETUP_REPS
        last = rep == SETUP_REPS
        if tracer is None:
            m.loop(wl, state, m.plain, share, wl.min_ops if last else 0)
        else:
            m.loop(wl, state, m.plain, share / 2, 1 if last else 0)
            m.loop(wl, state, m.traced, share / 2,
                   max(1, wl.min_ops - len(m.plain)) if last else 0, tracer)
    return setup_times, m


def run_one(args) -> int:
    t_start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "radarnet" / "__init__.py").is_file():
        print(f"error: no radarnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import radarnet

    if Path(radarnet.__file__).resolve().parent != SRC / "radarnet":
        print(f"error: radarnet imported from {radarnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import metrics
    import tracer as tracer_mod
    import workloads

    import_s = time.perf_counter() - t_start
    wl = workloads.WORKLOADS[args.workload]()
    print("env " + json.dumps(environment(nproc, args.seed), sort_keys=True))
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracer_mod.Tracer() if args.trace else None
    # The end-to-end run samples the host's speed.  The traced run does not:
    # its spans would count the sampler's time.
    speed = None if tracer else hostspeed.HostSpeed()
    try:
        if tracer is not None:
            tracer.install(radarnet)
        else:
            speed.start()
        setup_times, m = measure(wl, args, work, tracer, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            speed.stop()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if not m.plain or (tracer is not None and not m.traced):
        print("error: no operation completed", file=sys.stderr)
        return 1

    if tracer is not None:
        overhead = metrics.median(m.traced) / metrics.median(m.plain) - 1.0
        out = tracer_mod.per_layer_metrics(tracer.spans, len(m.traced), sum(m.traced), overhead)
        lines = [(k, v["value"], v["unit"], len(m.traced)) for k, v in out.items()]
    else:
        rep = wl.report(m.plain)
        setup_s = import_s + metrics.median(setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        slow = hostspeed.slowness(speed.kernel_times)
        # BENCHMARK.json's timings are at the reference host speed; the lines
        # show them as measured
        values = {"setup_s": setup_s / slow, "op_p50_ms": 1e3 * metrics.median(m.plain) / slow,
                  "samples_per_s": rep["samples_per_s"][1] * slow, "peak_rss_mb": peak_rss_mb}
        out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        lines = ([("setup_s", setup_s, "s", SETUP_REPS), rep["op"], rep["samples_per_s"]]
                 + rep["extra"] + [("peak_rss_mb", peak_rss_mb, "MB", 1),
                                   ("host_slowness", slow, "ratio", len(speed.kernel_times))]
                 + [(f"{name}@reference", values[name], unit, n) for name, unit, n in (
                     ("setup_s", "s", SETUP_REPS), ("op_p50_ms", "ms", rep["op"][3]),
                     ("samples_per_s", "1/s", rep["samples_per_s"][3]))])
    lines.append(("failed_frac", metrics.failed_frac(m.failed, m.attempted), "ratio", m.attempted))
    for name, value, unit, n in lines:
        print(f"{args.workload:<15} {name:<40} {value:>14.6g} {unit:<8} n={n}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line maps workload to result."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        status = status or int(not results[name]["correct"])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
