"""grassmann-stream benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
BLAS is pinned to one thread and the process to one CPU. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics from
a traced run instead. The lines before it record the machine and a
readable table. Workloads, metrics and the expected links between them
are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 11
SETUP_PROBE_TIMEOUT_S = 60
# Reference-kernel runs per probe that measure the machine's speed.
SETUP_PROBE_KERNELS = 4
# Imports the package, makes one short call at the workload's shape and
# prints the seconds since argv[4], a time.monotonic() reading taken by
# the parent just before the start (CLOCK_MONOTONIC is system-wide), then
# the machine's slowdown measured by the workload's reference kernel
# right after. The child times itself because a parent waiting with a
# timeout polls.
_SETUP_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "w = workloads.WORKLOADS[sys.argv[3]]; w.warm_up(); "
    "setup = time.monotonic() - float(sys.argv[4]); "
    "print(setup, w.reference.slowdown([w.reference.time() for _ in range(int(sys.argv[5]))]))"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import and warm up, one per probe.

    Returns the wall seconds and the same at nominal machine speed.
    """
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(HERE), str(SRC), workload]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            cmd + [repr(time.monotonic()), str(SETUP_PROBE_KERNELS)], check=True,
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
        )
        seconds, slowdown = map(float, probe.stdout.split()[-2:])
        wall.append(seconds)
        scaled.append(seconds / slowdown)
    return wall, scaled


def _openblas_runtime() -> dict:
    """OpenBLAS's own report of its build and thread count, when it is found."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype, config.argtypes = ctypes.c_char_p, []
            threads.restype, threads.argtypes = ctypes.c_int, []
            return {"blas_runtime": config().decode(), "blas_threads": threads()}
    return {"blas_runtime": None, "blas_threads": None}


def machine() -> dict:
    """The machine and the numerical stack this run measured."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        **_openblas_runtime(),
        "blas_threads_pinned": BLAS_THREADS,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(statistic: str, values: list[float]) -> str:
    if not values:
        return "no samples"
    return f"{statistic} of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grassmann_stream" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for the trials, the reference kernel and the set-up probes:
    # the vCPUs slow down at different times, and the kernel only tracks
    # the speed of the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    import workloads
    from tracing import layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_wall, setup = ([], []) if args.trace else setup_seconds(args.workload)
    workload.warm_up()
    workload.reference.time()
    result = workloads.measure(workload, args.seed, args.seconds, bool(args.trace))
    failed = len(result.failures)

    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{result.attempted} trials, {failed} failed")
    for failure in result.failures:
        print(f"  FAILED {failure}")
    steps = sum(result.steps)
    rows = [("failed_frac", failed / result.attempted, "fraction", "")]
    if args.trace:
        metrics = layer_metrics(result.timing, result.counts, workload.min_trials)
        untraced = steps / sum(result.trial_s) if steps else 0.0
        traced = steps / sum(result.traced_trial_s) if steps else 0.0
        metrics["trace.untraced_steps_per_s"] = (untraced, "1/s")
        metrics["trace.traced_steps_per_s"] = (traced, "1/s")
        metrics["trace.overhead_pct"] = (
            100.0 * (1.0 - traced / untraced) if steps else 0.0, "%")
        rows += [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    else:
        # Each trial's time scaled to the nominal machine speed measured
        # around it (see reference.py); medians over the trials.
        rates = [n / t * slow for n, t, slow in
                 zip(result.steps, result.trial_s, result.slowdown)]
        scaled_s = [t / slow for t, slow in zip(result.trial_s, result.slowdown)]
        wall_rate = steps / sum(result.trial_s) if steps else 0.0
        metrics = {
            "steps_per_s": (_median(rates), "1/s"),
            "time_to_target_s": (_median(scaled_s), "s"),
            "setup_s": (statistics.median(setup), "s"),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        notes = {
            "steps_per_s": f"wall {wall_rate:.6g}; {steps} steps; "
                           + _spread("median", rates),
            "time_to_target_s": f"wall {_median(result.trial_s):.6g}; "
                                + _spread("median", scaled_s),
            "setup_s": f"wall {_median(setup_wall):.6g}; " + _spread("median", setup),
        }
        rows += [(name, value, unit, notes.get(name, ""))
                 for name, (value, unit) in metrics.items()]
        rows.append(("machine_slowdown", _median(result.slowdown), "x",
                     f"reference kernel time / nominal; {result.reference_runs} kernel runs, "
                     + _spread("median", result.slowdown)))
    for name, value, unit, note in rows:
        print(f"  {name:40s} {value:16.6f} {unit:14s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
