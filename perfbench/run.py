#!/usr/bin/env python3
"""mtlmolnet benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is a JSON report with the environment, the sample counts and any failed
check. With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from a traced run that repeats the untraced run's work. The exit
code is 0 when every check passes, 1 when one fails and 2 when the
package cannot be found. See ``perfbench/README.md`` for the workloads and
the meaning of each metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_tmp"

SETUP_REPS = 5
MIN_TIMED_SAMPLES = 100  # p90 with at least ten samples beyond it
MIN_SELF_SUM_FRAC = 0.9


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import importlib.metadata
    import importlib.util
    import platform

    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": None,
        "numba_fallback": None,
        "git_sha": None,
    }
    try:
        from mtlmolnet import _kernels
    except ImportError:
        pass
    else:
        if hasattr(_kernels, "backend_name"):
            env["kernel_backend"] = _kernels.backend_name()
        if hasattr(_kernels, "_HAS_NUMBA"):
            env["numba_fallback"] = not _kernels._HAS_NUMBA
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        env["git_sha"] = proc.stdout.strip() or None
    return env


def measure(workload, seconds):
    """Untraced run: the loop, with set-up timed SETUP_REPS times in it.

    This machine's speed drifts by tens of percent over seconds, so set-up
    is timed at points spread over the loop rather than all at the start.
    A train workload also sets up once, untimed, before the loop to get its
    table.
    """
    if workload.SETUP_IN_PROCESS:
        workload.setup()
    _, setup_times = workload.run(seconds, min_samples=MIN_TIMED_SAMPLES, setups=SETUP_REPS)
    workload.probe()
    values = workload.metrics()
    values["setup_s"] = statistics.median(setup_times)
    return values, [], None


def measure_traced(workload, seconds):
    """Untraced pass for half the time, then the same work traced.

    One unit runs first, untimed, so that neither pass pays for first-call
    costs that the other does not.
    """
    from tracer import Tracer

    if workload.SETUP_IN_PROCESS:
        workload.setup()
    workload.run(units=1)
    t0 = time.perf_counter()
    if workload.SETUP_IN_PROCESS:
        workload.setup()
    units, _ = workload.run(seconds / 2)
    workload.probe()
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    tracer.enter(Tracer.ROOT)
    t0 = time.perf_counter()
    try:
        if workload.SETUP_IN_PROCESS:
            workload.setup()
        workload.run(units=units)
        workload.probe()
    finally:
        traced = time.perf_counter() - t0
        tracer.exit()
        tracer.uninstall()

    layer_sum = tracer.layer_self_sum()
    self_sum_frac = layer_sum / (layer_sum + tracer.self_s[Tracer.ROOT])
    values = {
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead": traced / untraced,
        "trace.self_sum_frac": self_sum_frac,
        "trace.hooks_absent": len(tracer.absent),
    }
    failures = []
    if not MIN_SELF_SUM_FRAC <= self_sum_frac <= 1.0 + 1e-9:
        failures.append(f"layer self times cover {self_sum_frac:.3f} of the traced wall time")
    return values, failures, tracer


def run(name, seed, seconds, trace, env):
    import workloads

    spec = json.loads(SPEC_PATH.read_text())
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, env)
        try:
            values, failures, tracer = (measure_traced if trace else measure)(workload, seconds)
            failures += workload.check()
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values[m["name"]] if m["name"] in values else tracer.value(m["name"])
        if not math.isfinite(value):
            failures.append(f"metric {m['name']} is not finite")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": workload.samples(), "failures": failures,
    }
    if tracer is not None:
        report["absent_hooks"] = tracer.absent
        report["absent_metrics"] = [m["name"] for m in spec["per_layer"]
                                    if tracer.is_absent(m["name"])]
    result = {"correct": not failures, "attempted": workload.attempted(),
              "failed": workload.failed(), "metrics": metrics}
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["train-paper", "train-small", "predict-screen"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mtlmolnet" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: {SRC / 'mtlmolnet'} or {SPEC_PATH} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtlmolnet

    if Path(mtlmolnet.__file__).resolve().parent != (SRC / "mtlmolnet").resolve():
        print(f"error: imported mtlmolnet from {mtlmolnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # child processes import the same sources
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    result, report = run(args.workload, args.seed, args.seconds, args.trace, env)
    report["environment"] = environment()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
