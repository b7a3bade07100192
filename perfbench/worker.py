"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N
                                   [--setup-only] [--trace] [--env]
                                   [--spans-out FILE]

Imports coldstore from the ``src`` directory of the checkout holding this
file, validates every run's config and then, unless ``--setup-only``, calls
``coldstore.harness.run`` once per run.  Prints one JSON object as its last
line of output:

``first_call``
    ``time.monotonic()`` just before the first scenario call.  The parent
    subtracts its own clock reading taken before it started this process,
    which gives the set-up time from interpreter start.
``wall_s``
    Time from the first scenario call to the end of the last.
``stretches`` (without ``--trace``)
    That time cut at the marks of ``progress.ProgressClock``.
``peak_rss_kb``
    ``ru_maxrss`` of this process, which ran nothing but this pass.
``runs``
    Per run: the scenario and every check's name, pass flag and value.
``layers`` (with ``--trace``)
    The per-layer metrics of ``tracer.LAYER_METRICS``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_coldstore():
    """Import coldstore from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import coldstore
    from coldstore import harness
    where = os.path.dirname(os.path.abspath(coldstore.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"coldstore was imported from {where}, not {SRC}")
    return harness


def _json_number(x: float):
    return x if math.isfinite(x) else repr(x)


def set_up(harness, runs) -> float:
    """Validate every run's config; return the clock at the end of set-up."""
    for scenario, cfg in runs:
        harness.validate_config(scenario, cfg)
    return time.monotonic()


def run_pass(harness, runs, tracer=None, clock=None) -> dict:
    """Set up, then run each scenario once.

    ``tracer`` (a ``tracer.Tracer``) or ``clock`` (a
    ``progress.ProgressClock``) must already be installed.
    """
    first_call = set_up(harness, runs)
    start = time.perf_counter_ns()
    reports = []
    for run_id, (scenario, cfg) in enumerate(runs):
        if tracer is not None:
            tracer.run_id = run_id
        reports.append(harness.run(scenario, cfg))
    end = time.perf_counter_ns()
    out = {
        "first_call": first_call,
        "wall_s": (end - start) * 1e-9,
        "runs": [{
            "scenario": r.scenario,
            "checks": [[c.name, c.passed, _json_number(c.actual)]
                       for c in r.checks],
        } for r in reports],
    }
    if clock is not None:
        out["stretches"] = clock.stretches(start, end)
    return out


def environment() -> dict:
    """Interpreter, numpy, BLAS threading, cores and CPU of this machine."""
    import platform
    import numpy as np

    env = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS") if k in os.environ},
        "blas_threads": _blas_threads(np),
    }
    try:  # numpy < 1.26 has no dict form of show_config
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    env["blas"] = {k: blas.get(k) for k in ("name", "version",
                                            "openblas configuration")}
    env.update(_cpu())
    return env


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if not OpenBLAS."""
    import ctypes
    import glob

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _cpu() -> dict:
    out = {"cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    out["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        entries = []
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out["caches"][f"L{level}-{kind}"] = size
    return out


def write_spans(path: str, spans) -> None:
    """All spans of a traced pass as gzipped CSV, one span a line."""
    with gzip.open(path, "wt") as fh:
        fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
        for span in spans:
            fh.write(",".join(map(str, span)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    harness = import_coldstore()
    sys.path.insert(0, HERE)
    import workloads

    runs = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        out = {"first_call": set_up(harness, runs)}
    elif args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        with tr:
            out = run_pass(harness, runs, tr)
        out["layers"] = tracing.layer_metrics(tr.spans, tr.counts)
        out["spans"] = len(tr.spans)
        if args.spans_out:
            write_spans(args.spans_out, tr.spans)
    else:
        import progress
        with progress.ProgressClock() as clock:
            out = run_pass(harness, runs, clock=clock)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.env:
        out["env"] = environment()
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
