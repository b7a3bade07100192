"""coldstore benchmark: time three scenario workloads and check their results.

Usage (from any directory):

    python3 perfbench/run.py --workload sweep|sector|algebra|all --seed N
                             [--seconds S] [--trace 0|1] [--out DIR]

Every pass of a workload runs in a fresh interpreter (``worker.py``), one at
a time, with BLAS at its default thread count.  Passes repeat until the next
one would end after ``--seconds``, and at least ``MIN_PASSES`` run.  Between
passes the runner also starts set-up probes: fresh interpreters that import
coldstore, validate every config and stop before the first scenario call.

With ``--trace 0`` the end-to-end metrics are reported:

``wall_s``       one full pass over the workload's runs, the time to a
                 verified result, at the best speed the host gave each part
                 of the pass during the run: ``progress.fastest_pass`` over
                 the run's passes, each cut at its progress marks.  The
                 median pass is recorded and printed beside it.
``setup_s``      interpreter start to the first scenario call: importing
                 coldstore and validating every run's config.  The median
                 over the run's set-up samples.
``peak_rss_mb``  peak resident memory of a fresh process running one pass.
                 The median over the run's passes.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of ``tracer.LAYER_METRICS`` are reported as medians over the traced
passes, together with the tracing overhead (the median traced pass minus
the median untraced pass).

Every check of every run must pass, and the headline values listed in
``references.json`` must match at their stored tolerance.  Failures and
mismatches over checks and references attempted give
``checks_failed_ratio``.  Any failure makes the exit code 1.

The full record of a run (environment, exact configs and seed, every sample
and every failure) is written as JSON under ``--out`` (default
``perfbench/results``); spans of traced passes go to ``spans/`` beside it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import progress
import summary
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")

MIN_PASSES = 3            # untraced passes of a --trace 0 run
SETUP_PROBES = 16         # extra set-up-only processes per run
CHILD_TIMEOUT_S = 150.0   # one pass; a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def source_digest() -> str:
    """SHA-256 over the package sources, to tell two commits apart."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "coldstore")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spawn(workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """Run one worker process; return its record and its set-up seconds."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), *flags]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(flags)} on {workload} did not "
                         f"finish within {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker on {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker on {workload} printed no record")
    record = json.loads(lines[-1])
    return record, record["first_call"] - started


def load_references(workload: str) -> list[dict]:
    with open(REFERENCES) as fh:
        return json.load(fh)["workloads"].get(workload, [])


def grade(record: dict, references: list[dict]) -> tuple[int, list[str]]:
    """(checks and references attempted, descriptions of each failure)."""
    failures = []
    values = {}
    attempted = 0
    for run in record["runs"]:
        for name, passed, actual in run["checks"]:
            attempted += 1
            values[(run["scenario"], name)] = actual
            if not passed:
                failures.append(f"{run['scenario']}: check failed: {name} "
                                f"(actual {actual})")
    for ref in references:
        attempted += 1
        key = (ref["scenario"], ref["check"])
        actual = values.get(key)
        if not isinstance(actual, (int, float)):
            failures.append(f"{key[0]}: reference check missing or not a "
                            f"number: {key[1]}")
        elif abs(actual - ref["value"]) > ref["tolerance"]:
            failures.append(f"{key[0]}: {key[1]} = {actual!r}, reference "
                            f"{ref['value']!r} +- {ref['tolerance']:g}")
    return attempted, failures


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spans_stem: str) -> dict:
    """All passes and set-up probes of one run of one workload."""
    references = load_references(workload)
    env_record, _ = spawn(workload, seed, "--setup-only", "--env")
    setups: list[float] = []
    passes: list[dict] = []
    stretches: list[list] = []   # of each untraced pass
    started = time.monotonic()
    longest = 0.0
    probes_left = SETUP_PROBES
    # A traced run alternates untraced and traced passes, at least one each.
    min_passes = 2 if trace else MIN_PASSES
    while (len(passes) < min_passes
           or time.monotonic() - started + longest <= seconds):
        if probes_left:
            probes_left -= 1
            _, setup = spawn(workload, seed, "--setup-only")
            setups.append(setup)
        traced = trace and len(passes) % 2 == 1
        flags = []
        if traced:
            flags = ["--trace", "--spans-out",
                     f"{spans_stem}-pass{len(passes)}.csv.gz"]
        t = time.monotonic()
        record, setup = spawn(workload, seed, *flags)
        longest = max(longest, time.monotonic() - t)
        attempted, failures = grade(record, references)
        if not traced:
            setups.append(setup)
            stretches.append(record["stretches"])
        passes.append({
            "traced": traced,
            "wall_s": record["wall_s"],
            "setup_s": setup,
            "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
            "stretches": len(record.get("stretches") or ()),
            "attempted": attempted,
            "failures": failures,
            "layers": record.get("layers"),
            "spans": record.get("spans"),
        })
    for _ in range(probes_left):
        _, setup = spawn(workload, seed, "--setup-only")
        setups.append(setup)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    stats = {
        "wall_s": summary.describe(p["wall_s"] for p in untraced),
        "setup_s": summary.describe(setups),
        "peak_rss_mb": summary.describe(p["peak_rss_mb"] for p in untraced),
    }
    for name, unit in END_TO_END_UNITS.items():
        stats[name]["unit"] = unit
        stats[name]["value"] = stats[name]["median"]
    stats["wall_s"]["value"] = progress.fastest_pass(stretches)
    out = {
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "checks_failed_ratio": failed / attempted,
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "passes": passes,
        "setup_samples": setups,
        "env": env_record["env"],
    }
    if trace:
        import tracer
        layer_stats = {}
        for name, (unit, _get) in tracer.LAYER_METRICS.items():
            layer_stats[name] = summary.describe(
                p["layers"][name] for p in traced)
            layer_stats[name]["unit"] = unit
        traced_wall = summary.describe(p["wall_s"] for p in traced)
        layer_stats["trace.overhead_s"] = {
            "median": traced_wall["median"] - stats["wall_s"]["median"],
            "unit": "s"}
        layer_stats["trace.spans"] = summary.describe(
            p["spans"] for p in traced)
        layer_stats["trace.spans"]["unit"] = "count"
        out["layer_stats"] = layer_stats
        out["counts_repeat"] = all(
            p["layers"][name] == traced[0]["layers"][name]
            for p in traced for name, (unit, _g) in tracer.LAYER_METRICS.items()
            if unit in ("count", "B"))
    return out


def run_workload(workload: str, args, out_dir: str) -> dict:
    stamp = datetime.datetime.now(datetime.timezone.utc)
    stem = (f"{workload}-seed{args.seed}-trace{args.trace}-"
            f"{stamp.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans_dir = os.path.join(out_dir, "spans")
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     os.path.join(spans_dir, stem))
    record = {
        "workload": workload,
        "why": workloads.WORKLOADS[workload]["why"],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_utc": stamp.isoformat(),
        "started_unix": stamp.timestamp(),
        "source_digest": source_digest(),
        "runs": [[s, cfg] for s, cfg in workloads.generate(workload,
                                                          args.seed)],
        **result,
    }
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    record["path"] = path
    return record


def print_summary(record: dict) -> None:
    ok = "correct" if not record["failed"] else "FAILED"
    n_passes = len(record["passes"])
    print(f"workload {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {n_passes} passes, {ok}")
    for name, st in record["stats"].items():
        extra = ""
        if st["tail_percentile"] is not None:
            extra = (f", p{st['tail_percentile']:.0f} "
                     f"{st['tail_value']:.6g}")
        if st["value"] != st["median"]:
            extra = f", median {st['median']:.6g}" + extra
        print(f"  {name:<20} {st['value']:.6g} {st['unit']} "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}{extra}, n={st['n']})")
    print(f"  {'checks_failed_ratio':<20} {record['checks_failed_ratio']:.6g} "
          f"ratio ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAIL {failure}")
    for name, st in record.get("layer_stats", {}).items():
        print(f"  {name:<28} {st['median']:.6g} {st['unit']}")
    if record.get("counts_repeat") is False:
        print("  WARNING: exact counts differ between traced passes")
    print(f"  environment: python {record['env']['python']}, numpy "
          f"{record['env']['numpy']}, BLAS threads "
          f"{record['env']['blas_threads']}, nproc {record['env']['nproc']}")
    print(f"  record: {os.path.relpath(record['path'], ROOT)}")


def metrics_of(record: dict) -> dict:
    if record["trace"]:
        return {name: {"value": st["median"], "unit": st["unit"]}
                for name, st in record["layer_stats"].items()}
    return {name: {"value": st["value"], "unit": st["unit"]}
            for name, st in record["stats"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time coldstore's benchmark workloads and check results.")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "coldstore", "__init__.py")):
        print(f"error: no coldstore sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        records = [run_workload(name, args, args.out) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_summary(record)

    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": (metrics_of(records[0]) if len(records) == 1 else
                    {f"{r['workload']}.{name}": value
                     for r in records for name, value in metrics_of(r).items()}),
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
