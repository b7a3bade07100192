"""Compare the benchmark results of a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result records written by
``run.py --trace 0`` (or a single record file).  Run the two sides in
alternating order, the same number of times, with the same ``--seconds``.
Runs of each side are paired in the order they started.

Per workload and end-to-end metric this prints each side's median and
quartiles over its runs, how many pairs the change won (ties count for
neither), and a verdict:

``better``      the change won at least 9/10 of at least ten pairs and its
                median beats the parent's by more than the parent's
                interquartile range;
``regression``  the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
``worse``       as ``better`` the other way round, but within the bound;
``unresolved``  a side's interquartile range exceeds the bound (as a share
                of its median), unless every change run beats every parent
                run;
``no change``   anything else.

All metrics are better when lower.  ``checks_failed_ratio`` has bound 0:
any rise is a regression.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "checks_failed_ratio")


def load_records(path: str) -> list[dict]:
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*.json"))))
    records = []
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            records.append(record)
    return sorted(records, key=lambda r: r["started_unix"])


def metric_value(record: dict, metric: str) -> float:
    if metric == "checks_failed_ratio":
        return record["checks_failed_ratio"]
    return record["stats"][metric]["value"]


def bounds() -> dict[str, float]:
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    out = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out["checks_failed_ratio"] = 0.0
    return out


def _spread(values) -> float:
    q1, med, q3 = summary.quartiles(values)
    if med:
        return (q3 - q1) / abs(med)
    return 0.0 if q3 == q1 else float("inf")


def verdict(parent: list[float], change: list[float], bound: float) -> dict:
    """Pairwise wins and the verdict for one metric (lower is better)."""
    pairs = list(zip(parent, change))
    won = sum(c < p for p, c in pairs)
    lost = sum(c > p for p, c in pairs)
    p_q1, p_med, p_q3 = summary.quartiles(parent)
    _c_q1, c_med, _c_q3 = summary.quartiles(change)
    p_iqr = p_q3 - p_q1
    enough = len(pairs) >= 10
    if max(_spread(parent), _spread(change)) > bound:
        text = ("better" if max(change) < min(parent) else "unresolved")
    elif enough and won >= 0.9 * len(pairs) and p_med - c_med > p_iqr:
        text = "better"
    elif c_med > p_med + bound * abs(p_med):
        text = "regression"
    elif enough and lost >= 0.9 * len(pairs) and c_med - p_med > p_iqr:
        text = "worse"
    else:
        text = "no change"
    return {"won": won, "lost": lost, "pairs": len(pairs), "verdict": text}


def _fmt(values) -> str:
    q1, med, q3 = summary.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def _setting(records, key):
    return sorted({json.dumps(r["env"].get(key), sort_keys=True)
                   for r in records})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent = load_records(args.parent)
    change = load_records(args.change)
    if not parent or not change:
        print("error: each side needs at least one --trace 0 record",
              file=sys.stderr)
        return 2
    for key in ("blas_threads", "thread_env", "nproc"):
        p, c = _setting(parent, key), _setting(change, key)
        if p != c:
            print(f"WARNING: {key} differs: parent {p}, change {c}; timings "
                  f"are not comparable")
    for side, records in (("parent", parent), ("change", change)):
        digests = sorted({r["source_digest"][:12] for r in records})
        print(f"{side}: {len(records)} runs of source {', '.join(digests)}")
    limits = bounds()
    print(f"{'workload':<9} {'metric':<20} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'won/pairs':<10} verdict")
    regressions = 0
    for workload in sorted({r["workload"] for r in parent}
                           & {r["workload"] for r in change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        for metric in METRICS:
            p_vals = [metric_value(r, metric) for r in p_runs]
            c_vals = [metric_value(r, metric) for r in c_runs]
            v = verdict(p_vals, c_vals, limits[metric])
            regressions += v["verdict"] == "regression"
            print(f"{workload:<9} {metric:<20} {_fmt(p_vals):<30} "
                  f"{_fmt(c_vals):<30} {v['won']}/{v['pairs']:<8} "
                  f"{v['verdict']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
