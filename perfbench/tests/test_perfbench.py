"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, exact
counts, progress marks, order statistics, grading and comparison verdicts.

Run with ``python3 -m pytest perfbench/tests``.  The exact-count tests run
traced passes of every workload and take about two minutes.
"""

import math

import pytest

import coldstore
import compare
import progress
import run
import summary
import tracer
import worker
import workloads


def _bindings():
    """Every (owner, attribute) -> object in coldstore modules and classes."""
    out = {}
    for mod_name, module in tracer.package_modules().items():
        for key, value in vars(module).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def _wrappers():
    """Names in coldstore modules and classes still bound to a wrapper."""
    return [key for key, value in _bindings().items()
            if hasattr(value, tracer.MARKER)]


# -- self time ------------------------------------------------------------

def test_self_time_subtracts_merged_clipped_child_coverage():
    spans = [
        # run, id, parent, name, start, end
        (0, 1, 0, "a", 0, 100),
        (0, 2, 1, "b", 10, 40),
        (0, 3, 1, "c", 30, 60),    # overlaps b: covered once
        (0, 4, 1, "c", 90, 120),   # runs past its parent: clipped at 100
        (0, 5, 2, "d", 15, 20),    # grandchild: counts against b only
        (1, 6, 0, "a", 200, 210),  # another run, no children
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 10}

    totals = tracer.span_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(110e-9)
    assert totals["a"]["self_s"] == pytest.approx(50e-9)
    assert totals["c"]["s"] == pytest.approx(60e-9)


def test_nested_call_of_the_same_layer_records_one_span():
    tr = tracer.Tracer()
    inner = tr.wrap("x", lambda v: v + 1)
    outer = tr.wrap("x", lambda v: inner(v) * 2)
    other = tr.wrap("y", lambda v: inner(v))
    assert outer(1) == 4
    assert other(1) == 2
    names = [(s[3], s[2]) for s in tr.spans]
    # outer's inner call is covered by outer; other's inner call is a child
    assert sorted(n for n, _ in names) == ["x", "x", "y"]
    y_id = next(s[1] for s in tr.spans if s[3] == "y")
    assert ("x", y_id) in names


# -- wrapper hygiene --------------------------------------------------------

def test_install_rebinds_every_importer_and_uninstall_restores_all():
    import coldstore.eit
    import coldstore.harness
    import coldstore.propagate
    import coldstore.transfer

    before = _bindings()
    assert _wrappers() == []
    tr = tracer.Tracer()
    with tr:
        original = before[("coldstore.propagate", "rk4_propagate")]
        for mod in (coldstore.propagate, coldstore.eit, coldstore.transfer):
            wrapped = mod.rk4_propagate
            assert wrapped is not original
            assert getattr(wrapped, tracer.MARKER) == "propagate.rk4"
        assert coldstore.harness.apply_sigma is coldstore.operators.apply_sigma
        assert hasattr(coldstore.SparseKet.__add__, tracer.MARKER)
        assert hasattr(coldstore.Geometry.phases, tracer.MARKER)
        assert hasattr(coldstore.run, tracer.MARKER)
        assert _wrappers()
    assert _wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_pass_after_a_traced_one_leaves_no_trace():
    harness = coldstore.harness
    runs = [("swap", {"seed": 3, "n_trials": 2}),
            ("commutator-scan", {"seed": 3, "n_pairs": 2, "n_atoms": 8})]
    tr = tracer.Tracer()
    with tr:
        traced = worker.run_pass(harness, runs, tr)
    recorded = len(tr.spans)
    assert recorded > 0
    assert dict(tr.counts)["harness.checks"] == sum(
        len(r["checks"]) for r in traced["runs"])
    untraced = worker.run_pass(harness, runs)
    assert len(tr.spans) == recorded
    assert _wrappers() == []
    assert "layers" not in untraced
    assert [r["checks"] for r in untraced["runs"]] == \
        [r["checks"] for r in traced["runs"]]


def test_every_target_exists_and_every_metric_has_a_unit():
    modules = {"coldstore." + m for m, _a, _n in tracer.TARGETS}
    import importlib
    for name in modules:
        importlib.import_module(name)
    for module, attr, _name in tracer.TARGETS:
        owner = importlib.import_module(f"coldstore.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
    metrics = tracer.layer_metrics([], {})
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert all(v == 0 for v in metrics.values())


# -- progress marks ------------------------------------------------------------

def test_fastest_pass_adds_the_fastest_time_of_each_stretch():
    def cut(*seconds):
        return [[x, None, None] for x in seconds]
    passes = [cut(1.0, 5.0, 2.0), cut(3.0, 1.0, 2.5), cut(2.0, 2.0, 1.5)]
    assert progress.fastest_pass(passes) == pytest.approx(1.0 + 1.0 + 1.5)
    assert progress.fastest_pass([cut(4.0, 1.0)]) == pytest.approx(5.0)
    # stretches that cannot be matched: the fastest whole pass
    assert progress.fastest_pass([cut(1.0, 1.0), cut(1.5)]) \
        == pytest.approx(1.5)


def test_fastest_pass_counts_rk4_steps_at_the_fastest_step_time():
    # entry, 10 steps and 20 steps between samples of call 0, exit
    a = [[0.1, None, None], [1.0, 0, 10], [3.0, 0, 20], [0.2, None, None]]
    b = [[0.3, None, None], [2.0, 0, 10], [1.6, 0, 20], [0.1, None, None]]
    # fastest step: 1.6 s / 20 steps, applied to all 30 steps of the call
    assert progress.fastest_pass([a, b]) == pytest.approx(
        0.1 + 30 * 0.08 + 0.1)


def test_progress_marks_cut_the_pass_the_same_way_and_leave_no_trace():
    before = _bindings()
    runs = workloads.generate("sector", 4)[:1]
    runs[0][1]["n_atoms_list"] = [4, 8]
    cuts = []
    for _ in range(2):
        with progress.ProgressClock() as clock:
            out = worker.run_pass(coldstore.harness, runs, clock=clock)
        seconds = [s for s, _c, _n in out["stretches"]]
        assert sum(seconds) == pytest.approx(out["wall_s"])
        assert min(seconds) >= 0
        cuts.append([(c, n) for _s, c, n in out["stretches"]])
    # harness.run, enumerate_sector, operator_matrix, rk4_propagate: each
    # marked at entry and exit, so the pass is cut at least ten times
    assert cuts[0] == cuts[1]
    assert len(cuts[0]) > 10
    assert _wrappers() == []
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_progress_marks_every_sample_of_the_rk4_loop():
    import coldstore.propagate
    import numpy as np
    seen = []
    with progress.ProgressClock() as clock:
        for _ in range(2):
            coldstore.propagate.rk4_propagate(
                np.eye(2), np.array([1.0, 0.0]), 0.1, 9, sample_every=4,
                on_sample=lambda step, t, psi: seen.append(step))
    assert seen == [0, 4, 8, 9] * 2
    # per call: entry, one mark per sample, exit
    assert len(clock.marks) == len(clock.labels) == 2 * (2 + 4)
    labelled = [(c, n) for _s, c, n in clock.stretches(0, clock.marks[-1])]
    other = (None, None)  # start, entry, exit or end at either side
    assert labelled == [other, other, (0, 4), (0, 4), (0, 1), other,
                        other, other, (1, 4), (1, 4), (1, 1), other,
                        other]


# -- exact counts -------------------------------------------------------------

EXPECTED = {
    "sweep": {"propagate.rk4_steps": 250_500,
              "propagate.sector_dim_max": 17,
              "eit.samples": 902},
    "sector": {"propagate.rk4_steps": 4_492,
               "propagate.sector_dim_max": (math.comb(24, 3) + math.comb(24, 2)
                                            + math.comb(24, 1) + 1)},
    "algebra": {"propagate.rk4_steps": 0},
}
REPEATING = ("propagate.rk4_steps", "propagate.sector_dim_max", "eit.samples",
             "operators.labels_in", "harness.checks")


def _traced_counts(workload, seed):
    tr = tracer.Tracer()
    with tr:
        out = worker.run_pass(coldstore.harness,
                              workloads.generate(workload, seed), tr)
    assert all(passed for r in out["runs"] for _n, passed, _a in r["checks"])
    return tracer.layer_metrics(tr.spans, tr.counts)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_across_runs_and_seeds(workload):
    first = _traced_counts(workload, 1)
    again = _traced_counts(workload, 1)
    other = _traced_counts(workload, 2)
    for name in REPEATING:
        assert first[name] == again[name] == other[name], name
    for name, value in EXPECTED[workload].items():
        assert first[name] == value, name
    assert first["operators.labels_in"] > 0
    assert first["harness.checks"] > 0


# -- statistics, grading, comparison -------------------------------------------

def test_tail_is_the_highest_order_statistic_with_ten_beyond_it():
    assert summary.tail(range(10)) is None
    pct, value = summary.tail(range(11))
    assert (pct, value) == (pytest.approx(100 / 11), 0)
    pct, value = summary.tail(range(30))
    assert (pct, value) == (pytest.approx(200 / 3), 19)
    d = summary.describe([3.0, 1.0, 2.0])
    assert (d["q1"], d["median"], d["n"]) == (1.0, 2.0, 3)


def test_grade_counts_failed_checks_and_reference_mismatches():
    record = {"runs": [{"scenario": "s", "checks": [
        ["ok", True, 1.0], ["bad", False, 2.0], ["ref", True, 0.5]]}]}
    refs = [{"scenario": "s", "check": "ref", "value": 0.5, "tolerance": 0.0},
            {"scenario": "s", "check": "ok", "value": 1.1, "tolerance": 0.01},
            {"scenario": "s", "check": "gone", "value": 0.0, "tolerance": 1.0}]
    attempted, failures = run.grade(record, refs)
    assert attempted == 6
    assert len(failures) == 3


def test_references_name_checks_the_workloads_produce():
    for workload in workloads.WORKLOADS:
        refs = run.load_references(workload)
        assert refs, workload
        scenarios = {s for s, _cfg in workloads.generate(workload, 0)}
        assert {r["scenario"] for r in refs} <= scenarios


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, [v - 1.0 for v in parent], 0.1)["verdict"] \
        == "better"
    assert compare.verdict(parent, [v * 1.2 for v in parent], 0.1)["verdict"] \
        == "regression"
    assert compare.verdict(parent, [v + 0.5 for v in parent], 0.1)["verdict"] \
        == "worse"
    assert compare.verdict(parent, list(reversed(parent)), 0.1)["verdict"] \
        == "no change"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, parent, 0.1)["verdict"] == "unresolved"
    assert compare.verdict([0.0] * 10, [0.1] * 10, 0.0)["verdict"] \
        == "regression"
