import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings

import pytest

from coldstore import (
    BudgetExceededError,
    ConfigError,
    Report,
    run,
    scan,
    validate_config,
)
from coldstore import harness
from coldstore.harness import (
    SCENARIOS,
    load_config,
    scan_points,
    validate_scan_config,
)


def test_validate_config_fills_defaults():
    cfg = validate_config("swap", None)
    assert cfg["schema_version"] == 1
    assert cfg["seed"] is None
    assert cfg["n_trials"] == 5
    override = validate_config("swap", {"n_trials": 2, "seed": 7})
    assert override["n_trials"] == 2
    assert override["seed"] == 7


def test_validate_config_collects_every_violation():
    with pytest.raises(ConfigError) as err:
        validate_config("swap", {"n_trials": -1, "tolerance": "tight",
                                 "mystery": True})
    message = str(err.value)
    assert "n_trials" in message
    assert "tolerance" in message
    assert "mystery" in message


def test_validate_config_rejects_wrong_schema_version():
    with pytest.raises(ConfigError):
        validate_config("swap", {"schema_version": 2})
    with pytest.raises(ConfigError):
        validate_config("does-not-exist", None)


@pytest.mark.parametrize("scenario", [
    name for name, sc in SCENARIOS.items() if "spacing" in sc.schema])
def test_a_spacing_that_overflows_the_lattice_is_refused(monkeypatch,
                                                         scenario):
    ran = []
    monkeypatch.setitem(SCENARIOS, scenario, dataclasses.replace(
        SCENARIOS[scenario], runner=lambda cfg: ran.append(cfg) or iter(())))
    # (N - 1) * 1e308 is infinite for every default atom count N >= 3
    with pytest.raises(ConfigError,
                       match=r"spacing: \d+ atoms at this spacing overflow"):
        run(scenario, {"spacing": 1e308})
    assert ran == []
    assert validate_config(scenario, {"spacing": 1e300})["spacing"] == 1e300


def test_more_storage_quanta_than_atoms_are_refused(monkeypatch):
    # three storage quanta cannot sit on two atoms: the sweep's target dark
    # state would be the zero vector
    ran = []
    monkeypatch.setitem(SCENARIOS, "adiabatic-sweep", dataclasses.replace(
        SCENARIOS["adiabatic-sweep"],
        runner=lambda cfg: ran.append(cfg) or iter(())))
    with pytest.raises(ConfigError,
                       match=r"n_quanta: must be <= n_atoms.*\(got 3 > 2\)"):
        run("adiabatic-sweep", {"n_atoms": 2, "n_quanta": 3})
    assert ran == []
    cfg = validate_config("adiabatic-sweep", {"n_atoms": 2, "n_quanta": 2})
    assert (cfg["n_atoms"], cfg["n_quanta"]) == (2, 2)


@pytest.mark.parametrize("scenario, refused, accepted, message", [
    ("dynamic-transfer", {"n_atoms_list": [2, 3], "deviation_m": 3},
     {"n_atoms_list": [3, 4], "deviation_m": 3},
     r"deviation_m: must be <= n_atoms_list.*\(got 3 > 2\)"),
    ("dark-residual", {"approx_n_atoms": [2, 3], "approx_n": 4},
     {"approx_n_atoms": [4, 5], "approx_n": 4},
     r"approx_n: must be <= approx_n_atoms.*\(got 4 > 2\)"),
    ("normalization-audit",
     {"audit_n_atoms": 2, "audit_occupancies": [[3, 1]]},
     {"audit_n_atoms": 4, "audit_occupancies": [[3, 1]]},
     r"audit_occupancies: must be <= audit_n_atoms.*\(got 4 > 2\)"),
    ("normalization-audit", {"audit_wavevectors": [1.3, 1.3]},
     {"audit_wavevectors": [1.3, 2.9, 1.3]},
     r"audit_wavevectors: the 2 modes of audit_occupancies need distinct"),
    ("dark-residual", {"thetas": [0.0]}, {"thetas": [math.pi / 2]},
     r"thetas: each element must be positive"),
    ("dark-residual", {"approx_theta": 0.0}, {"approx_theta": 1e-3},
     r"approx_theta: must be positive"),
    ("dark-residual", {"g": 1e200}, {"g": 1e100}, r"g: must be <= 1e\+100"),
    ("dynamic-transfer", {"rabi": 1e300}, {"rabi": 1e100},
     r"rabi: must be <= 1e\+100"),
    ("adiabatic-sweep", {"g": 1e75}, {"g": 1e70}, r"g: must be <= 1e\+70"),
    ("adiabatic-sweep", {"g": 1e-20}, {"g": 1e-10}, r"g: must be >= 1e-10"),
    ("dark-residual", {"g": 1e-14}, {"g": 1e-10}, r"g: must be >= 1e-10"),
    ("dynamic-transfer", {"rabi": 1e-15}, {"rabi": 1e-10},
     r"rabi: must be >= 1e-10"),
    # 100 duration_coupling rabi_cap_factor steps: weeks of integration
    ("adiabatic-sweep", {"rabi_cap_factor": 1e10, "duration_coupling": 5.0},
     {"rabi_cap_factor": 1e3, "duration_coupling": 5.0},
     r"rabi_cap_factor: with duration_coupling 5\.0 a sweep takes "
     r"5,000,000,000,000 RK4 steps"),
])
def test_configs_that_would_end_in_an_error_record_are_refused(
        monkeypatch, scenario, refused, accepted, message):
    ran = []
    monkeypatch.setitem(SCENARIOS, scenario, dataclasses.replace(
        SCENARIOS[scenario], runner=lambda cfg: ran.append(cfg) or iter(())))
    with pytest.raises(ConfigError, match=message):
        run(scenario, refused)
    assert ran == []
    run(scenario, accepted)
    assert len(ran) == 1


def test_both_sweeps_of_a_config_are_held_to_the_step_cap():
    with pytest.raises(ConfigError) as info:
        validate_config("adiabatic-sweep", {"rabi_cap_factor": 1e10})
    assert [v.split(" a sweep")[0] for v in info.value.violations] == [
        "rabi_cap_factor: with duration_coupling 200.0",
        "rabi_cap_factor: with fast_duration_coupling 0.1"]
    # an overflowing control has no finite step; the sweep would refuse it
    with pytest.raises(ConfigError, match="takes inf RK4 steps"):
        validate_config("adiabatic-sweep", {"g": 1e70,
                                            "rabi_cap_factor": 1e300})
    # the default and the benchmark's sweep and sector configs
    for scenario, config, steps in [
            ("adiabatic-sweep", {}, 1_000_000),
            ("adiabatic-sweep", {"duration_coupling": 50.0}, 250_000),
            ("dynamic-transfer", {"n_atoms_list": [4, 8, 16, 24],
                                  "deviation_m": 3}, None)]:
        cfg = validate_config(scenario, config)
        if steps is not None:
            assert harness._sweep_steps(cfg, cfg["duration_coupling"]) \
                == steps <= harness.SWEEP_MAX_STEPS


def test_repeated_detunings_are_refused_by_name():
    # a mode set tracks each detuning once; 0.0 and -0.0 are one detuning
    for detunings in ([0.0, 0.0], [0.0, 1.0e5, -0.0]):
        with pytest.raises(ConfigError, match=r"detunings: must be distinct"):
            run("mode-conditions", {"detunings": detunings})
    with pytest.raises(ConfigError, match=r"point 0 .*detunings: must be"):
        scan({"scenario": "mode-conditions",
              "grid": {"detunings": [[1.0, 1.0]]}})
    report = run("mode-conditions", {"detunings": [0.0, 1.0e5, 2.0e5]})
    assert report.all_passed


@pytest.mark.parametrize("scenario, key, refused, accepted, named", [
    # k = kd / d, and the phases k z_j on the lattice
    ("commutator-scan", "spacing", 5e-324, 1e-300, "spacing"),
    ("commutator-scan", "max_kd", 1e307, 1e300, "spacing"),
    # the lattice spacing L / N, and the mode spacing lambda^2 / (2 pi L)
    ("mode-conditions", "length", 5e-324, 1e-300, "length"),
    ("mode-conditions", "wavelength", 1e300, 1e150, "wavelength"),
    # the control Omega = g sqrt(N) / tan(theta)
    ("dark-residual", "thetas", [5e-324], [1e-300], "thetas"),
    ("dark-residual", "approx_theta", 5e-324, 1e-300, "approx_theta"),
    # the sweep duration T = duration / (g sqrt(N))
    ("adiabatic-sweep", "duration_coupling", 5e-324, 1e-320,
     "duration_coupling"),
    ("adiabatic-sweep", "fast_duration_coupling", 5e-324, 1e-320,
     "fast_duration_coupling"),
], ids=["k", "k-phase", "spacing", "mode-spacing", "rabi", "approx-rabi",
        "duration", "fast-duration"])
def test_a_derived_quantity_past_the_float_range_is_refused_by_name(
        scenario, key, refused, accepted, named):
    # refused up front, not by a constructor inside a unit; the nearest
    # accepted value runs with no error record and no warning
    with pytest.raises(ConfigError) as info:
        validate_config(scenario, {key: refused})
    assert named in [v.split(":")[0] for v in info.value.violations]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(scenario, {key: accepted})
    assert [c.detail for c in report.checks if c.comparison == "error"] == []


@pytest.mark.parametrize("scenario, key", [
    ("verify-ladder", "wavevectors"), ("verify-dicke", "wavevector"),
    ("dark-residual", "k_signal"), ("dark-residual", "k_control"),
    ("dark-residual", "q"), ("adiabatic-sweep", "k_signal"),
    ("adiabatic-sweep", "k_control"), ("adiabatic-sweep", "q"),
    ("dynamic-transfer", "wavevector"), ("normalization-audit", "wavevector"),
])
def test_a_wavevector_whose_lattice_phases_overflow_is_refused_by_name(
        scenario, key):
    # a state of n quanta sums n phases k x_j, each up to |k| L; at 1.7e308
    # they overflow and a unit ended in an error record.  k = 1e300 keeps
    # |k| N L finite and runs with no error record and no warning
    def config(k):
        cfg = {key: [0.0, k] if key == "wavevectors" else k}
        return {**cfg, "duration_coupling": 5.0} \
            if scenario == "adiabatic-sweep" else cfg
    with pytest.raises(ConfigError) as info:
        validate_config(scenario, config(1.7e308))
    assert key in [v.split(":")[0] for v in info.value.violations]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(scenario, config(1e300))
    assert [c.detail for c in report.checks if c.comparison == "error"] == []


def test_a_drift_tolerance_below_rounding_fails_its_check_without_an_error():
    # no RK4 sweep holds its norm to 1e-300: the drift check fails, and
    # both sweeps still run to their end
    report = run("adiabatic-sweep", {"norm_drift_tolerance": 1e-300,
                                     "duration_coupling": 5.0})
    assert [c.detail for c in report.checks if c.comparison == "error"] == []
    checks = {c.name: c for c in report.checks}
    drift = checks["slow-sweep norm drift"]
    assert not drift.passed and 0 < drift.actual < 1e-12
    assert "fast-sweep fidelity stays low (T*coupling=0.1)" in checks


@pytest.mark.parametrize("base_kd", [1e16, 1e17, 1e300])
def test_a_base_kd_past_the_float_resolution_fails_without_an_error(base_kd):
    # next to base_k, k' = base_k + |dk|L / L rounds, at 1e16 and above to
    # base_k itself for some grid points: a dk of 0 fails its bound (the
    # phase sum is N), but no unit may raise or warn
    report = run("commutator-scan", {"base_kd": base_kd})
    assert [c.detail for c in report.checks if c.comparison == "error"] == []
    distant = [c for c in report.checks
               if c.name.startswith("distant-mode commutator")]
    assert len(distant) == 9
    assert any(not c.passed and c.detail.endswith("=inf") for c in distant)


@pytest.mark.parametrize("scenario, config", [
    ("dark-residual", {"g": 1e100, "n_atoms_list": [4], "n_list": [2]}),
    ("dynamic-transfer", {"rabi": 1e100, "n_atoms_list": [4, 8]}),
    ("adiabatic-sweep", {"g": 1e70, "duration_coupling": 5.0}),
    ("adiabatic-sweep", {"g": 1e-10, "duration_coupling": 5.0}),
    ("dark-residual", {"g": 1e-10, "n_atoms_list": [4], "n_list": [2]}),
    ("dynamic-transfer", {"rabi": 1e-10, "n_atoms_list": [4, 8]}),
])
def test_the_largest_accepted_coupling_runs_without_an_error(scenario, config):
    # the largest and the smallest accepted couplings: the checks may fail
    # at these scales (their tolerances are absolute), but no unit may raise
    # or warn
    report = run(scenario, config)
    assert [c.detail for c in report.checks if c.comparison == "error"] == []


def test_run_swap_passes_and_reports():
    report = run("swap", {"n_trials": 2})
    assert isinstance(report, Report)
    assert report.all_passed
    assert report.n_passed == len(report.checks) > 0
    assert report.failed() == []
    assert report.scenario == "swap"
    assert "swap" in report.summary_line()
    assert report.runtime_seconds >= 0.0


def test_canonical_json_is_bit_stable_and_runtime_free():
    a = run("verify-ladder", {"n_atoms_min": 3, "n_atoms_max": 4})
    b = run("verify-ladder", {"n_atoms_min": 3, "n_atoms_max": 4})
    assert a.canonical_json() == b.canonical_json()
    assert "runtime" not in a.canonical_json()
    payload = json.loads(a.canonical_json())
    assert payload["schema_version"] == 1
    assert payload["aggregate"]["all_passed"]
    assert "runtime_seconds" in a.to_dict(include_runtime=True)


def test_report_files_and_csv_columns(tmp_path):
    report = run("swap", {"n_trials": 1}, out_dir=tmp_path, fmt="csv")
    files = sorted(p.name for p in tmp_path.iterdir())
    assert any(name.endswith(".csv") for name in files)
    csv_path = next(p for p in tmp_path.iterdir() if p.suffix == ".csv")
    header = csv_path.read_text().splitlines()[0]
    assert header == "name,comparison,actual,expected,tolerance,passed,provenance,detail"
    json_report = run("swap", {"n_trials": 1}, out_dir=tmp_path, fmt="json")
    json_path = next(p for p in tmp_path.iterdir() if p.suffix == ".json")
    loaded = json.loads(json_path.read_text())
    assert loaded["scenario"] == "swap"
    assert loaded["aggregate"]["n_passed"] == json_report.n_passed


def test_bad_report_format_is_refused_before_any_work(tmp_path, monkeypatch):
    def refuse(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setitem(SCENARIOS, "verify-ladder", dataclasses.replace(
        SCENARIOS["verify-ladder"], runner=refuse))
    out_dir = tmp_path / "reports"
    with pytest.raises(ConfigError, match="format: must be 'json' or 'csv'"):
        run("verify-ladder", out_dir=out_dir, fmt="xml")
    with pytest.raises(ConfigError, match="format: must be 'json' or 'csv'"):
        scan({"scenario": "verify-ladder", "grid": {"n_atoms_max": [4]}},
             out_dir=out_dir, fmt="xml")
    assert not out_dir.exists()


def test_scan_single_point_matches_plain_run():
    plain = run("swap", {"n_trials": 2, "seed": 3})
    scanned = scan({"scenario": "swap", "base": {"seed": 3},
                    "grid": {"n_trials": [2]}})
    assert scanned.all_passed == plain.all_passed
    assert len(scanned.checks) == len(plain.checks)
    # scan rows carry a [key=value] prefix naming the grid point
    assert all(c.name.startswith("[n_trials=2] ") for c in scanned.checks)
    stripped = [c.name.split("] ", 1)[1] for c in scanned.checks]
    assert stripped == [c.name for c in plain.checks]


def test_scan_grid_order_and_parallel_agreement():
    cfg = {"scenario": "swap",
           "grid": {"n_trials": [2, 1], "max_quanta": [2, 1]}}
    points = scan_points(validate_scan_config(cfg))
    # grid keys sorted, values in listed order: deterministic
    got = [(p["overrides"]["max_quanta"], p["overrides"]["n_trials"])
           for p in points]
    assert got == [(2, 2), (2, 1), (1, 2), (1, 1)]
    serial = scan(cfg, jobs=1)
    parallel = scan(cfg, jobs=2)
    assert serial.canonical_json() == parallel.canonical_json()


def test_scan_validates_every_point_up_front():
    with pytest.raises(ConfigError) as err:
        scan({"scenario": "swap", "grid": {"n_trials": [1, -2, -3]}})
    assert "-2" in str(err.value) or "n_trials" in str(err.value)
    with pytest.raises(ConfigError):
        scan({"scenario": "nope", "grid": {}})
    with pytest.raises(ConfigError):
        scan({"scenario": "swap", "grid": {}, "surprise": 1})


@pytest.mark.parametrize("jobs", [0, -1, 1.5, "2", True])
def test_scan_refuses_a_bad_job_count(jobs):
    with pytest.raises(ConfigError) as err:
        scan({"scenario": "swap", "grid": {"n_trials": [1]}}, jobs=jobs)
    assert "jobs" in str(err.value)


def test_scan_budget_guard():
    cfg = {"scenario": "adiabatic-sweep", "budget": 10,
           "grid": {"n_atoms": [8]}}
    with pytest.raises(BudgetExceededError) as err:
        scan(cfg)
    assert "budget" in str(err.value)


# label count of the largest check unit at each scenario's defaults
DEFAULT_ESTIMATES = {
    "verify-ladder": 794, "verify-dicke": 386, "commutator-scan": 65,
    "mode-conditions": 100_000, "dark-residual": 1_539,
    "adiabatic-sweep": 17, "dynamic-transfer": 137, "swap": 49,
    "normalization-audit": 112_896,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scan_estimates_every_default_point(scenario):
    key, field = sorted(SCENARIOS[scenario].schema.items())[0]
    cfg = {"scenario": scenario, "budget": 1, "grid": {key: [field.default]}}
    with pytest.raises(BudgetExceededError) as err:
        scan(cfg)
    assert (f"estimated basis size {DEFAULT_ESTIMATES[scenario]}, over the "
            f"configured budget 1;") in str(err.value)


def test_the_swap_estimate_is_the_grid_of_its_largest_trial():
    # (field quanta + atom quanta + 1)^2 amplitudes, over the seed-0 trials
    quanta = {re.search(r"field quanta (\d+), atom quanta (\d+)",
                        check["detail"]).groups()
              for check in json.loads(run("swap").canonical_json())["checks"]}
    assert DEFAULT_ESTIMATES["swap"] == max(
        (int(f) + int(a) + 1) ** 2 for f, a in quanta)


def test_scan_refuses_before_any_unit_runs(monkeypatch):
    ran = []
    units = SCENARIOS["dark-residual"].runner

    def recording(cfg):
        for name, size, _fn in units(cfg):
            yield name, size, lambda name=name: ran.append(name) or []

    monkeypatch.setitem(SCENARIOS, "dark-residual", dataclasses.replace(
        SCENARIOS["dark-residual"], runner=recording))
    # point 0 is at the budget (1,539, its approximate-form unit); point 1's
    # exact N=8, n=3 unit (2,308 labels) is over it
    with pytest.raises(BudgetExceededError, match="point 1 .* 2308, over"):
        scan({"scenario": "dark-residual", "budget": 1_539,
              "grid": {"n_list": [[1], [3]]}})
    assert ran == []


def test_a_unit_that_raises_is_one_error_record_and_the_rest_run(
        monkeypatch):
    # every accepted config runs clean, so one unit is made to fail; the
    # process pool's workers are forked and inherit the patch
    dark_params = harness._dark_params

    def failing(cfg, n_atoms, theta):
        return 1.0 / 0.0 if theta == 0.25 else dark_params(
            cfg, n_atoms, theta)

    monkeypatch.setattr(harness, "_dark_params", failing)
    cfg = {"thetas": [0.25, 0.5], "n_atoms_list": [4], "n_list": [1]}
    report = run("dark-residual", cfg)
    error, *rest = report.checks
    assert error.name == "exact dark-state residual N=4, n=1, theta=0.2500"
    assert error.comparison == "error"
    assert error.passed is False
    assert math.isnan(error.actual)
    assert error.provenance == "trivial"
    assert error.detail == "ZeroDivisionError: float division by zero"
    assert [c.name for c in rest] == [
        "exact dark-state residual N=4, n=1, theta=0.5000",
        "approximate-form residual N=8",
        "approximate-form residual N=16",
        "approximate-form residual decreases N=8 -> N=16",
    ]
    assert all(c.passed for c in rest)
    assert report.all_passed is False
    # the same point twice, so that jobs=2 takes the process pool
    scanned = scan({"scenario": "dark-residual",
                    "base": {"n_atoms_list": [4], "n_list": [1]},
                    "grid": {"thetas": [[0.25, 0.5], [0.25, 0.5]]}}, jobs=2)
    prefixed = [dataclasses.replace(c, name=f"[thetas=[0.25, 0.5]] {c.name}")
                for c in report.checks]
    assert [c.to_dict() for c in scanned.checks] == \
        [c.to_dict() for c in prefixed] * 2


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_trials": 2}')
    assert load_config(path) == {"n_trials": 2}
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(bad)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(broken)


def cli(*args):
    return subprocess.run([sys.executable, "-m", "coldstore.cli", *args],
                          capture_output=True, text=True)


def test_cli_pass_exit_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_trials": 1}')
    proc = cli("swap", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "swap" in proc.stdout
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())


def test_cli_bad_config_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_trials": -5, "whatever": 1}')
    proc = cli("swap", "--config", str(cfg))
    assert proc.returncode == 2
    assert "n_trials" in proc.stderr
    assert "whatever" in proc.stderr


def test_cli_csv_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_trials": 1}')
    proc = cli("swap", "--config", str(cfg), "--out", str(tmp_path),
               "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert any(p.suffix == ".csv" for p in tmp_path.iterdir())


def test_cli_seed_override(tmp_path):
    proc = cli("swap", "--seed", "11", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(next(p for p in tmp_path.iterdir()
                              if p.suffix == ".json").read_text())
    assert payload["config"]["seed"] == 11


def test_cli_jobs_is_a_scan_option(tmp_path):
    # a scenario subcommand runs in one process and has no --jobs
    proc = cli("swap", "--jobs", "2")
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr
    cfg = tmp_path / "scan.json"
    cfg.write_text('{"scenario": "swap", "grid": {"n_trials": [1]}}')
    proc = cli("scan", "--config", str(cfg), "--jobs", "0")
    assert proc.returncode == 2
    assert "jobs" in proc.stderr


# One accepted and one rejected value per rule kind, as
# (scenario, key, value, accepted).
RULE_CASES = [
    # integer
    ("swap", "n_trials", 2, True),
    ("swap", "n_trials", "2", False),
    ("swap", "n_trials", 0, False),
    # float, bounded float, positive
    ("dark-residual", "q", -0.5, True),
    ("dark-residual", "q", "0", False),
    ("adiabatic-sweep", "min_fidelity", 1.0, True),
    ("adiabatic-sweep", "min_fidelity", 1.01, False),
    ("adiabatic-sweep", "min_fidelity", -0.1, False),
    ("swap", "tolerance", 1e-3, True),
    ("swap", "tolerance", 0.0, False),
    # options, free string
    ("adiabatic-sweep", "shape", "linear", True),
    ("adiabatic-sweep", "shape", "cubic", False),
    ("adiabatic-sweep", "trajectory_out", "trajectory.csv", True),
    ("adiabatic-sweep", "trajectory_out", 3, False),
    # number list
    ("verify-ladder", "wavevectors", [0.5, 2], True),
    ("verify-ladder", "wavevectors", [], False),
    ("verify-ladder", "wavevectors", ["a"], False),
    # integer list with an entry bound
    ("dark-residual", "n_atoms_list", [2, 5], True),
    ("dark-residual", "n_atoms_list", [1, 5], False),
    ("dark-residual", "n_atoms_list", [2.0], False),
    # min_len 2
    ("dynamic-transfer", "n_atoms_list", [4, 8], True),
    ("dynamic-transfer", "n_atoms_list", [4], False),
    # pairs
    ("normalization-audit", "audit_occupancies", [[1, 2], [3, 1]], True),
    ("normalization-audit", "audit_occupancies", [[1, 2, 3]], False),
    ("normalization-audit", "audit_occupancies", [[0, 1]], False),
    ("normalization-audit", "audit_occupancies", [1, 1], False),
    # seed, schema_version
    ("swap", "seed", None, True),
    ("swap", "seed", 0, True),
    ("swap", "seed", -1, False),
    ("swap", "seed", 1.0, False),
    ("swap", "schema_version", 1, True),
    ("swap", "schema_version", 2, False),
    # a bool is not an integer, an integer is a number, 0.5 is not an integer
    ("swap", "n_trials", True, False),
    ("swap", "tolerance", 1, True),
    ("swap", "n_trials", 0.5, False),
]


@pytest.mark.parametrize("scenario,key,value,accepted", RULE_CASES)
def test_config_rule_table(scenario, key, value, accepted):
    if accepted:
        cfg = validate_config(scenario, {key: value})
        assert cfg[key] == value
        assert type(cfg[key]) is type(value)
        return
    with pytest.raises(ConfigError) as err:
        validate_config(scenario, {key: value})
    (violation,) = err.value.violations
    assert violation.startswith(f"{key}: ")
    assert violation.endswith(f"(got {value!r})")


def test_a_tuple_is_validated_as_a_list():
    cfg = validate_config("verify-ladder", {"wavevectors": (0.0, 1.0)})
    assert cfg["wavevectors"] == [0.0, 1.0]
    assert type(cfg["wavevectors"]) is list


def test_a_config_shares_no_list_with_the_defaults_or_the_caller():
    cfg = validate_config("verify-ladder", None)
    cfg["wavevectors"].append(5.0)
    assert validate_config("verify-ladder", None)["wavevectors"] == [0.0, 1.7]

    cfg = validate_config("normalization-audit", None)
    cfg["audit_occupancies"][0].append(7)
    cfg["audit_occupancies"].append([3, 1])
    assert validate_config("normalization-audit",
                           None)["audit_occupancies"] == [[1, 1], [2, 1]]

    given = {"wavevectors": [0.0, 1.0]}
    validate_config("verify-ladder", given)["wavevectors"].append(2.0)
    assert given == {"wavevectors": [0.0, 1.0]}
    pairs = [[1, 1], [2, 1]]
    validated = validate_config("normalization-audit",
                                {"audit_occupancies": pairs})
    pairs[1][0] = 3
    assert validated["audit_occupancies"] == [[1, 1], [2, 1]]


def test_a_scan_config_shares_no_list_with_the_caller():
    base = {"wavevectors": [0.0, 1.0]}
    grid = {"audit_occupancies": [[[1, 1]], [[2, 1]]]}
    cfg = validate_scan_config({"scenario": "verify-ladder",
                                "grid": {"n_max": [1, 2]}, "base": base})
    cfg["base"]["wavevectors"].append(9.0)
    assert base == {"wavevectors": [0.0, 1.0]}
    cfg = validate_scan_config({"scenario": "normalization-audit",
                                "grid": grid})
    cfg["grid"]["audit_occupancies"][0].append([3, 1])
    cfg["grid"]["audit_occupancies"][1][0][0] = 4
    assert grid == {"audit_occupancies": [[[1, 1]], [[2, 1]]]}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_explicit_defaults_validate_like_no_config(scenario):
    defaults = {key: fld.default
                for key, fld in SCENARIOS[scenario].schema.items()}
    assert validate_config(scenario, defaults) == validate_config(scenario,
                                                                  None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_refused(tmp_path, bad):
    with pytest.raises(ConfigError, match="tolerance"):
        validate_config("verify-ladder", {"tolerance": bad})
    with pytest.raises(ConfigError, match="wavevectors"):
        validate_config("verify-ladder", {"wavevectors": [0.0, bad]})
    with pytest.raises(ConfigError, match="tolerance"):
        scan({"scenario": "swap", "base": {"tolerance": bad},
              "grid": {"n_trials": [1]}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_trials": 1, "tolerance": bad}))
    proc = cli("swap", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "tolerance" in proc.stderr
    assert not any(p.suffix == ".json" and p.name != "cfg.json"
                   for p in tmp_path.iterdir())


@pytest.mark.parametrize("scenario", ["verify-ladder", "verify-dicke",
                                      "normalization-audit"])
def test_an_empty_atom_range_is_refused(scenario):
    with pytest.raises(ConfigError) as err:
        validate_config(scenario, {"n_atoms_min": 12, "n_atoms_max": 3})
    assert len(err.value.violations) == 1
    assert "n_atoms_min" in err.value.violations[0]
    assert "n_atoms_max" in err.value.violations[0]
    validate_config(scenario, {"n_atoms_min": 4, "n_atoms_max": 4})


def test_cli_refuses_an_empty_atom_range(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_atoms_min": 12, "n_atoms_max": 3}')
    proc = cli("verify-dicke", "--config", str(cfg))
    assert proc.returncode == 2
    assert "n_atoms_min" in proc.stderr
    assert "PASS" not in proc.stdout


@pytest.mark.parametrize("key,value,accepted", [
    ("budget", 10, True),
    ("budget", 0, False),
    ("budget", 1.5, False),
    ("seed", 3, True),
    ("seed", -1, False),
    ("schema_version", 1, True),
    ("schema_version", 2, False),
    ("schema_version", True, False),
])
def test_scan_rule_table(key, value, accepted):
    cfg = {"scenario": "swap", "grid": {"n_trials": [1]}, key: value}
    if accepted:
        assert validate_scan_config(cfg)[key] == value
        return
    with pytest.raises(ConfigError) as err:
        validate_scan_config(cfg)
    (violation,) = err.value.violations
    assert violation.startswith(f"{key}: ")


# -- seeded draws --------------------------------------------------------------

def test_no_scenario_loads_numpy_random():
    # its first import costs a fresh process 10-18 ms and over 5 MB; the
    # seeded scenarios draw from the standard library instead.  After
    # ``import coldstore`` the module is blocked, so every scenario that
    # would import it fails by name (a unit's error record carries it).
    script = (
        "import sys\n"
        "from coldstore.harness import SCENARIOS, run\n"
        "loaded = ['import coldstore'] * ('numpy.random' in sys.modules)\n"
        "sys.modules['numpy.random'] = None\n"
        "for name in SCENARIOS:\n"
        "    try:\n"
        "        report = run(name).canonical_json()\n"
        "    except ImportError as exc:\n"
        "        report = str(exc)\n"
        "    loaded += [name] * ('numpy.random' in report)\n"
        "assert sys.modules['numpy.random'] is None\n"
        "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_seed_zero_stream_is_pinned():
    # Random.random() is the stream Python keeps for a seed across versions;
    # moving it moves the seeded golden reports, so it must be deliberate
    assert harness._uniforms(harness._rng({"seed": None}), 0.0, 1.0, 3) == [
        0.8444218515250481, 0.7579544029403025, 0.420571580830845]
    assert harness._uniforms(harness._rng({"seed": 0}), -1.0, 3.0, 1) == [
        2.3776874061001925]
    assert harness._integer(harness._rng({"seed": 0}), 1, 4) == 3
    assert list(harness._normals(harness._rng({"seed": 0}), 3)) == \
        pytest.approx([0.09637157846515239, -1.9266361205465297,
                       -0.05850007947614822], rel=1e-14, abs=0)
    assert harness._uniforms(harness._rng({"seed": 7}), 0.0, 1.0, 1) != \
        harness._uniforms(harness._rng({"seed": 0}), 0.0, 1.0, 1)


def test_the_draws_follow_their_distributions():
    rng = harness._rng({"seed": 3})
    n = 20_000
    z = harness._normals(rng, n)
    assert z.shape == (n,) and len(harness._normals(rng, 3)) == 3
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    u = harness._uniforms(rng, -2.0, 5.0, n)
    assert all(-2.0 <= x < 5.0 for x in u)
    assert min(u) < -1.99 and max(u) > 4.99
    assert {harness._integer(rng, 1, 4) for _ in range(n)} == {1, 2, 3}
