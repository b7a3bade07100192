import dataclasses
import json
import subprocess
import sys

import pytest

from coldstore import (
    BudgetExceededError,
    ConfigError,
    Report,
    run,
    scan,
    validate_config,
)
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


def test_scan_budget_guard():
    cfg = {"scenario": "adiabatic-sweep", "budget": 10,
           "grid": {"n_atoms": [8]}}
    with pytest.raises(BudgetExceededError) as err:
        scan(cfg)
    assert "budget" in str(err.value)


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
