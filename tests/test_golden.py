"""Every scenario's canonical report at default config against its golden
file in ``tests/golden`` (rewritten by ``tests/golden/regenerate.py``).

Structure, config, check names, comparisons, bounds (``tolerance``),
provenance, details and pass flags must match exactly.  Every other number
must agree to ``GOLDEN_TOL``: absolute, or relative where the golden value
exceeds 1 in magnitude.  Each test prints a table of the values that moved
at all, within the tolerance or not.
"""

import json
import math
from pathlib import Path

import pytest

from coldstore.harness import SCENARIOS, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_TOL = 1e-12

# keys whose numbers are inputs or bounds, not results: compared exactly
EXACT_KEYS = ("config", "tolerance")


@pytest.fixture(scope="session")
def fresh_reports():
    return {name: json.loads(run(name).canonical_json()) for name in SCENARIOS}


def _diff(golden, fresh, path, exact, moved, broken):
    """Walk both trees; numbers that differ go to ``moved``, everything that
    may not differ at all (or a number off by more than the tolerance)
    to ``broken``."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        if golden.keys() != fresh.keys():
            broken.append(f"{path}: keys {sorted(golden)} != {sorted(fresh)}")
            return
        for key in golden:
            _diff(golden[key], fresh[key], f"{path}.{key}",
                  exact or key in EXACT_KEYS, moved, broken)
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            broken.append(f"{path}: length {len(golden)} != {len(fresh)}")
            return
        for i, (g, f) in enumerate(zip(golden, fresh)):
            label = g.get("name", i) if isinstance(g, dict) else i
            _diff(g, f, f"{path}[{label}]", exact, moved, broken)
    elif type(golden) is float and type(fresh) is float and not exact:
        if golden != fresh:
            moved.append((path, golden, fresh))
            if not abs(fresh - golden) <= GOLDEN_TOL * max(1.0, abs(golden)):
                broken.append(f"{path}: {golden!r} -> {fresh!r}")
    elif type(golden) is not type(fresh) or golden != fresh:
        broken.append(f"{path}: {golden!r} != {fresh!r}")


def _table(moved):
    lines = [f"{'value':<72} {'golden':>24} {'fresh':>24} {'change':>10}"]
    for path, golden, fresh in moved:
        change = fresh - golden
        if abs(golden) > 1:
            change /= abs(golden)
        lines.append(f"{path:<72} {golden!r:>24} {fresh!r:>24} "
                     f"{change:>10.1e}")
    return "\n".join(lines)


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_canonical_report_matches_its_golden_file(fresh_reports, scenario):
    golden = json.loads((GOLDEN_DIR / f"{scenario}.json").read_text())
    moved, broken = [], []
    _diff(golden, fresh_reports[scenario], scenario, False, moved, broken)
    if moved:
        print(f"\n{len(moved)} value(s) moved in {scenario}:\n{_table(moved)}")
    assert not broken, "\n".join(broken)


def test_golden_comparison_flags_what_it_should():
    golden = {"config": {"x": 1.0}, "checks": [
        {"name": "a", "actual": 0.5, "tolerance": 1e-12, "passed": True,
         "detail": "d"},
        {"name": "b", "actual": 2e6, "tolerance": 1e-12, "passed": True,
         "detail": "d"}]}

    def check(changes=()):
        fresh = json.loads(json.dumps(golden))
        for i, key, value in changes:
            target = fresh["config"] if i is None else fresh["checks"][i]
            target[key] = value
        moved, broken = [], []
        _diff(golden, fresh, "r", False, moved, broken)
        return len(moved), len(broken)

    assert check() == (0, 0)
    assert check([(0, "actual", 0.5 + 1e-13)]) == (1, 0)
    assert check([(0, "actual", 0.5 + 2e-12)]) == (1, 1)
    assert check([(1, "actual", 2e6 * (1 + 5e-13))]) == (1, 0)
    assert check([(0, "tolerance", 1.1e-12)]) == (0, 1)
    assert check([(None, "x", 1.0 + 1e-15)]) == (0, 1)
    assert check([(0, "passed", False)]) == (0, 1)
    assert check([(0, "detail", "e")]) == (0, 1)
    assert check([(0, "actual", repr(math.inf))]) == (0, 1)
