"""Rewrite, or check, the golden canonical reports in this directory.

Runs the named scenarios (every registered one if none is named) at their
default config and writes ``Report.canonical_json()`` to
``<scenario>.json``, byte for byte (so a file's sha256 is the report's
canonical hash); the other files are left as they are.
``tests/test_golden.py`` compares fresh runs against these files.  Run
from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py [SCENARIO ...]
    PYTHONPATH=src python3 tests/golden/regenerate.py --check [SCENARIO ...]

``--check`` writes nothing.  It prints every value that differs between a
golden file and the package's output (path, golden, fresh), and exits 1 if
any file differs from that output in any byte.  Its summary line names the
Python and numpy versions: the last bits of a float can depend on them.

A change that moves report values regenerates the files and lists the moved
values (the test prints them) in CHANGES.md.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np

from coldstore.harness import SCENARIOS, run

GOLDEN_DIR = Path(__file__).resolve().parent


def differences(golden, fresh, path=""):
    """(path, golden, fresh) of every leaf where two JSON trees differ; a
    dict or list whose keys or length differ is one leaf."""
    if (isinstance(golden, dict) and isinstance(fresh, dict)
            and golden.keys() == fresh.keys()):
        for key in golden:
            yield from differences(golden[key], fresh[key], f"{path}.{key}")
    elif (isinstance(golden, list) and isinstance(fresh, list)
            and len(golden) == len(fresh)):
        for i, (g, f) in enumerate(zip(golden, fresh)):
            label = g.get("name", i) if isinstance(g, dict) else i
            yield from differences(g, f, f"{path}[{label}]")
    elif json.dumps(golden) != json.dumps(fresh):  # NaN equals NaN here
        yield path, golden, fresh


def check(names: list[str]) -> int:
    """Print what differs from each golden file; 1 if any byte does."""
    differ = 0
    for scenario in names:
        path = GOLDEN_DIR / f"{scenario}.json"
        fresh = run(scenario).canonical_json()
        golden = path.read_text() if path.exists() else None
        if golden == fresh:
            continue
        differ += 1
        if golden is None:
            print(f"{scenario}: no golden file")
            continue
        moved = list(differences(json.loads(golden), json.loads(fresh)))
        for where, g, f in moved:
            print(f"{scenario}{where}: golden {g!r}, fresh {f!r}")
        if not moved:
            print(f"{scenario}: same values, different bytes")
    print(f"{differ} of {len(names)} golden files differ from the package "
          f"(Python {platform.python_version()}, numpy {np.__version__})")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    checking = "--check" in argv
    names = [a for a in argv if a != "--check"]
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        sys.exit(f"unknown scenario(s) {', '.join(unknown)}; available: "
                 f"{', '.join(SCENARIOS)}")
    names = names or list(SCENARIOS)
    if checking:
        return check(names)
    for scenario in names:
        path = GOLDEN_DIR / f"{scenario}.json"
        path.write_text(run(scenario).canonical_json())
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
