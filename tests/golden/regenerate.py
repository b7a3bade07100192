"""Rewrite the golden canonical reports in this directory.

Runs the named scenarios (every registered one if none is named) at their
default config and writes ``Report.canonical_json()`` to
``<scenario>.json``, byte for byte (so a file's sha256 is the report's
canonical hash); the other files are left as they are.
``tests/test_golden.py`` compares fresh runs against these files.  Run
from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py [SCENARIO ...]

A change that moves report values regenerates the files and lists the moved
values (the test prints them) in CHANGES.md.
"""

import sys
from pathlib import Path

from coldstore.harness import SCENARIOS, run

GOLDEN_DIR = Path(__file__).resolve().parent


def main(names: list[str]) -> None:
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        sys.exit(f"unknown scenario(s) {', '.join(unknown)}; available: "
                 f"{', '.join(SCENARIOS)}")
    for scenario in names or SCENARIOS:
        path = GOLDEN_DIR / f"{scenario}.json"
        path.write_text(run(scenario).canonical_json())
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
