"""Rewrite the golden canonical reports in this directory.

Runs every registered scenario at its default config and writes
``Report.canonical_json()`` to ``<scenario>.json``, byte for byte (so a
file's sha256 is the report's canonical hash).  ``tests/test_golden.py``
compares fresh runs against these files.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py

A change that moves report values regenerates the files and lists the moved
values (the test prints them) in CHANGES.md.
"""

from pathlib import Path

from coldstore.harness import SCENARIOS, run

GOLDEN_DIR = Path(__file__).resolve().parent


def main() -> None:
    for scenario in SCENARIOS:
        path = GOLDEN_DIR / f"{scenario}.json"
        path.write_text(run(scenario).canonical_json())
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
