import os

import pytest
from hypothesis import settings

# Property tests explore fresh random examples locally.  In CI (GitHub
# Actions sets CI) they draw the same examples on every run, so a red CI run
# reproduces locally with ``pytest --hypothesis-profile=ci``.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# test_acceptance.py registers one line per criterion here; the terminal
# summary hook prints them after the run so the pass/fail lines are visible
# even with output capture on.
_ACCEPTANCE_LINES: dict[int, str] = {}


def record_acceptance(number: int, description: str, ok: bool) -> None:
    line = f"[acceptance {number:2d}] {'PASS' if ok else 'FAIL'} - {description}"
    _ACCEPTANCE_LINES[number] = line
    print(line)


@pytest.fixture(scope="session")
def acceptance():
    return record_acceptance


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])
