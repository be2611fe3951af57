import os
import sys

import pytest

from gammapower import specfun

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def table():
    """specfun's column table, emptied and open in this test's context, as certify._check opens it."""
    specfun._table.cache_clear()
    opened = specfun._TABLE_OPEN.set(True)
    try:
        yield specfun._table
    finally:
        specfun._TABLE_OPEN.reset(opened)
        specfun._table.cache_clear()

# PASS/FAIL lines recorded by the acceptance tests; echoed after the run so
# they survive pytest's fd-level output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
