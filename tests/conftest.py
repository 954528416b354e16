"""Prints one PASS/FAIL line per acceptance criterion after the run, and
fails any test that leaves a child process unreaped.

The acceptance tests in test_acceptance.py are the go / no-go gate for the
package; their outcomes are echoed in a dedicated summary block so they are
visible regardless of pytest's output capturing.
"""

import os

import pytest

_acceptance_outcomes = []


@pytest.fixture(autouse=True)
def no_child_left():
    """fastslow runs in one process: a test that leaves a child process
    running or unreaped fails."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process " + ("is still running" if pid == 0 else
                                      f"{pid} was left unreaped"))


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_outcomes.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_outcomes:
        tag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{tag} {name}")
