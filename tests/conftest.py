"""Shared pytest wiring.

Every hypothesis test runs under one profile: derandomize=True draws the same
examples on every run, so the suite is reproducible, and deadline=None lets
an example take as long as its fit does. Each test sets only its own
max_examples.

Acceptance tests record one status line each; the terminal summary hook
prints them after the run so the lines are visible even when per-test
stdout capture hides them.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
