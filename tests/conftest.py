"""Collects acceptance verdict lines and prints them after the run.

Every test also fails if a thread it started is still running after it.
"""

import threading

import pytest

acceptance_lines = []

# how long a test's own threads may take to finish once it returns
THREAD_JOIN_TIMEOUT_S = 5.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(THREAD_JOIN_TIMEOUT_S)
    alive = [t.name for t in started if t.is_alive()]
    if alive:
        pytest.fail(f"threads still running after the test: {alive}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
