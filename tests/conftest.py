"""Collects acceptance verdict lines and prints them after the run.

Every test also fails if a thread it started is still running after it.
"""

import threading
import warnings

import pytest

# Hypothesis imports this module inside a pytest hook to print a failing
# test's example. One of its dependencies raises a DeprecationWarning on
# import, which the "error" warning filter would turn into an internal error
# that hides the example. Importing it once here, with that warning ignored
# for the import alone, leaves every filter on the tests' own code in place.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a Hypothesis without the module, or without its dependencies
        pass

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
