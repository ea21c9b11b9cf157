"""Shared test configuration.

One hypothesis profile for every property test: derandomized, so a run
draws the same examples every time; no example database, so nothing is
written next to the tests; no deadline, since the numpy-heavy examples
vary in time with the host.

Every test must reap every child process it starts, directly or through
the code under test (the CLI tests start the console entry point): a
child left running or unreaped fails the test that left it.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("vrjplab", max_examples=25, derandomize=True,
                          database=None, deadline=None)
settings.load_profile("vrjplab")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " +
                ("running" if pid == 0 else f"unreaped (pid {pid})"))
