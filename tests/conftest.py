"""A time limit on every test: a search that stops finding what it should
can turn into an endless scan, and the limit makes that a failure with a
traceback instead of a hang."""

import faulthandler
import os

import pytest

TEST_LIMIT_S = 60  # the slowest test takes well under a second

_stderr = None  # a copy of the terminal's stderr, which test output capture leaves alone


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.fixture(autouse=True)
def time_limit():
    """Dump every thread's traceback and exit if one test runs past the limit."""
    faulthandler.dump_traceback_later(TEST_LIMIT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
