"""A time bound on every phase of every test, so that a search that blows up
fails its test instead of hanging the run.

The bound is armed by hook wrappers around the set-up, call and teardown of
each test, not by a fixture: an autouse fixture is set up after the
module-scoped fixtures, such as the censuses ``test_acceptance`` shares, so a
hang there would go unbounded.
"""

import signal
from contextlib import contextmanager

import pytest

# seconds per phase; the slowest default test takes a few seconds and the slow
# count of the graphs on 8 vertices about 30
TIME_BOUND = 120


class TimeBoundExceeded(BaseException):
    """Raised where a test phase ran past ``TIME_BOUND``.  Not an
    ``Exception``, and not pytest's ``Failed``, which Hypothesis catches to
    shrink and replay the example, unbounded: so only ``time_bound`` catches
    it."""


@contextmanager
def time_bound(when: str):
    """Fail the phase ``when`` once it has run ``TIME_BOUND`` seconds, where
    the platform has ``SIGALRM``."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeBoundExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_BOUND)
    expired = False
    try:
        yield
    except TimeBoundExceeded:
        expired = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        # the message alone, with no chained exception: the traceback runs
        # through the interrupted frame, whose line number may be None, and
        # pytest cannot format that
        message = f"the test's {when} ran past its time bound of {TIME_BOUND} s"
        raise pytest.fail.Exception(message, pytrace=False) from None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with time_bound("setup"):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with time_bound("call"):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with time_bound("teardown"):
        return (yield)
