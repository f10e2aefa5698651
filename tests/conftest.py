"""Shared test helpers."""

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _time_limit(seconds: float, what: str):
    """Raise TimeoutError inside the block once it has run for
    ``seconds``, so that a regression to a very slow path fails instead
    of hanging the suite."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(seconds, what):`` bounds the wall time of a block."""
    return _time_limit
