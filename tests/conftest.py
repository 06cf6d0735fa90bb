"""Suite-wide hooks."""

import signal

import pytest

# Far above the slowest test (about 6.5 s), so only a hang trips it.
TEST_TIMEOUT_S = 120


def _timed_out(signum, frame):
    raise TimeoutError(f"test still running after {TEST_TIMEOUT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail a test that hangs instead of stalling the suite (where SIGALRM exists).

    The alarm spans the whole protocol of one test, so it also covers the
    set-up of module-scoped fixtures that the test is the first to use.
    """
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
