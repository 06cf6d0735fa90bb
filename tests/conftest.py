"""Suite-wide fixtures."""

import signal

import pytest

# Far above the slowest test (about 6.5 s), so only a hang trips it.
TEST_TIMEOUT_S = 120


def _timed_out(signum, frame):
    raise TimeoutError(f"test still running after {TEST_TIMEOUT_S} s")


@pytest.fixture(autouse=True)
def fail_hung_test():
    """Fail a test that hangs instead of stalling the suite (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
