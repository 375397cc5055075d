"""A per-test time limit, so that a loop that never ends fails its test
instead of stalling the suite.  It uses SIGALRM and so holds on POSIX only;
the slowest test takes about 10 s."""

import signal

import pytest

TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
