import faulthandler
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

# Seconds one test's call may run before the run dumps every thread's stack
# and exits, so a loop that stops making progress fails the suite instead of
# hanging it. The slowest test takes about 31 s on a 2-vCPU VM.
TEST_TIME_LIMIT = 300

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is off while plugins configure, so fd 2 is still the real stderr
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=item.config.stash[_STDERR])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
