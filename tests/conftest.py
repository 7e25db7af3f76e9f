import os
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "quotlab",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("quotlab")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.  A
    running one is killed and reaped first, so that later tests start
    clean."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:  # every thread's list of running children
        for path in Path("/proc/self/task").glob("*/children"):
            for child in map(int, path.read_text().split()):
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
    pytest.fail(f"the test left a child process {'running' if pid == 0 else 'unreaped'}")
