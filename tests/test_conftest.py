import subprocess
import sys
from pathlib import Path

LEAKS_THEN_CLEAN = '''
import subprocess


def test_leaks_a_running_child():
    subprocess.Popen(["sleep", "60"])


def test_clean():
    pass
'''


def test_a_leaked_child_fails_only_its_own_test(tmp_path):
    # the suite's conftest.py, with its autouse fixture, next to a test file
    # whose first test leaves a child running
    (tmp_path / "conftest.py").write_text(Path(__file__).with_name("conftest.py").read_text())
    (tmp_path / "test_leak.py").write_text(LEAKS_THEN_CLEAN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "test_leak.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "ERROR test_leak.py::test_leaks_a_running_child" in proc.stdout
    assert "Failed: the test left a child process running" in proc.stdout
    assert "PASSED test_leak.py::test_clean" in proc.stdout
    # the first test's call passed too; only its teardown failed
    assert proc.stdout.strip().splitlines()[-1].startswith("2 passed, 1 error in ")
