import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quotlab
from quotlab import parallel
from quotlab.errors import ResourceCapError
from quotlab.parallel import run_chunks


def square(x):
    return x * x


def recording(path, body):
    """fn for run_chunks that appends each task to ``path`` (from whichever
    process runs it), then returns ``body(task)``."""

    def fn(task):
        with open(path, "a") as fh:
            fh.write(f"{task}\n")
        return body(task)

    return fn


def calls(path):
    return [int(line) for line in path.read_text().split()] if path.exists() else []


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_forked_results_come_back_in_task_order(tmp_path, workers):
    path = tmp_path / "calls"
    tasks = list(range(1, 8))
    assert run_chunks(recording(path, square), tasks, workers) == [t * t for t in tasks]
    assert sorted(calls(path)) == tasks


def test_tasks_run_in_forked_children():
    parent = os.getpid()
    pids = run_chunks(lambda task: os.getpid(), [1, 2, 3], workers=3)
    assert pids[0] == parent
    assert len({*pids[1:]} - {parent}) == 2


def test_pool_that_cannot_be_created_falls_back_inline(monkeypatch, tmp_path):
    # the pool is the forked children: os.fork fails, as in a sandbox without processes
    def refuse():
        raise OSError("no processes left")

    monkeypatch.setattr(os, "fork", refuse)
    path = tmp_path / "calls"
    parent = os.getpid()
    pids = run_chunks(lambda task: os.getpid(), [1, 2, 3], workers=2)
    assert pids == [parent] * 3
    assert run_chunks(recording(path, square), [1, 2, 3], workers=2) == [1, 4, 9]
    assert sorted(calls(path)) == [1, 2, 3]


def test_missing_fork_runs_inline(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert run_chunks(lambda task: os.getpid(), [1, 2], workers=2) == [os.getpid()] * 2


def wait_for_calls(path, tasks):
    deadline = time.monotonic() + 30
    while not set(tasks) <= set(calls(path)) and time.monotonic() < deadline:
        time.sleep(0.01)


def test_kernel_error_propagates_without_a_rerun(tmp_path):
    # raised in a child; the parent's task waits until every child has
    # recorded its call, so that none is stopped before it runs
    path = tmp_path / "calls"
    parent = os.getpid()

    def body(task):
        if os.getpid() == parent:
            wait_for_calls(path, [2, 3])
        if task == 2:
            raise ValueError(f"bad task {task}")
        return task

    tasks = [1, 2, 3]
    with pytest.raises(ValueError, match="bad task 2"):
        run_chunks(recording(path, body), tasks, workers=3)
    assert sorted(calls(path)) == tasks


def test_kernel_error_in_the_parent_propagates_without_a_rerun(tmp_path):
    path = tmp_path / "calls"
    parent = os.getpid()

    def body(task):
        if os.getpid() == parent:
            wait_for_calls(path, [2])  # the child records its call first
            raise ValueError(f"bad task {task}")
        return task

    with pytest.raises(ValueError, match="bad task 1"):
        run_chunks(recording(path, body), [1, 2], workers=2)
    assert sorted(calls(path)) == [1, 2]


def test_dead_worker_is_a_resource_cap_error():
    parent = os.getpid()

    def body(task):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return task

    with pytest.raises(ResourceCapError, match="worker process died .*signal 9"):
        run_chunks(body, [1, 2], workers=2)


def test_memory_error_in_a_child_is_a_resource_cap_error():
    parent = os.getpid()

    def body(task):
        if os.getpid() != parent:
            raise MemoryError
        return task

    with pytest.raises(ResourceCapError, match="out of memory"):
        run_chunks(body, [1, 2], workers=2)


def test_sigterm_to_a_child_still_kills_it_and_the_handler_is_restored():
    parent = os.getpid()
    before = signal.getsignal(signal.SIGTERM)

    def body(task):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGTERM)
        return task

    with pytest.raises(ResourceCapError, match="worker process died .*signal 15"):
        run_chunks(body, [1, 2], workers=2)
    assert signal.getsignal(signal.SIGTERM) is before


def children_of(pid):
    try:
        return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except OSError:  # the process has ended
        return []


def test_sigterm_to_the_parent_ends_its_children(tmp_path):
    # chain for g = xy on {1..64} with 2 workers forks a child for each walk
    src = str(Path(quotlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quotlab.cli", "chain", "--g", '[{"c":"1","i":1,"j":1}]',
         "--set", '{"kind":"arithmetic","size":64}', "--workers", "2",
         "--out", str(tmp_path / "report.json")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = []
    try:
        deadline = time.monotonic() + 60
        while not children and proc.poll() is None and time.monotonic() < deadline:
            children = children_of(proc.pid)
            time.sleep(0.005)
        assert children, "the run never forked a child"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert not [c for c in children if Path(f"/proc/{c}").exists()]
    finally:
        proc.kill()
        proc.wait()
        for child in children:  # an orphan the run left behind
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Heavy:
    """A result that runs out of memory as it is pickled."""

    def __reduce__(self):
        raise MemoryError


def test_child_out_of_memory_in_pickling_its_result_is_reported_as_such():
    # not as a worker that died with exit code 1
    with pytest.raises(ResourceCapError, match="out of memory; use a smaller set"):
        run_chunks(lambda task: Heavy(), [1, 2], workers=2)


def test_memory_error_is_a_resource_cap_error():
    def exhausted(task):
        raise MemoryError

    for workers in (1, 2):  # inline, and in the parent beside a child
        with pytest.raises(ResourceCapError, match="out of memory"):
            run_chunks(exhausted, [1, 2], workers=workers)


class FakeAffinity:
    """os.sched_getaffinity and os.sched_setaffinity over one mask, with
    every mask set recorded."""

    def __init__(self, mask, fails=False):
        self.mask, self.fails, self.set = set(mask), fails, []

    def get(self, pid):
        assert pid == 0
        return set(self.mask)

    def put(self, pid, mask):
        assert pid == 0
        if self.fails:
            raise OSError("not permitted")
        self.set.append(set(mask))
        self.mask = set(mask)


def test_a_child_steps_off_its_parent_s_cpu_and_stays_pinned_nowhere(monkeypatch):
    for cpu, mask, fails, expected in ((0, {0, 1, 2}, False, [{1, 2}, {0, 1, 2}]),
                                       (0, {0}, False, []),       # no other CPU: left alone
                                       (0, {0, 1}, True, []),     # refused: ignored
                                       (None, {0, 1}, False, [])):  # the CPU was not read
        fake = FakeAffinity(mask, fails)
        monkeypatch.setattr(os, "sched_getaffinity", fake.get)
        monkeypatch.setattr(os, "sched_setaffinity", fake.put)
        parallel._leave_cpu(cpu)
        assert fake.set == expected
        assert fake.mask == mask
    # no affinity API (say, macOS): the CPU is not read and nothing is called
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    assert parallel._parent_cpu() is None
    parallel._leave_cpu(None)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
def test_a_forked_task_sees_its_parent_s_full_affinity():
    allowed = os.sched_getaffinity(0)
    assert parallel._parent_cpu() in allowed
    assert run_chunks(lambda task: os.sched_getaffinity(0), [1, 2, 3], workers=3) == \
        [allowed] * 3
