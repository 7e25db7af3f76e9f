import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from quotlab.errors import ResourceCapError
from quotlab.parallel import run_chunks


def square(x):
    return x * x


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs every task in this process
    and, like the real pool, raises a task's exception when its result is
    read."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        outcomes = []
        for task in tasks:
            try:
                outcomes.append((fn(task), None))
            except Exception as exc:
                outcomes.append((None, exc))
        for value, exc in outcomes:
            if exc is not None:
                raise exc
            yield value


def test_pool_that_cannot_be_created_falls_back_inline(monkeypatch):
    def refuse(max_workers):
        raise OSError("no semaphores")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert run_chunks(square, [1, 2, 3], workers=2) == [1, 4, 9]


def test_kernel_error_propagates_without_a_rerun(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    calls = []

    def failing(task):
        calls.append(task)
        raise ValueError(f"bad task {task}")

    tasks = [1, 2, 3]
    with pytest.raises(ValueError, match="bad task 1"):
        run_chunks(failing, tasks, workers=2)
    assert calls == tasks


class DeadWorkerPool(InlinePool):
    """A pool whose worker was killed: reading results raises
    BrokenProcessPool, as the real pool does after an OOM kill."""

    def map(self, fn, tasks):
        raise BrokenProcessPool("a child process terminated abruptly")


def test_dead_worker_is_a_resource_cap_error(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadWorkerPool)
    with pytest.raises(ResourceCapError, match="worker process died"):
        run_chunks(square, [1, 2, 3], workers=2)


def test_memory_error_is_a_resource_cap_error():
    def exhausted(task):
        raise MemoryError

    with pytest.raises(ResourceCapError, match="out of memory"):
        run_chunks(exhausted, [1, 2], workers=1)
