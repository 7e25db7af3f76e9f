"""Deterministic work partitioning.

Kernels hand run_chunks one task per contiguous range of slope classes
(lines._class_shards, at most ``workers`` of them).  With ``workers`` > 1
the tasks run in a process pool; partial aggregates are merged in task
order, so the result is bit-identical for every worker count.  If a pool
cannot be created (restricted sandboxes), tasks run sequentially with the
same merge order, which cannot change the output.
Running out of memory, or a worker that dies (say, by the OOM killer),
raises ResourceCapError.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .errors import ResourceCapError

T = TypeVar("T")
R = TypeVar("R")


def uses_pool(n_tasks: int, workers: int) -> bool:
    """Whether run_chunks sends ``n_tasks`` tasks to a process pool."""
    return workers > 1 and n_tasks > 1


def run_chunks(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> list[R]:
    """Apply a picklable top-level function to each task, in task order.

    ``workers`` <= 1 runs inline; otherwise a process pool is attempted
    and degraded to inline execution only when it cannot be created.  An
    exception raised by ``fn`` propagates; the job is never rerun.  A
    MemoryError or a dead worker becomes ResourceCapError.
    """
    try:
        if not uses_pool(len(tasks), workers):
            return [fn(t) for t in tasks]
        return _run_in_pool(fn, tasks, workers)
    except MemoryError:
        raise ResourceCapError("out of memory; use a smaller set or fewer workers") from None


def _run_in_pool(fn, tasks, workers):
    # Imported here: inline runs need not pay for the pool machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
    except (OSError, NotImplementedError):
        # No semaphores or process support here (restricted sandboxes).
        return [fn(t) for t in tasks]
    try:
        with pool:
            return list(pool.map(fn, tasks))
    except BrokenProcessPool as exc:
        raise ResourceCapError(
            f"a worker process died ({exc}); use a smaller set or fewer workers") from None
