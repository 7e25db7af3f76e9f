"""Deterministic work partitioning.

Kernels hand run_chunks one task per contiguous range of slope classes
(lines._class_shards, at most ``workers`` of them).  With ``workers`` > 1
the parent runs the first task itself while each other task runs in a
child made by ``os.fork``, which sends its pickled result back through a
pipe; partial aggregates are merged in task order, so the result is
bit-identical for every worker count.  Where ``fork`` is missing or fails
(restricted sandboxes), the tasks run inline with the same merge order,
which cannot change the output.  Forking, and the SIGTERM handler set
while children run, assume a single-threaded process, as the CLI is.
Running out of memory, in the parent or in a child, or a child that dies
(say, by the OOM killer), raises ResourceCapError.  The kernel may leave a
new child on its parent's CPU for the whole run, so that the two take
turns; each child first steps off that CPU (_leave_cpu).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from .errors import OUT_OF_MEMORY, ResourceCapError

T = TypeVar("T")
R = TypeVar("R")

_CHILD_OUT_OF_MEMORY = 3  # exit status of a child that ran out of memory


def run_chunks(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> list[R]:
    """Apply ``fn`` to each task and return the results in task order.

    ``workers`` <= 1 runs inline.  Otherwise task k runs in process
    k mod n, n = min(workers, len(tasks)): the parent is process 0 and
    the others are forked children; when a fork fails, the parent also
    runs the tasks left without a child.  Results must pickle.  An
    exception raised by ``fn`` propagates, the job is never rerun, and no
    child outlives the call: a SIGTERM to the parent while children run
    ends them and exits with status 143.  A MemoryError or a dead child
    becomes ResourceCapError.
    """
    try:
        if workers <= 1 or len(tasks) <= 1 or not hasattr(os, "fork"):
            return [fn(t) for t in tasks]
        return _run_forked(fn, tasks, min(workers, len(tasks)))
    except MemoryError:
        raise ResourceCapError(OUT_OF_MEMORY) from None


def _run_forked(fn, tasks, n):
    # Imported here: inline runs and set-up need not pay for them.
    import pickle
    import signal
    results: list = [None] * len(tasks)
    children = []  # (k, pid, read end of its pipe), in k order
    reaped = 0
    cpu = _parent_cpu()
    # a SIGTERM exits through the finally below, which ends the children
    on_sigterm = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # the child: never returns to the caller
                code = 1
                try:
                    signal.signal(signal.SIGTERM, on_sigterm)
                    os.close(r)
                    _leave_cpu(cpu)
                    try:
                        outcome = (True, [fn(t) for t in tasks[k::n]])
                    except Exception as exc:
                        outcome = (False, exc)
                    with open(w, "wb") as pipe:
                        pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                except MemoryError:  # say, in pickling the result
                    code = _CHILD_OUT_OF_MEMORY
                finally:
                    os._exit(code)
            os.close(w)  # a later child must not inherit it, or EOF waits for that child
            children.append((k, pid, open(r, "rb")))
        for k in (0, *range(len(children) + 1, n)):
            results[k::n] = [fn(t) for t in tasks[k::n]]
        for k, pid, pipe in children:
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code == _CHILD_OUT_OF_MEMORY:
                raise MemoryError
            if code != 0:
                how = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise ResourceCapError(f"a worker process died ({how}); "
                                       "use a smaller set or fewer workers")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[k::n] = value
        return results
    finally:
        for _, pid, pipe in children[reaped:]:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        signal.signal(signal.SIGTERM, on_sigterm)


def _parent_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or
    None where that cannot be read or no affinity can be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the fields after the command name, which may hold ")", start at field 3
            return int(fh.read().rpartition(b")")[2].split()[39 - 3])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Where this process may run on a CPU other than ``cpu``, restrict it
    to the others, which moves it off ``cpu``, and straight back to its
    full affinity, so that it stays pinned nowhere."""
    if cpu is None:  # also where the affinity calls are missing
        return
    try:
        allowed = os.sched_getaffinity(0)
        if allowed - {cpu}:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)
