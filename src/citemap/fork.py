"""Run numbered tasks side by side in forked worker processes.

Task r runs on worker r % workers, and worker 0 is this process, which runs
its share once every other worker is forked. A worker runs its whole share in
one call, ``run(share)``, and a child pickles the returned list into a pipe.
The results are merged in task order, so they do not depend on the worker
count. A child that raises or dies becomes ChildProcessError here; if this
process fails first, it kills the children. Either way every child is reaped
before ``forked`` returns or raises.

Only ``os.fork`` and ``os.pipe`` are used: importing ``multiprocessing`` or
``concurrent.futures`` would add to the start-up time of every command.
"""

from __future__ import annotations

import os
import pickle
from typing import BinaryIO, Callable, NoReturn, TypeVar

T = TypeVar("T")


def cpus() -> int:
    """CPUs in this process's affinity mask; 1 where there is none (macOS, Windows), which has no safe fork."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker(run: Callable[[range], list], share: range, read_fd: int, write_fd: int) -> NoReturn:
    """Forked child: pickle ``run(share)`` into the pipe and exit.

    ``os._exit`` skips the parent's stack, atexit handlers and buffered
    output, which must run once, in the parent.
    """
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(run(share), pipe)
        code = 0
    except Exception:  # an interrupt or exit ends the child quietly; the parent reports it
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


def forked(run: Callable[[range], list[T]], tasks: int, workers: int) -> list[T]:
    """``run(range(tasks))`` with task r run by worker r % workers; worker 0 is this process."""
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(run, range(worker, tasks, workers), read_fd, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        shares = [run(range(0, tasks, workers))]
        for pid, pipe in list(children.items()):
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            pipe.close()
            del children[pid]
            if status != 0:
                raise ChildProcessError(f"forked worker exited with code {os.waitstatus_to_exitcode(status)}")
            shares.append(pickle.loads(payload))
    finally:
        if children:  # this process failed first: stop the workers rather than wait for them
            import signal
            for pid, pipe in children.items():
                os.kill(pid, signal.SIGKILL)
                pipe.close()
                os.waitpid(pid, 0)
    return [shares[r % workers][r // workers] for r in range(tasks)]
