"""Run work beside this process in forked children.

``forked`` runs numbered tasks side by side. Task r runs on worker r % workers,
and worker 0 is this process, which runs its share once every other worker is
forked. A worker runs its whole share in one call, ``run(share)``. The results
are merged in task order, so they do not depend on the worker count. If this
process fails first, it kills the children.

``ForkedCall`` is a child forked before the arguments of its calls exist: it
prepares at once (say, imports what the calls need) while this process
computes the arguments, then serves one call per pickle of arguments it is
sent, until it is closed.

A ``forked`` child pickles its result into a pipe and exits; a ``ForkedCall``
child pickles one result per call and waits for the next. A child that raises
or dies becomes ChildProcessError here, and every child is reaped before the
call that collects it, or ``ForkedCall.close``, returns or raises.

Only ``os.fork`` and ``os.pipe`` are used: importing ``multiprocessing`` or
``concurrent.futures`` would add to the start-up time of every command.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress
from functools import partial
from typing import BinaryIO, Callable, Generic, NoReturn, TypeVar

T = TypeVar("T")


def cpus() -> int:
    """CPUs in this process's affinity mask; 1 where there is none (macOS, Windows), which has no safe fork."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _child(serve: Callable[[BinaryIO], object], write_fd: int, parent_fds: tuple[int, ...]) -> NoReturn:
    """Forked child: close this process's pipe ends, ``serve`` the write end ``write_fd`` and exit.

    ``os._exit`` skips the parent's stack, atexit handlers and buffered
    output, which must run once, in the parent.
    """
    code = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        with os.fdopen(write_fd, "wb") as pipe:
            serve(pipe)
        code = 0
    except Exception:  # an interrupt or exit ends the child quietly; the parent reports it
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


def _fork(serve: Callable[[BinaryIO], object], parent_fds: tuple[int, ...], child_fds: tuple[int, ...]) -> int:
    """Fork a child that writes its results by ``serve`` into the pipe end ``child_fds[0]``; return its pid.

    ``parent_fds`` are the pipe ends only this process uses and ``child_fds``
    those only the child uses; each side closes the other's, and a failed fork
    closes all.
    """
    try:
        pid = os.fork()
    except OSError:
        for fd in (*parent_fds, *child_fds):
            os.close(fd)
        raise
    if pid == 0:
        _child(serve, child_fds[0], parent_fds)
    for fd in child_fds:
        os.close(fd)
    return pid


def _wait(pid: int, pipe: BinaryIO) -> tuple[bytes, int]:
    """Read ``pid``'s pickled result to end of file, then reap it; returns the bytes and its wait status."""
    with pipe:
        payload = pipe.read()
    return payload, os.waitpid(pid, 0)[1]


def _exited(status: int) -> ChildProcessError:
    return ChildProcessError(f"forked worker exited with code {os.waitstatus_to_exitcode(status)}")


def _unpickle(payload: bytes, status: int):
    if status != 0:
        raise _exited(status)
    return pickle.loads(payload)


def _kill(pid: int, pipe: BinaryIO) -> None:
    import signal  # imported here, off every command's start-up

    os.kill(pid, signal.SIGKILL)
    pipe.close()
    os.waitpid(pid, 0)


def _dump(run: Callable[[range], list[T]], share: range, pipe: BinaryIO) -> None:
    pickle.dump(run(share), pipe)


def forked(run: Callable[[range], list[T]], tasks: int, workers: int) -> list[T]:
    """``run(range(tasks))`` with task r run by worker r % workers; worker 0 is this process."""
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = _fork(partial(_dump, run, range(worker, tasks, workers)), (read_fd,), (write_fd,))
            children[pid] = os.fdopen(read_fd, "rb")
        shares = [run(range(0, tasks, workers))]
        for pid in list(children):
            payload, status = _wait(pid, children[pid])
            del children[pid]
            shares.append(_unpickle(payload, status))
    finally:
        for pid, pipe in children.items():  # this process failed first: stop the workers rather than wait
            _kill(pid, pipe)
    return [shares[r % workers][r // workers] for r in range(tasks)]


class ForkedCall(Generic[T]):
    """``call(*args)`` in a child forked now, for ``args`` given later, as often as this object is called.

    The child runs ``prepare()`` at once, then serves calls: it reads one
    pickle of arguments, calls, and writes one pickle of the result. It never
    reads up to end of file, since another child this process forks meanwhile
    holds a copy of the pipe's write end. ``close`` kills the child, so such
    a copy cannot keep it waiting; call ``close`` on every path.
    """

    def __init__(self, call: Callable[..., T], prepare: Callable[[], object]):
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        request_read, request_write, result_read, result_write = fds

        def serve(results: BinaryIO) -> None:
            prepare()
            with os.fdopen(request_read, "rb") as requests:
                while True:
                    try:
                        args = pickle.load(requests)
                    except EOFError:  # every process that could send has closed the pipe
                        return
                    pickle.dump(call(*args), results)
                    results.flush()

        self.pid: int | None = _fork(serve, (request_write, result_read), (result_write, request_read))
        self._request = os.fdopen(request_write, "wb")
        self._result = os.fdopen(result_read, "rb")

    def __call__(self, *args) -> T:
        """What ``call(*args)`` returned in the child; a child that died is reaped and raises ChildProcessError."""
        with suppress(BrokenPipeError):  # a dead child: reading its result below says how it ended
            pickle.dump(args, self._request)
            self._request.flush()
        try:
            return pickle.load(self._result)
        except (EOFError, pickle.UnpicklingError):  # no result, or a cut one: the child closed its end to exit
            status = _wait(self.pid, self._result)[1]
            self.pid = None
            raise _exited(status) from None

    def close(self) -> None:
        if self.pid is not None:
            _kill(self.pid, self._result)
            self.pid = None
        with suppress(BrokenPipeError):  # arguments left unsent to the child, now dead
            self._request.close()
