"""Forked worker processes: spawn, seal, death and reap in one place.

A :class:`Worker` is a fork-context :class:`multiprocessing.Process` and the
parent's end of its ``Pipe()``; shard workers and service slots are both.
Before its target runs, the child points every socket it inherited but its
own pipe end at ``/dev/null`` — the parent ends of earlier workers' pipes,
a slot's pipe to the front end, a listening socket — so each pipe has one
process at either end and a dead peer reads as end-of-file on both sides.
A send or recv that meets a dead worker reaps it and raises one
:class:`WorkerDied` naming it and its exit code.  A worker that ends on its
own is joined, never killed, so it counts in ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
from multiprocessing.connection import wait
from typing import Any, Callable, Optional, Tuple

__all__ = ["PEER_GONE", "Worker", "WorkerDied"]

#: What a send or recv raises when the process at the other end is gone.
PEER_GONE = (EOFError, ConnectionResetError, BrokenPipeError)

# By name: workers share what their parent built (the op table, a progress
# mapping, monkeypatches in tests) by inheriting it.
_FORK = multiprocessing.get_context("fork")


class WorkerDied(RuntimeError):
    """A worker process is gone; the text names it and its exit code."""


def _seal_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at /dev/null.

    They are redirected rather than closed so that an inherited Python
    object that is finalised later closes /dev/null and not whatever file
    has reused its number since.  Plain pipes and files stay:
    multiprocessing's own liveness sentinel is one of them.
    """
    null = os.open(os.devnull, os.O_RDWR)
    for entry in os.listdir("/dev/fd"):
        fd = int(entry)
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd, inheritable=False)
        except OSError:
            pass  # listdir's own descriptor, closed again by now
    os.close(null)


def _sealed(conn, target: Callable[..., None], args: Tuple) -> None:
    _seal_inherited_sockets(conn.fileno())
    target(conn, *args)


class Worker:
    """A forked process running ``target(conn, *args)``; errors call it ``name``."""

    def __init__(self, name: str, target: Callable[..., None], args: Tuple = ()):
        self.name = name
        self.conn, child_conn = _FORK.Pipe()
        self.process = _FORK.Process(target=_sealed, args=(child_conn, target, args), name=name)
        try:
            self.process.start()
        finally:
            child_conn.close()  # the child's now, or nobody's
        self.pid = self.process.pid

    def send(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except PEER_GONE:
            raise self.died("died") from None

    def recv(self, timeout: Optional[float] = None) -> Any:
        """The next message; :class:`WorkerDied` once the worker is gone, or
        :class:`TimeoutError` after ``timeout`` seconds with neither."""
        if timeout is not None and not wait([self.conn, self.process.sentinel], timeout):
            raise TimeoutError(f"{self.name} sent nothing within {timeout:g}s")
        try:
            return self.conn.recv()
        except PEER_GONE:
            raise self.died("died") from None
        except Exception as exc:  # the pipe is out of step for good
            raise self.died(f"sent a message that cannot be read ({exc!r})") from None

    def died(self, how: str) -> WorkerDied:
        """Reap the worker; the error saying ``how`` it ended and its exit code."""
        return WorkerDied(f"{self.name} (pid {self.pid}) {how}; exit code {self.reap()}")

    def gone(self) -> bool:
        """Has the process ended?  (Asks its sentinel, so does not collect it.)"""
        return bool(wait([self.process.sentinel], 0))

    def join(self) -> None:
        """Wait for a worker that is ending on its own; close the pipe."""
        self.process.join()
        self.conn.close()

    def reap(self) -> Optional[int]:
        """Kill the worker (and the group it leads), join it; its exit code."""
        if not self.conn.closed:  # else joined already: the pid may be reused
            try:
                # The group's id is the leader's pid, and stays taken while
                # any member lives, so this kills a group only the worker leads.
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                self.process.kill()  # leads no group (a shard worker, or forked this instant)
            self.join()
        return self.process.exitcode
