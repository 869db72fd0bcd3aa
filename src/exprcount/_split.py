"""The two processes of a split table in `counting.compute_table`.

`Split.fork` starts the worker, a copy of the calling process that holds
its own copy of the rows computed so far.  For every row from then on the
caller (the parent) computes S_k and the odd-j terms of the P sum, and the
worker computes the Q numerator and the even-j terms.  Once per row the
parent sends its two sums down one pipe and the worker its two up the
other, each as 8 little-endian length bytes and the integer's own bytes.
The worker reads before it writes, so no payload size can deadlock.

Both processes then assemble the row with `counting._assemble` and its
exactness checks.  Every sum is an exact integer, so both hold the rows
the serial engine would, and the parent raises every error itself.  The
worker never unblocks SIGINT, so a Ctrl-C to the process group reaches
only the parent; the worker leaves only through ``os._exit``, and the
parent kills and reaps it however the table ends, an interrupt included.
"""

from __future__ import annotations

import os
import signal
import sys

from .counting import _p_terms, _paired_sum, _serial_sums


def may_split() -> bool:
    """Whether a forked worker can run beside this process.

    fork must exist, this process must be allowed at least two CPUs, and no
    other Python thread may run: a fork copies only the calling thread.
    """
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and (threading is None or threading.active_count() == 1)
    )


def _send(fd: int, *values: int) -> None:
    """Write each value as 8 little-endian length bytes and its signed bytes."""
    data = bytearray()
    for v in values:
        size = v.bit_length() // 8 + 1
        data += size.to_bytes(8, "little") + v.to_bytes(size, "little", signed=True)
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> bytearray:
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError("the other process of a split table closed its pipe")
        data += chunk
    return data


def _receive(fd: int, count: int) -> list[int]:
    """``count`` values that `_send` wrote."""
    values = []
    for _ in range(count):
        size = int.from_bytes(_read(fd, 8), "little")
        values.append(int.from_bytes(_read(fd, size), "little", signed=True))
    return values


class Split:
    """One process's side of a split table: the worker's pid and two pipe ends."""

    __slots__ = ("pid", "fds")

    def __init__(self):
        self.pid: int | None = None  # the worker's pid in the parent, 0 in the worker
        self.fds: tuple[int, ...] = ()  # this process's ends: read, write

    def fork(self):
        """Start the worker; returns this process's sums function.

        The table stays serial where `may_split` says no, and without a
        descriptor or a process to spare.
        """
        if not may_split():
            return _serial_sums
        # Blocked, SIGINT and SIGALRM (a caller's deadline) cannot interrupt
        # before the pid and the descriptors are stored, so `end` finds them.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGALRM})
        try:
            self.fds = os.pipe()  # parent to worker
            self.fds += os.pipe()  # worker to parent
            self.pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            return _serial_sums
        down_r, down_w, up_r, up_w = self.fds
        if self.pid == 0:
            os.close(down_w)
            os.close(up_r)
            self.fds = (down_r, up_w)
            return self._worker_sums
        os.close(down_r)
        os.close(up_w)
        self.fds = (up_r, down_w)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return self._parent_sums

    def _parent_sums(self, rows, bkm1, bk):
        s = _paired_sum(rows, bkm1, 3, 4)
        odd = _p_terms(rows, bk, 1, 2)
        try:
            _send(self.fds[1], s, odd)
            q_sum, even = _receive(self.fds[0], 2)
        except (OSError, EOFError) as exc:  # not a BrokenPipeError: stdout is fine
            raise ChildProcessError(f"the row worker ended at k={len(rows) + 1}") from exc
        return s, q_sum, odd + even

    def _worker_sums(self, rows, bkm1, bk):
        q_sum = _paired_sum(rows, bkm1, 0, 2)
        even = _p_terms(rows, bk, 2, 2)
        s, odd = _receive(self.fds[0], 2)
        _send(self.fds[1], q_sum, even)
        return s, q_sum, odd + even

    def end(self) -> None:
        """In the worker, exit; in the parent, close the pipes and reap the worker."""
        if self.pid == 0:
            os._exit(0)  # no exit handlers, no flush of the parent's buffers
        for fd in self.fds:
            os.close(fd)
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
