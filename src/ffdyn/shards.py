"""Run the trials of a Monte Carlo loop in forked worker processes.

``streams.map_trials`` imports this module the first time it needs more
than one worker, so a run with one worker never loads it.
"""

from __future__ import annotations

import os
import pickle
import signal


def run_shards(row, trials: int, workers: int) -> list:
    """``[row(trial) for trial in range(trials)]`` over 2 <= workers <=
    trials contiguous shards of ``range(trials)``.

    Shard 0 runs in this process.  Every other shard runs in an
    ``os.fork()`` child that pickles its rows, or the error that stopped
    it, back through a pipe and leaves with ``os._exit``.  The rows are
    joined in trial order.  A shard stops at its first failing trial, and
    the error of the lowest failing shard is raised, which is the error the
    serial loop would raise, with its type, message and attributes.  A
    child that ends without sending its rows raises ``RuntimeError``
    naming the shard.  If anything raises here, the pipes are closed and
    the children killed; every child is reaped before this returns.
    """
    bounds = [trials * k // workers for k in range(workers + 1)]
    pids: list[int | None] = []  # None once reaped
    fds: list[int] = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_shard(row, range(lo, hi), write_fd)  # does not return
            finally:
                os.close(write_fd)
            pids.append(pid)
        rows = [row(trial) for trial in range(bounds[1])]
        for k in range(1, workers):
            data = _read_all(fds[k - 1])
            _, status = os.waitpid(pids[k - 1], 0)
            pids[k - 1] = None
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                raise RuntimeError(
                    f"trial shard {k} (trials {bounds[k]}..{bounds[k + 1] - 1}) "
                    f"ended with exit code {code} before sending its rows"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            rows.extend(value)
        return rows
    except BaseException:
        for fd in fds:
            os.close(fd)
        fds.clear()
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        for pid in filter(None, pids):
            os.waitpid(pid, 0)


def _serve_shard(row, trials: range, write_fd: int) -> None:
    """Child side of ``run_shards``: send (True, rows) or (False, the
    error that stopped the shard), then leave without running any of the
    parent's exit handlers; exit code 1 if that could not be sent."""
    status = 1
    try:
        try:
            payload = (True, [row(trial) for trial in trials])
        except Exception as exc:
            payload = (False, exc)
        with os.fdopen(write_fd, "wb") as out:
            out.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
