"""A fork-based map over contiguous runs of work items.

``fork_map(fn, items, sizes, min_size)`` returns ``[fn(item) for item in
items]``. When the work is large enough it cuts the items into contiguous
runs of about equal total size, one run per worker. The calling process
works through the first run, and each forked child works through one other
run, sends its results back pickled through a pipe and leaves by
``os._exit``. The results are joined in item order, so they do not depend
on the number of workers.

The worker count is worked out, not set: the CPUs this process may run on
(``os.sched_getaffinity``), capped so that every worker gets at least
``min_size`` of the total size. The map is serial where ``os.fork`` or
``os.sched_getaffinity`` does not exist.

A child never lets an exception escape into its caller's frames (whose
handlers would act for the parent): it sends the exception back and exits.
The parent raises the exception of the earliest run that failed, which is
the one a serial map would raise. On any error or interrupt the parent
kills and reaps every child before it returns.

Fork, not spawn: a spawned worker would import numpy and this package
afresh, which costs more than the work it takes over, and ``fn`` may be a
closure. OpenBLAS stops its thread pool before a fork and starts it again
when it is next needed, so a child may call BLAS.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

import numpy as np

from .errors import HousingRiskError

__all__ = ["fork_map", "runs", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def runs(sizes, n_runs: int) -> list[range]:
    """At most ``n_runs`` contiguous, non-empty runs of item positions of about equal total size.

    Each cut falls at the item boundary nearest to its share of the total.
    """
    edges = np.concatenate([[0.0], np.cumsum(np.asarray(sizes, dtype=float))])
    n = edges.size - 1
    if n_runs <= 1 or n <= 1 or edges[-1] <= 0:
        return [range(n)]
    shares = edges[-1] * np.arange(1, n_runs) / n_runs
    after = np.searchsorted(edges, shares)  # edges[after - 1] < share <= edges[after]
    cuts = np.where(edges[after] - shares <= shares - edges[after - 1], after, after - 1)
    bounds = [0, *sorted({int(c) for c in cuts if 0 < c < n}), n]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def fork_map(fn, items, sizes, min_size: int) -> list:
    """``[fn(item) for item in items]``, with the runs after the first in forked children.

    A run that cannot get a child (``os.fork`` fails) is mapped here, after
    the children's results are in.
    """
    items = list(items)
    n_workers = min(usable_cpus(), int(sum(sizes)) // max(1, min_size))
    parts = runs(sizes, n_workers)
    if len(parts) == 1:
        return [fn(item) for item in items]
    children: list[tuple[int, object]] = []  # (pid, read end) of every child not yet reaped
    try:
        forked = 1
        for part in parts[1:]:
            try:
                _start(fn, [items[i] for i in part], children)
            except OSError:
                break
            forked += 1
        results = [fn(items[i]) for i in parts[0]]
        while children:
            results += _collect(children)
        return results + [fn(items[i]) for part in parts[forked:] for i in part]
    finally:
        for pid, pipe in children:  # left only by an error or an interrupt
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            pipe.close()


def _start(fn, chunk: list, children: list) -> None:
    """Fork a child that maps ``fn`` over ``chunk``; record it in ``children``."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, [fn(item) for item in chunk]), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # sent to the parent, which raises it
                payload = _pickled_error(exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    children.append((pid, os.fdopen(read_fd, "rb")))


def _pickled_error(exc: BaseException) -> bytes:
    """``exc`` pickled, or its type and message if it does not survive pickling."""
    try:
        payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)  # a class whose args do not rebuild it fails here
        return payload
    except Exception:
        described = (type(exc).__qualname__, str(exc), isinstance(exc, HousingRiskError))
        return pickle.dumps((False, described), pickle.HIGHEST_PROTOCOL)


def _collect(children: list) -> list:
    """The results of the first child in ``children``, once it has exited and been reaped."""
    pid, pipe = children[0]
    payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    children.pop(0)
    pipe.close()
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        raise ChildProcessError(f"worker {pid} exited with status {code} before sending its results")
    ok, value = pickle.loads(payload)
    if ok:
        return value
    if isinstance(value, BaseException):
        raise value
    name, message, known = value
    raise HousingRiskError(message) if known else RuntimeError(f"{name}: {message}")
