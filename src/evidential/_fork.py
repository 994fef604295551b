"""Contiguous runs of work, one per CPU this process may run on.

:func:`forked_map` cuts *count* units of work into runs of at least
*least* units, whose lengths differ by at most one.  It works the first
here and each other run in a child forked from this process, which sends
its result through a pipe as ``marshal`` data and leaves by ``os._exit``.
The results are those of working every run here, in order: a run whose
pipe or child could not be made, or whose child fails or sends nothing,
is worked here again, which raises the error a serial run raises, and an
error here kills and reaps the children before it propagates.  Standard
library only; ``signal`` is imported only where a run is forked.
"""

from __future__ import annotations

import marshal
import os
from contextlib import suppress


def processes(units, least):
    """How many processes share *units* of work: one per CPU this process
    may run on, each with at least *least* units.  One where a fork is
    unsafe or unknown to be safe: without os.fork, or while this process
    runs more than one OS thread (per /proc/self/task: another thread's
    locks would stay held in a child)."""
    try:
        if not hasattr(os, "fork") or len(os.listdir("/proc/self/task")) != 1:
            return 1
        cpus = len(os.sched_getaffinity(0))
    except OSError:
        return 1
    return max(1, min(cpus, units // least))


def runs(count, processes):
    """range(count) as contiguous runs ``(start, stop)``, one per process
    but never an empty one, whose lengths differ by at most one."""
    processes = min(processes, count)
    starts = [count * i // processes for i in range(processes)]
    return list(zip(starts, starts[1:] + [count]))


def forked_map(work, count, least):
    """``[work(start, stop) for start, stop in spans]`` as ``marshal`` data
    reads back, every span after the first worked in a forked child: the
    :func:`runs` of *count* units, one per process of at least *least*
    units.  No child outlives its return or raise."""
    spans = runs(count, processes(count, least))
    if len(spans) < 2:
        return [work(*run) for run in spans]
    import signal  # here, so that loading the command line never loads it

    children = []  # (pid, read end of its pipe, run), None for what was not made
    try:
        # a Ctrl-C waits until each new child is on the list, to be killed
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for run in spans[1:]:
                pid = read = None
                try:
                    read, write = os.pipe()
                    pid = os.fork()
                except OSError:
                    pass
                if pid == 0:
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        with open(write, "wb") as pipe:
                            pipe.write(marshal.dumps(work(*run)))
                        status = 0
                    finally:
                        # out without the parent's cleanup, buffers or handlers
                        os._exit(status)
                children.append((pid, read, run))
                if read is not None:
                    os.close(write)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [work(*spans[0])]
        while children:
            pid, read, run = children[0]
            sent = []
            # to the end before the wait: a result may exceed what a pipe holds
            while pid is not None and (part := os.read(read, 1 << 16)):
                sent.append(part)
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
            children.pop(0)
            if read is not None:
                os.close(read)
            results.append(marshal.loads(b"".join(sent)) if status == 0 and sent else work(*run))
        return results
    finally:
        for pid, read, _ in children:
            with suppress(ProcessLookupError, ChildProcessError):
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            if read is not None:
                os.close(read)
