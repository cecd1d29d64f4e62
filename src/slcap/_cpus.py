"""Independent blocks of work spread over the CPUs in the affinity set, with no setting.

``_run_blocks`` runs numeric blocks on threads (numpy releases the GIL);
``write_blocks`` formats text blocks in forked processes (formatting holds it).
Both give the same result as a plain loop over the blocks, at any CPU count.
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
import warnings
from time import perf_counter


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(block, n_blocks: int) -> None:
    """Call ``block(i)`` once for each i < ``n_blocks``, on every usable CPU.

    The caller works too, beside one thread per further CPU, each taking the next
    index from a shared counter; on one CPU no thread starts.  The first exception
    raised in any call stops the remaining work and is re-raised here, in the
    calling thread, once every thread has ended.
    """
    indices = iter(range(n_blocks))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work():
        try:
            while not errors:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                block(i)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), n_blocks) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _fork() -> int:
    # From Python 3.12, fork() beside other OS threads (numpy's BLAS pool) warns
    # that the child may deadlock.  The child here only formats text, writes it
    # to its spill file and leaves with os._exit, so the warning is not shown.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        return os.fork()


# The caller's cost per forked range: the fork, and the copy-on-write faults it
# brings to both processes.  n = isqrt(W / c) first makes two ranges at W = 4c.
# On a 2-CPU x86_64 host, in a 52 MB process, two ranges ran slower than one on
# a 1-degree pattern grid (57 ms to format) and faster on a 0.8-degree one (89 ms).
_CHILD_S = 0.02


def write_blocks(fh, block, n_blocks: int) -> None:
    """Write the texts ``block(0)``, ..., ``block(n_blocks - 1)`` to the text file ``fh``.

    The blocks are split into contiguous ranges, at most one per usable CPU.
    The caller formats the first range straight into ``fh``; each other range
    is formatted in a forked child, into an unnamed temporary file that the
    caller then copies onto ``fh`` in order.  So the bytes are those of the
    plain loop.  A range whose child fails, or could not be forked, is
    formatted by the caller, so any error is raised here as the plain loop
    raises it.

    The time of block 0, formatted first, estimates the work W of all blocks.
    The caller forks its children one after another before the rest of its
    range, so n ranges take about (n - 1) * c + W / n for a cost c per child.
    That is least at n = sqrt(W / c), and no more ranges than that are made.
    One range, as without ``os.fork``, is the plain loop.
    """
    start = perf_counter()
    if n_blocks:
        fh.write(block(0))
    work_s = (perf_counter() - start) * n_blocks
    most = math.isqrt(int(work_s / _CHILD_S)) if hasattr(os, "fork") else 1
    n_ranges = max(1, min(_usable_cpus(), n_blocks, most))
    bounds = [n_blocks * k // n_ranges for k in range(n_ranges + 1)]
    children = []  # [pid, spill file, first index, end index] per further range, in order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            child = [None, None, lo, hi]
            children.append(child)
            try:
                child[1] = spill = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                pid = _fork()
            except OSError:  # no spill file or no process to spare: the caller formats it
                continue
            if pid == 0:
                code = 1
                try:
                    for i in range(lo, hi):
                        spill.write(block(i))
                    spill.flush()
                    code = 0
                finally:  # os._exit runs none of the caller's handlers, flushes or exit hooks
                    os._exit(code)
            child[0] = pid
        for i in range(1, bounds[1]):
            fh.write(block(i))
        for child in children:
            pid, spill, lo, hi = child
            done = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            child[0] = None  # reaped
            if done:
                spill.seek(0)
                shutil.copyfileobj(spill, fh)
            else:
                for i in range(lo, hi):
                    fh.write(block(i))
    finally:
        for pid, spill, _, _ in children:
            if pid is not None:  # the caller failed before this child was reaped
                os.waitpid(pid, 0)
            if spill is not None:
                spill.close()
