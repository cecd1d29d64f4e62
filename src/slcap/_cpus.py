"""Independent blocks of work spread over the CPUs in the affinity set, with no setting.

``_run_blocks`` runs numeric blocks on threads (numpy releases the GIL).
``write_blocks`` writes every output file slcap writes (each CSV,
``pattern.csv`` and the Touchstone file, the reports and the SVGs), and may
format a table's blocks in ranges in forked processes, each a ``_Child``
whose ``ok()`` reaps it and says whether its unnamed temporary spill file
holds its range.  The file's bytes, or its error, are those of the plain
serial loop at any CPU count.  Forking is POSIX-only; the children's memory
is in no figure that slcap reports.
"""
from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
import threading
import warnings
from functools import partial
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
    # that the child may deadlock.  A ``_Child`` only formats text, writes
    # it to its spill file and leaves with os._exit, so the warning is not shown.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        return os.fork()


# The caller's cost per forked child: the fork, and the copy-on-write faults it
# brings to both processes.  n = isqrt(W / c) first makes two ranges at W = 4c.
# On a 2-CPU x86_64 host, in a 52 MB process, two ranges ran slower than one on
# a 1-degree pattern grid (57 ms to format) and faster on a 0.8-degree one (89 ms).
_CHILD_S = 0.02

# Rows per block of a table's text: bounds the text held at once, not a setting.
# The writers read it at each call.
BLOCK_ROWS = 4096


class _Child:
    """``work(spill)`` run in a forked child, into an unnamed binary temporary file ``spill``.

    ``ok()`` reaps the child and says whether it exited 0, so that ``spill``, rewound
    to its start, holds all that ``work`` wrote; it is false, with nothing to reap, when
    no file or no process could be had.  Leaving the ``with`` block kills and reaps a
    child not yet reaped, and closes the file.
    """

    def __init__(self, work):
        self.pid = self.spill = None
        try:
            self.spill = tempfile.TemporaryFile()
            pid = _fork()
        except OSError:  # no spill file or no process to spare: ``ok()`` is false
            return
        if pid == 0:
            code = 1
            try:
                work(self.spill)
                self.spill.flush()
                code = 0
            finally:  # os._exit runs none of the caller's handlers, flushes or exit hooks
                os._exit(code)
        self.pid = pid

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:  # the caller failed before it called ``ok()``
            import signal  # here only: its enums raised one command's own peak RSS by 0.5 MB

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.spill is not None:
            self.spill.close()

    def ok(self) -> bool:
        done = self.pid is not None and os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1]) == 0
        self.pid = None  # reaped
        return done and self.spill.seek(0) == 0  # rewound for the caller to read


def write_blocks(path, head: str, block, n_blocks: int) -> None:
    """Write ``head``, then the texts ``block(0)``, ..., ``block(n_blocks - 1)``, to ``path``.

    Every output file slcap writes passes here: the tables, and with no blocks,
    the reports and the SVGs.  Each text is encoded once as UTF-8 and written as
    bytes, so each LF or CR LF is written as formatted, on every OS.

    The time of block 0, formatted first, estimates the work W of all blocks,
    which are split into contiguous ranges, in order: at most one per usable
    CPU, one per block, and ``isqrt(W / _CHILD_S)``.  The caller forks its
    children one after another before it formats the rest of the first range,
    so n ranges take about (n - 1) * c + W / n for a cost c per child, which is
    least at n = sqrt(W / c).  One range, as without ``os.fork``, is the plain
    loop.  The caller formats the first range straight into the file; a
    ``_Child`` formats each other range into its spill file, whose bytes the
    caller then copies on in order, or the caller formats that range itself if
    the child failed.  So the bytes are those of the plain loop, and any error
    is raised here as the plain loop raises it: the caller's range, then each
    child's range in turn.  Every child is killed and reaped before an error
    leaves.
    """
    def write_range(lo, hi, out):
        for i in range(lo, hi):
            out.write(block(i).encode())

    with open(path, "wb") as fh:
        fh.write(head.encode())
        start = perf_counter()
        if n_blocks:
            fh.write(block(0).encode())
        work_s = (perf_counter() - start) * n_blocks
        most = math.isqrt(int(work_s / _CHILD_S)) if hasattr(os, "fork") else 1
        n_ranges = max(1, min(_usable_cpus(), n_blocks, most))
        bounds = [n_blocks * k // n_ranges for k in range(n_ranges + 1)]
        ranges = list(zip(bounds[1:-1], bounds[2:]))  # one child each
        with contextlib.ExitStack() as stack:
            children = [stack.enter_context(_Child(partial(write_range, lo, hi)))
                        for lo, hi in ranges]
            write_range(1, bounds[1], fh)  # block 0 is written above
            for child, (lo, hi) in zip(children, ranges):
                if child.ok():
                    shutil.copyfileobj(child.spill, fh)
                else:
                    write_range(lo, hi, fh)
