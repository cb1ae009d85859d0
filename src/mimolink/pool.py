"""Run the noise points of a sweep in forked processes.

:func:`run` deals the noise points round-robin to the calling process
and to children made with plain ``os.fork``, one pipe each, and gathers
their results in noise order. Plain fork, not a multiprocessing start
method: spawned and forkserver children import the package again, which
costs more than the pool gains on a sweep of well under a second.
OpenBLAS runs on one thread while the processes run, so that they do not
oversubscribe the cores: a two-point default DNN sweep at workers = 2 on 2
cores took 2.6-2.9 s so and 5.8-7.0 s without (4 of 4 alternating pairs,
same records); a K-means and L-MMSE one showed no difference (12 pairs,
6-6). :func:`openblas_threads` finds its thread-count calls, and
:func:`keep_heap_resident` keeps glibc from handing a sweep's chunk
buffers back to the kernel between chunks.

Children are forked afresh for every sweep. On a shared 2-core Xeon a
warm ``kmeans_lmmse_2w`` sweep at seed 1 (52-62 ms) paid 0.6-1.1 ms to
fork, about 1 ms to reap (0-2.2 ms), and about 1,480 minor faults in the
parent and 1,775 in the child (``RUSAGE_SELF``/``RUSAGE_CHILDREN`` over 8
sweeps); a copy-on-write fault costs about 2.7 us there. Children are not
kept alive between sweeps: a kept child woken by a pipe write ran on its
waker's CPU in 12 of 12 rounds, so the two halves of a sweep took as long
as in one process, and a kept child would outlive its sweep.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import pickle
import signal
from typing import NoReturn

log = logging.getLogger(__name__)


def size(workers: int, n_points: int) -> int:
    """Processes for a sweep: min(workers, noise points, usable cores), or
    1, with a warning saying why, where ``os.fork`` or the OpenBLAS
    thread-count calls are missing."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    n_processes = max(1, min(workers, n_points, cores))
    if n_processes > 1 and not (hasattr(os, "fork") and openblas_threads() is not None):
        why = "no OpenBLAS thread-count setter was found" if hasattr(os, "fork") else "os.fork is not available"
        log.warning("workers = %d: running every noise point in one process: %s", workers, why)
        return 1
    return n_processes


@functools.cache
def openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS that this process
    has loaded (numpy's wheels bundle one), found among the libraries
    mapped into the process under their known symbol names; None where
    there is no such library or setter."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # address, permissions, offset, device, inode, path
            libraries = sorted({fields[5] for fields in (line.rstrip("\n").split(None, 5) for line in maps)
                                if len(fields) == 6 and "openblas" in fields[5].lower()})
    except OSError:
        return None
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                get, set_ = getattr(library, name.format("get")), getattr(library, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@functools.cache
def keep_heap_resident() -> bool:
    """Raise glibc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB, the ceilings of glibc's own adaptive rule, once per process
    (forked children inherit them), and say whether it took. Below them a
    freed chunk buffer stays in the heap for the next chunk; at the 128 KiB
    defaults each chunk's buffers were mapped and page-faulted afresh
    (about 3900 minor faults a ``long_block`` benchmark sweep). False,
    changing nothing, where there is no ``mallopt`` (macOS, Windows) or it
    refuses (returns 0)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 64 << 20))


def run(run_point, n_points: int, workers: int):
    """``run_point(i)`` for each i in range(n_points), in index order, in
    :func:`size` processes. One process maps lazily, so that the caller
    reduces each result before the next one runs.

    Else this process forks n_processes - 1 children and runs i = 0,
    n_processes, ... itself. Child j runs i = j, j + n_processes, ... and
    pickles its results, or the exception it raised, into its pipe. A
    child's exception is raised here with its type; a child that ends
    without a result (a signal, the OOM killer) raises ChildProcessError
    naming its noise points. The OpenBLAS thread count is 1 while the
    processes run (the children inherit it) and is restored on the way
    out, and no child is left running, whatever happens.
    """
    n_processes = size(workers, n_points)
    if n_processes == 1:
        return map(run_point, range(n_points))
    get_threads, set_threads = openblas_threads()  # not None: size checked it
    threads = get_threads()
    set_threads(1)
    children = []  # (pid, read end of its pipe, its noise indices) until reaped
    try:
        for first in range(1, n_processes):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(run_point, range(first, n_points, n_processes), write_end)
            os.close(write_end)
            children.append((pid, read_end, range(first, n_points, n_processes)))
        results = [None] * n_points
        for i in range(0, n_points, n_processes):
            results[i] = run_point(i)
        while children:
            pid, read_end, indices = children[0]
            with open(read_end, "rb", closefd=False) as pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read_end)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"the worker process for noise points {list(indices)} {how} "
                                        "without a result")
            sent = pickle.loads(sent)  # bytes that a child of this process wrote
            if isinstance(sent, BaseException):
                raise sent
            for i, result in zip(indices, sent):
                results[i] = result
        return results
    finally:
        for pid, read_end, _ in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(read_end)
        set_threads(threads)


def _child(run_point, indices: range, write_end: int) -> NoReturn:
    """The body of a forked child: run its points, send the results (or
    the exception) to the parent, and leave without returning into the
    parent's stack or running its exit handlers."""
    status = 1
    try:
        try:
            sent = [run_point(i) for i in indices]
        except BaseException as exc:  # the parent raises it
            sent = exc
        with open(write_end, "wb") as pipe:
            pickle.dump(sent, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
