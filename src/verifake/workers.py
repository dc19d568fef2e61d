"""Work split across forked child processes.

A forked child starts as a copy of this process, so it reads the parent's
arrays without pickling them, and it hands its result back through an
anonymous temp file made before the fork. A child runs only plain Python
and numpy elementwise operations and sums, never BLAS, whose threads do
not survive a fork.
"""

import contextlib
import os
import sys


def worker_count(size, minimum) -> int:
    """The number of processes to split `size` units of work across: the
    usable CPUs from `minimum` units on, where os.fork and
    os.sched_getaffinity exist; else 1."""
    if size >= minimum and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _child(job, out) -> None:
    """Body of a forked child: job(out), then os._exit, so the child never
    runs the parent's cleanup or flushes the parent's buffers."""
    code = 1
    try:
        job(out)
        out.flush()
        code = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


@contextlib.contextmanager
def forked(jobs, own):
    """Run each of `jobs` in a forked child on an anonymous temp file it
    writes its output to, and own() here meanwhile. Yields own()'s result
    and the children's files, rewound and in job order, once every child
    has exited. A child that fails raises OSError."""
    import tempfile

    with contextlib.ExitStack() as stack:
        # made before the forks, so that each child inherits its file
        files = [stack.enter_context(tempfile.TemporaryFile()) for _ in jobs]
        pids = []
        try:
            for job, out in zip(jobs, files):
                pid = os.fork()
                if pid == 0:
                    _child(job, out)
                pids.append(pid)
            result = own()
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        failed = [code for code in codes if code]
        if failed:
            raise OSError(
                f"{len(failed)} of {len(jobs)} worker processes failed (exit codes {failed})"
            )
        for out in files:
            out.seek(0)
        yield result, files


def read_exactly(fh, buffer) -> None:
    """Fill `buffer` from what a worker wrote to `fh`."""
    if fh.readinto(buffer) != memoryview(buffer).nbytes:
        raise OSError("a worker process wrote a truncated result")
