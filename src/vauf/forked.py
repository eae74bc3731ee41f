"""One job in an os.fork()ed child: the package's one fork, reap and failure path.

`telemetry.CsvWriter` formats the head of a long table in a child, and
`runtime.run_scenario` renders and perceives a long run's frames in one.
Both go through `Forked`:

- the child runs on the CPUs the parent may use, less the one the parent
  runs on at the fork. Linux does not always move a forked child off its
  parent's CPU: on a 2-vCPU x86-64 Firecracker guest, two forked Python
  loops both stayed on CPU 0 and each took twice its time alone, while with
  the child pinned to CPU 1 they ran side by side. The pin is only a
  hint: where the host refuses it, the child runs wherever Linux puts it;
- the child runs its target with SIGINT ignored, so an interrupt reaches the
  parent alone, which then ends the job; it leaves only through `os._exit`,
  running none of the parent's cleanup (atexit hooks, buffered output,
  `finally` blocks up the stack). A target that raises prints its traceback
  straight to file descriptor 2 and exits with status 1;
- the parent reaps the child once, in `reap`, however often it is asked;
- a failed child becomes a `ChildProcessError` naming the job and its exit
  status, from `failure`; leaving a ``with Forked(...)`` block reaps the
  child and raises that error if the block itself did not raise. A block
  that raised kills the child first: its job is moot, and the wait cannot
  hang on a child that waits for its parent.

os.fork makes this POSIX-only, and Python 3.12 and later warn
(DeprecationWarning) when a process with threads forks; OpenBLAS's thread
pool counts, so CI pins Python 3.11 with one BLAS thread. That warning is
issued after the fork, once the pid is kept: where warnings are errors, the
parent kills and reaps the child before the error leaves `Forked`.
"""

from __future__ import annotations

import os
import signal
import traceback
import warnings
from typing import Callable


class Forked:
    """`target()` running in a forked child; `job` names it in a failure."""

    def __init__(self, job: str, target: Callable[[], object]):
        self.job = job
        self._code: int | None = None
        cpus = _other_cpus()
        with warnings.catch_warnings(record=True) as caught:  # re-issued below, once the pid is kept
            warnings.simplefilter("always")
            self.pid = os.fork()
        if self.pid == 0:  # the child leaves only through os._exit, running no cleanup of this process
            status = 1
            try:
                _pin(cpus)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                target()
                status = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode(errors="replace"))
            finally:
                os._exit(status)
        try:
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        except BaseException:  # a warning turned error: end the child, which no caller can reap
            os.kill(self.pid, signal.SIGKILL)
            self.reap()
            raise

    def reap(self) -> int:
        """Wait for the child to exit, once, and return its exit code (negative: killed by that signal)."""
        if self._code is None:
            _, status = os.waitpid(self.pid, 0)
            self._code = os.waitstatus_to_exitcode(status)
        return self._code

    def failure(self, context: str = "") -> ChildProcessError:
        """The error for a child that failed or ended early, after reaping it; context ends the message."""
        return ChildProcessError(f"{self.job} exited with status {self.reap()}{context}")

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._code is None:
            os.kill(self.pid, signal.SIGKILL)  # the block failed, so the job is moot; the wait below cannot hang
        if self.reap() and exc_type is None:
            raise self.failure()


def _pin(cpus: set) -> None:
    """Keep this process on cpus, if the host lets it; the pin only speeds the job up."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # a seccomp profile that denies the call, or a cpuset changed since the fork
            pass


def _other_cpus() -> set:
    """The CPUs this thread may run on, less the one it runs on now; empty where Linux's /proc cannot tell."""
    try:
        with open("/proc/thread-self/stat") as fh:
            now = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39: the CPU it last ran on
        return os.sched_getaffinity(0) - {now}
    except (OSError, AttributeError, ValueError, IndexError):
        return set()
