"""One job in an os.fork()ed child: the package's one fork, message format, reap and failure path.

A job is one function, `serve(request)`: `runtime.run_scenario` sends its
perception worker each frame's tool pose, and `telemetry.CsvWriter` sends
its writer row limits (the `telemetry` docstring describes the writer).
`Forked` serves the requests in a child; `InProcess`, the same interface,
in this process:

- requests and answers cross two pipes pickled, which keeps each float's 8
  bytes. The child pickles back each answer that is not None, in request
  order, and exits once `close` ended the requests and it served them, or
  once this process stops reading. This process's ends are unbuffered, so
  a close has nothing to flush into a pipe whose reader is gone; each write
  is whole, as a request fits one atomic pipe write and the child, SIGINT
  ignored, runs no handler to cut its write short;
- the child runs on the CPUs the parent may use, less the one the parent
  runs on at the fork. Linux does not always move a forked child off its
  parent's CPU: on a 2-vCPU x86-64 Firecracker guest, two forked Python
  loops both stayed on CPU 0 and each took twice its time alone, while with
  the child pinned to CPU 1 they ran side by side. The pin is only a
  hint: where the host refuses it, the child runs wherever Linux puts it;
- the child serves with SIGINT ignored, so an interrupt reaches the parent
  alone, which then ends the job; it leaves only through `os._exit`,
  running none of the parent's cleanup (atexit hooks, buffered output,
  `finally` blocks up the stack). A `serve` that raises prints its
  traceback straight to file descriptor 2 and exits with status 1;
- the parent reaps the child once, in `reap`, however often it is asked;
- a child that failed, or is gone before an answer or a request, becomes a
  `ChildProcessError` naming the job and its exit status, from `failure`;
  one that could not start, because `os.pipe` or `os.fork` failed, becomes
  one naming the job and the reason. Leaving a ``with Forked(...)`` block reaps the child and raises
  that error if the block itself did not raise. A block that raised kills
  the child first: its job is moot, and the wait cannot hang on a child
  that waits for its parent.

os.fork makes this POSIX-only, and Python 3.12 and later warn
(DeprecationWarning) when a process with threads forks; OpenBLAS's thread
pool counts, so CI pins Python 3.11 with one BLAS thread. That warning is
issued after the fork, once the pid is kept: where warnings are errors, the
parent kills and reaps the child before the error leaves `Forked`.
"""

from __future__ import annotations

import collections
import os
import pickle
import signal
import traceback
import warnings
from typing import Callable


class Forked:
    """`serve(request)` for each request sent, in a forked child; `job` names it in a failure."""

    def __init__(self, job: str, serve: Callable[[object], object]):
        self.job = job
        self._code: int | None = None
        cpus = _other_cpus()
        fds: list[int] = []
        try:
            fds += os.pipe()  # requests: the child reads fds[0], this process writes fds[1]
            fds += os.pipe()  # answers: this process reads fds[2], the child writes fds[3]
            with warnings.catch_warnings(record=True) as caught:  # re-issued below, once the pid is kept
                warnings.simplefilter("always")
                self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise ChildProcessError(f"{job} could not start: {exc.strerror or exc}") from exc
        if self.pid == 0:  # the child leaves only through os._exit, running no cleanup of this process
            status = 1
            try:
                os.close(fds[1])
                os.close(fds[2])
                _pin(cpus)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(serve, fds[0], fds[3])
                status = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode(errors="replace"))
            finally:
                os._exit(status)
        os.close(fds[0])
        os.close(fds[3])
        self._requests, self._answers = open(fds[1], "wb", buffering=0), open(fds[2], "rb")
        try:
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        except BaseException as exc:  # a warning turned error: end the child, which no caller can reap
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise

    def send(self, request, context: str = "") -> None:
        """Pickle request to the child; context ends the message of the error for a child that is gone."""
        try:
            self._requests.write(pickle.dumps(request))
        except BrokenPipeError:
            raise self.failure(context) from None

    def receive(self, context: str = ""):
        """The child's next answer, in the order of the requests that have one."""
        try:
            return pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):  # the child ended before or while it answered
            raise self.failure(context) from None

    def close(self) -> None:
        """End the requests; the child exits once it has served those sent. Close may be called again."""
        self._requests.close()

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
        self._requests.close()
        self._answers.close()
        if self.reap() and exc_type is None:
            raise self.failure()


def _serve(serve: Callable[[object], object], request_fd: int, answer_fd: int) -> None:
    """The child: answer each request until the requests end or the parent stops reading."""
    with open(request_fd, "rb") as requests, open(answer_fd, "wb", buffering=0) as answers:
        while True:
            try:
                request = pickle.load(requests)
            except EOFError:  # the parent ended the requests
                return
            answer = serve(request)
            if answer is not None:
                try:
                    pickle.dump(answer, answers)
                except BrokenPipeError:  # the parent stopped reading, as a run that ended before this frame's tick does
                    return


class InProcess:
    """`Forked`'s interface, with `serve` called in this process as each request is sent."""

    def __init__(self, job: str, serve: Callable[[object], object]):
        self.job, self._serve, self._answers = job, serve, collections.deque()

    def send(self, request, context: str = "") -> None:
        if (answer := self._serve(request)) is not None:
            self._answers.append(answer)

    def receive(self, context: str = ""):
        return self._answers.popleft()

    def close(self) -> None:
        pass

    def reap(self) -> int:
        """0: each request was served as it was sent."""
        return 0

    def __enter__(self) -> InProcess:
        return self

    def __exit__(self, *exc) -> None:
        pass


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
