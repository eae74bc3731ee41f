import errno
import os
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

import vauf.runtime
from vauf import forked
from vauf.forked import Forked, InProcess
from vauf.runtime import run_scenario
from vauf.telemetry import BLOCK_ROWS, write_csv


def refuse_pin(pid, cpus):
    raise PermissionError("sched_setaffinity denied")


def refuse(*args):
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def warn_after_fork(fork):
    """os.fork as Python 3.12 and later run it in a process with threads: the parent warns once the child exists."""

    def fork_and_warn():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    return fork_and_warn


def answers(job, requests, n_answers):
    """What job answers to requests, in order; leaving its block reaps it, and raises if it failed."""
    with job:
        for request in requests:
            job.send(request)
        job.close()
        got = [job.receive() for _ in range(n_answers)]
    return got


def every_third_none(request):
    return None if request % 3 == 1 else [request, request / 7, str(request)]


class TestForked:
    def test_target_runs_in_a_child(self):
        with Forked("the job", lambda request: os.getpid()) as job:
            job.send(None)
            pid = job.receive()
        assert job.reap() == 0 and pid == job.pid != os.getpid()

    def test_failed_target_raises_on_exit(self):
        with pytest.raises(ChildProcessError, match="^the job exited with status 1$"):
            with Forked("the job", lambda request: 1 / 0) as job:
                job.send(None)

    def test_failed_block_kills_the_child(self):
        # the child waits for its next request, which this process holds open: only the kill ends it
        with pytest.raises(RuntimeError, match="block failed"):
            with Forked("the job", lambda request: None) as job:
                raise RuntimeError("block failed")
        assert job.reap() == -signal.SIGKILL

    def test_answers_come_back_in_request_order(self):
        assert answers(Forked("the job", lambda request: 2 * request), range(200), 200) == list(range(0, 400, 2))

    def test_none_answer_sends_nothing(self):
        with Forked("the job", lambda request: request if request % 2 == 0 else None) as job:
            for request in range(10):
                job.send(request)
            job.close()
            assert [job.receive() for _ in range(5)] == [0, 2, 4, 6, 8]
            with pytest.raises(ChildProcessError, match="^the job exited with status 0 after the last answer$"):
                job.receive(" after the last answer")

    def test_send_after_the_child_exited_raises(self):
        job = Forked("the job", lambda request: os._exit(3))
        with pytest.raises(ChildProcessError, match="^the job exited with status 3 before request 1$"):
            with job:
                job.send(0)
                assert job.reap() == 3
                job.send(1, " before request 1")

    def test_close_twice_is_harmless(self):
        with Forked("the job", lambda request: request) as job:
            job.send("x")
            job.close()
            job.close()
            assert job.receive() == "x"
        assert job.reap() == 0

    def test_in_process_answers_as_forked(self):
        requests = range(12)
        got = answers(Forked("the job", every_third_none), requests, 8)
        assert answers(InProcess("the job", every_third_none), requests, 8) == got
        assert got[:2] == [[0, 0.0, "0"], [2, 2 / 7, "2"]]

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_failed_start_raises(self, call, monkeypatch):
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, call, refuse)
        with pytest.raises(ChildProcessError, match="^the job could not start: Resource temporarily unavailable$") as info:
            Forked("the job", lambda request: None)
        assert isinstance(info.value.__cause__, BlockingIOError)
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_refused_pin_runs_the_job(self, monkeypatch):
        # the pin is a hint: where the host refuses it, the job still runs
        monkeypatch.setattr(forked, "_other_cpus", lambda: {0})
        monkeypatch.setattr(os, "sched_setaffinity", refuse_pin)
        assert answers(Forked("the job", lambda request: request + 1), [1], 1) == [2]

    def test_refused_pin_keeps_outputs(self, reference_scenario, tmp_path, monkeypatch):
        sc = replace(reference_scenario, duration=1.5)
        alone = run_scenario(sc)  # 4 frames, in this process
        table = np.random.default_rng(3).normal(size=(3 * BLOCK_ROWS, 5))
        header = ["a", "b", "c", "d", "e"]
        write_csv(table, tmp_path / "pinned.csv", header)
        monkeypatch.setattr(forked, "_other_cpus", lambda: {0})
        monkeypatch.setattr(os, "sched_setaffinity", refuse_pin)
        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        assert run_scenario(sc).table.tobytes() == alone.table.tobytes()
        write_csv(table, tmp_path / "unpinned.csv", header)
        assert (tmp_path / "unpinned.csv").read_bytes() == (tmp_path / "pinned.csv").read_bytes()

    def test_warning_after_fork_reaps_the_child(self, tmp_path, monkeypatch):
        # with warnings as errors the warning leaves Forked as an exception;
        # the child it cannot hand back is killed and reaped before that
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", warn_after_fork(os.fork))
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            Forked("the job", lambda request: None)
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_warning_after_fork_reaps_the_worker(self, reference_scenario, monkeypatch):
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", warn_after_fork(os.fork))
        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            run_scenario(replace(reference_scenario, duration=1.5))
        assert len(os.listdir("/proc/self/fd")) == fds  # both pipes closed at both ends

    def test_warning_after_fork_is_issued(self, monkeypatch):
        monkeypatch.setattr(os, "fork", warn_after_fork(os.fork))
        with pytest.warns(DeprecationWarning, match="multi-threaded"):
            assert answers(Forked("the job", lambda request: request), ["ran"], 1) == ["ran"]
