import os
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

import vauf.runtime
from vauf import forked
from vauf.forked import Forked
from vauf.runtime import run_scenario
from vauf.telemetry import BLOCK_ROWS, write_csv


def refuse_pin(pid, cpus):
    raise PermissionError("sched_setaffinity denied")


def warn_after_fork(fork):
    """os.fork as Python 3.12 and later run it in a process with threads: the parent warns once the child exists."""

    def fork_and_warn():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    return fork_and_warn


class TestForked:
    def test_target_runs_in_a_child(self, tmp_path):
        with Forked("the job", lambda: (tmp_path / "pid").write_text(str(os.getpid()))) as job:
            pass
        assert job.reap() == 0 and int((tmp_path / "pid").read_text()) == job.pid != os.getpid()

    def test_failed_target_raises_on_exit(self):
        with pytest.raises(ChildProcessError, match="^the job exited with status 1$"):
            with Forked("the job", lambda: 1 / 0):
                pass

    def test_failed_block_kills_the_child(self):
        # the child waits on a pipe this process holds open: only the kill ends it
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(RuntimeError, match="block failed"):
                with Forked("the job", lambda: os.read(read_end, 1)) as job:
                    raise RuntimeError("block failed")
        finally:
            os.close(read_end)
            os.close(write_end)
        assert job.reap() == -signal.SIGKILL

    def test_refused_pin_runs_the_job(self, tmp_path, monkeypatch):
        # the pin is a hint: where the host refuses it, the job still runs
        monkeypatch.setattr(forked, "_other_cpus", lambda: {0})
        monkeypatch.setattr(os, "sched_setaffinity", refuse_pin)
        with Forked("the job", lambda: (tmp_path / "ran").touch()):
            pass
        assert (tmp_path / "ran").exists()

    def test_refused_pin_keeps_outputs(self, reference_scenario, tmp_path, monkeypatch):
        sc = replace(reference_scenario, duration=1.5)
        alone = run_scenario(sc)  # 4 frames, in this process
        table = np.random.default_rng(3).normal(size=(3 * BLOCK_ROWS, 5))
        write_csv(table, tmp_path / "pinned.csv")
        monkeypatch.setattr(forked, "_other_cpus", lambda: {0})
        monkeypatch.setattr(os, "sched_setaffinity", refuse_pin)
        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        assert run_scenario(sc).table.tobytes() == alone.table.tobytes()
        write_csv(table, tmp_path / "unpinned.csv")
        assert (tmp_path / "unpinned.csv").read_bytes() == (tmp_path / "pinned.csv").read_bytes()

    def test_warning_after_fork_reaps_the_child(self, tmp_path, monkeypatch):
        # with warnings as errors the warning leaves Forked as an exception;
        # the child it cannot hand back is killed and reaped before that
        monkeypatch.setattr(os, "fork", warn_after_fork(os.fork))
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            Forked("the job", lambda: (tmp_path / "ran").touch())

    def test_warning_after_fork_reaps_the_worker(self, reference_scenario, monkeypatch):
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", warn_after_fork(os.fork))
        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            run_scenario(replace(reference_scenario, duration=1.5))
        assert len(os.listdir("/proc/self/fd")) == fds  # both pipes closed at both ends

    def test_warning_after_fork_is_issued(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", warn_after_fork(os.fork))
        with pytest.warns(DeprecationWarning, match="multi-threaded"):
            with Forked("the job", lambda: (tmp_path / "ran").touch()):
                pass
        assert (tmp_path / "ran").exists()
