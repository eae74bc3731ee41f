import itertools
import logging
import math
import os
import pickle
import re
import signal
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

import vauf.controller
import vauf.forked
import vauf.monitor
import vauf.runtime
import vauf.spatial
import vauf.surface
import vauf.tanks
import vauf.telemetry
from vauf.camera import CameraModel, EmptyViewError, render
from vauf.perception import NoSegmentError
from vauf.runtime import (
    PolicyConfig,
    Scenario,
    SimulationDiverged,
    plant_step,
    run_scenario,
    start_pose,
    wiping_policy,
)
from vauf.spatial import rotation_log
from vauf.telemetry import BLOCK_ROWS, COLUMNS, rows_to_columns, write_csv
from conftest import flat, shared_counts

POLICY = PolicyConfig()


class TestWipingPolicy:
    def test_start(self):
        offset, f_d_z = wiping_policy(0.0, POLICY)
        assert np.allclose(offset, 0.0)
        assert len(offset) == 2
        assert f_d_z == 15.0

    def test_quarter_period(self):
        t = np.pi / 2
        offset, _ = wiping_policy(t, POLICY)
        assert offset[0] == pytest.approx(0.04 * np.sin(np.pi), abs=1e-15)
        assert offset[1] == pytest.approx(0.04 * (np.cos(np.pi) - 1.0) - 0.005 * t, abs=1e-15)
        assert offset[1] == pytest.approx(-0.0879, abs=1e-4)

    def test_force_constant(self):
        for t in np.linspace(0.0, 20.0, 25):
            _, f_d_z = wiping_policy(t, POLICY)
            assert f_d_z == 15.0


M_DIAG = (5.0,) * 3 + (0.3,) * 3
EYE = flat(np.eye(3))
AT_REST = (EYE, (0.0,) * 3, (0.0,) * 6)  # (rotation, position, twist)


class TestPlantStep:
    def test_zero_wrench_uniform_motion(self):
        twist = (0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        _, position, out = plant_step(EYE, (0.0,) * 3, twist, (1.0,) * 6, (0.0,) * 6, (0.0,) * 6, 1e-3)
        assert np.allclose(out, twist)
        assert np.allclose(position, [0.1e-3, 0.0, 0.0])

    def test_constant_force_velocity(self):
        state = AT_REST
        f = (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for _ in range(1000):
            state = plant_step(*state, (5.0,) * 6, f, (0.0,) * 6, 1e-3)
        assert state[2][0] == pytest.approx(2.0 / 5.0, rel=1e-3)

    def test_pure_rotation_integrates_to_half_turn(self):
        state = (EYE, (0.0,) * 3, (0.0, 0.0, 0.0, 0.0, 0.0, np.pi))
        for _ in range(1000):
            state = plant_step(*state, (1.0,) * 6, (0.0,) * 6, (0.0,) * 6, 1e-3)
        w = rotation_log(state[0])
        assert abs(np.linalg.norm(w) - np.pi) < 1e-6

    def test_inputs_left_unchanged(self):
        # the state is immutable tuples of floats, so the loop may alias them freely
        rotation, position, twist = EYE, (0.0,) * 3, (0.1, 0.0, 0.0, 0.0, 0.0, 0.2)
        out = plant_step(rotation, position, twist, M_DIAG, (1.0,) * 6, (0.0,) * 6, 1e-3)
        assert all(type(part) is tuple and all(type(x) is float for x in part) for part in out)
        assert [len(part) for part in out] == [9, 3, 6]
        assert rotation == EYE and position == (0.0,) * 3 and twist == (0.1, 0.0, 0.0, 0.0, 0.0, 0.2)

    def test_non_finite_aborts(self):
        bad = (np.nan, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(SimulationDiverged):
            plant_step(*AT_REST, M_DIAG, bad, (0.0,) * 6, 1e-3)

    @pytest.mark.parametrize(
        "f_cmd, f_ext",
        [
            ((0.0,) * 6, (0.0, math.inf, 0.0, 0.0, 0.0, 0.0)),
            ((0.0, 0.0, 0.0, 0.0, -math.inf, 0.0), (0.0,) * 6),
            ((0.0, 0.0, math.inf, 0.0, 0.0, 0.0), (0.0, 0.0, -math.inf, 0.0, 0.0, 0.0)),  # inf - inf is nan
            ((0.0, 1e308, 0.0, 0.0, 0.0, 0.0), (0.0, 1e308, 0.0, 0.0, 0.0, 0.0)),  # overflows to inf
        ],
        ids=["inf-f_ext-force", "minus-inf-f_cmd-torque", "inf-against-minus-inf", "overflow-on-one-axis"],
    )
    def test_non_finite_component_aborts(self, f_cmd, f_ext):
        with pytest.raises(SimulationDiverged):
            plant_step(*AT_REST, M_DIAG, f_cmd, f_ext, 1e-3)

    def test_finite_components_with_overflowing_sum_step(self):
        # each component of f_cmd + f_ext is finite, only their six-term sum is not
        f_cmd = (1e308, 1e308, 0.0, 0.0, 0.0, 0.0)
        f_ext = (0.0, 0.0, 1e308, 0.0, 0.0, 0.0)
        assert math.isinf(sum(f_cmd) + sum(f_ext))
        _, position, twist = plant_step(*AT_REST, M_DIAG, f_cmd, f_ext, 1e-3)
        assert all(map(math.isfinite, position + twist))


class TestScenario:
    def test_cadence_must_divide(self):
        with pytest.raises(ValueError):
            Scenario(dt_control=1e-3, dt_perception=2.5e-4 * 1.3)

    def test_perception_stride(self):
        assert Scenario().perception_stride == 300

    def test_start_pose_height(self):
        sc = Scenario(start_x=0.0, start_y=0.0, start_height=0.05, start_tilt_deg=0.0)
        p = start_pose(sc)
        h0 = float(sc.surface.height_unchecked(0.0, 0.0))
        assert p.position[2] == pytest.approx(h0 + sc.tool_radius + 0.05)


class TestRunScenario:
    def test_short_run_completes_with_full_telemetry(self):
        sc = Scenario(duration=1.2, start_height=0.005, start_y=0.0684)
        res = run_scenario(sc)
        assert res.completed
        assert res.table.shape == (1200, len(COLUMNS))
        t = rows_to_columns(res.table)["t"]
        assert np.allclose(np.diff(t), sc.dt_control)

    def test_determinism_bit_exact(self):
        sc = Scenario(duration=1.5, seed=3, start_height=0.005, start_y=0.0684)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.table.shape == b.table.shape
        assert a.table.tobytes() == b.table.tobytes()

    def test_tick_calls_no_comprehension(self):
        # before Python 3.12 (PEP 709) every comprehension is a nested function
        # call, which the tick writes out per component instead; the Scenario
        # checks run a few once per run, so the count must not grow with ticks
        tick_files = {
            module.__file__
            for module in (vauf.runtime, vauf.controller, vauf.tanks, vauf.monitor, vauf.spatial, vauf.surface)
        }
        names = {"<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>"}

        def comprehension_calls(duration):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call" and frame.f_code.co_name in names and frame.f_code.co_filename in tick_files:
                    calls += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                res = run_scenario(Scenario(duration=duration, start_height=-0.001, start_y=0.0684))
            finally:
                sys.setprofile(previous)
            assert res.completed and len(res.table) == round(duration * 1000)
            assert np.any(rows_to_columns(res.table)["fext_ee_fz"] != 0.0)  # the contact branch runs
            return calls

        assert comprehension_calls(0.10) == comprehension_calls(0.05)

    def test_initial_compliance_event(self):
        sc = Scenario(duration=0.5)
        res = run_scenario(sc)
        assert res.realignment_events[:1] == [0.0]

    def test_quaternion_unit_norm(self):
        sc = Scenario(duration=0.8)
        res = run_scenario(sc)
        c = rows_to_columns(res.table)
        for q in np.stack([c["qw"], c["qx"], c["qy"], c["qz"]], axis=1)[::100]:
            assert abs(np.linalg.norm(q) - 1.0) < 1e-6

    def test_camera_that_never_sees_the_patch(self, monkeypatch):
        # 6 cm of range from a camera mounted above the tool: every frame is an empty view
        raised = shared_counts(1)  # the three frames render in the perception worker

        def counted_render(*args, **kwargs):
            try:
                return render(*args, **kwargs)
            except EmptyViewError:
                raised[0] += 1
                raise

        monkeypatch.setattr(vauf.runtime, "render", counted_render)
        sc = Scenario(camera=CameraModel(range_max=0.06), duration=1.0)
        res = run_scenario(sc)
        assert raised[0] == 3  # the perception ticks at t = 0, 0.3 and 0.6 s; 0.9 s renders nothing
        assert res.perception_outcomes["EmptyViewError"] == 3
        assert res.completed
        assert res.table.shape == (1000, len(COLUMNS))
        c = rows_to_columns(res.table)
        for name in ("perception_fresh", "theta", "l_s"):
            assert not c[name].any(), name
        for col, tank in (("S_t_i", sc.tank_impedance), ("S_t_f", sc.tank_force)):
            assert tank.s_lower <= c[col].min() and c[col].max() <= tank.s_upper

    def test_every_rendered_frame_is_perceived(self, reference_scenario, monkeypatch):
        # the last perception tick renders no frame: no later tick would perceive it
        calls = shared_counts(2)  # render, perceive

        def counted(name, i):
            original = getattr(vauf.runtime, name)

            def call(*args, **kwargs):
                calls[i] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(vauf.runtime, name, call)

        counted("render", 0)
        counted("perceive", 1)
        res = run_scenario(reference_scenario)
        assert res.completed
        frames = len(res.table) // reference_scenario.perception_stride
        assert frames >= vauf.runtime.WORKER_MIN_FRAMES  # the calls run in the perception worker
        assert calls[0] == calls[1] == frames == sum(res.perception_outcomes.values())

    def test_divergence_aborts_with_reason(self):
        # absurd negative damping is not reachable via config; instead use a
        # pathological policy force to blow the plant up
        sc = Scenario(duration=2.0, policy=PolicyConfig(force_z=1e6), start_height=0.4)
        res = run_scenario(sc)
        assert not res.completed
        assert "twist norm" in res.abort_reason or "non-finite" in res.abort_reason


def perception_cases(reference):
    """Short scenarios whose frames end in every outcome a run can latch, and one that aborts mid-stride."""
    mixed = replace(reference.perception, min_segment_size=150, angle_thresh=0.06)
    return {
        "noisy": (replace(reference, duration=1.5), None),  # fresh frames from the camera's noise stream
        "mixed": (replace(reference, duration=3.0, perception=mixed), None),  # fresh and NoSegmentError
        "blind": (Scenario(camera=CameraModel(range_max=0.06), duration=1.0), None),  # EmptyViewError
        "aborting": (replace(reference, duration=3.0), 1450),  # aborts with the frame of t = 1.2 s in flight
    }


class TestPerceptionWorker:
    """A run that forks a perception worker gives what it gives in one process."""

    def run(self, sc, abort_tick, min_frames):
        """The run of sc with WORKER_MIN_FRAMES = min_frames, and how often it forked."""
        fds = len(os.listdir("/proc/self/fd"))
        forks = []
        fork = os.fork
        step = vauf.runtime.plant_step
        ticks = itertools.count()

        def diverging_step(*args):
            if next(ticks) == abort_tick:
                raise SimulationDiverged("diverged on purpose")
            return step(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            mp.setattr(vauf.runtime, "WORKER_MIN_FRAMES", min_frames)
            mp.setattr(vauf.runtime, "plant_step", diverging_step)
            res = run_scenario(sc)
        assert len(os.listdir("/proc/self/fd")) == fds  # no pipe end outlives the run
        return res, len(forks)

    @pytest.mark.parametrize("case", ["noisy", "mixed", "blind", "aborting"])
    def test_worker_matches_in_process(self, case, reference_scenario):
        sc, abort_tick = perception_cases(reference_scenario)[case]
        alone, forks_alone = self.run(sc, abort_tick, 10**9)
        forked, forks = self.run(sc, abort_tick, 1)
        assert (forks_alone, forks) == (0, 1)
        assert forked.table.tobytes() == alone.table.tobytes()
        assert forked.abort_reason == alone.abort_reason
        assert forked.perception_outcomes == alone.perception_outcomes
        assert forked.realignment_events == alone.realignment_events
        assert alone.completed == (abort_tick is None)
        if abort_tick is not None:
            assert alone.abort_reason == "diverged on purpose at t=1.450 s"
            assert alone.perception_outcomes["fresh"] == 4  # t = 0 to 0.9 s; the frame of t = 1.2 s was in flight

    def test_failed_frames_logged_with_their_reason(self, reference_scenario, caplog, monkeypatch):
        calls = []

        def failures(sc):
            """The failed frames' DEBUG lines of sc's run, the same in this process and in a worker."""
            logged = []
            for min_frames in (10**9, 1):
                caplog.clear()
                calls.clear()
                with caplog.at_level(logging.DEBUG, logger="vauf.runtime"):
                    self.run(sc, None, min_frames)
                logged.append([r.getMessage() for r in caplog.records if "failed" in r.getMessage()])
            assert logged[1] == logged[0]
            return logged[1]

        lines = failures(perception_cases(reference_scenario)["mixed"][0])
        assert lines and all(re.search(r"t=\d\.\d{3} failed: NoSegmentError: \w", m) for m in lines)

        # a failure text longer than the 64 KiB pipe buffer comes back whole: the
        # worker's write blocks until the loop reads it, one stride later
        perceive = vauf.runtime.perceive

        def perceive_long_failure(*args):  # each process counts its own calls: the second frame fails
            calls.append(1)
            if len(calls) == 2:
                raise NoSegmentError("x" * 100_000)
            return perceive(*args)

        monkeypatch.setattr(vauf.runtime, "perceive", perceive_long_failure)
        assert failures(perception_cases(reference_scenario)["noisy"][0]) == [
            "perception of the frame rendered at t=0.300 failed: NoSegmentError: " + "x" * 100_000
        ]

    def test_outcomes_cover_every_reason(self, reference_scenario):
        seen = {name for sc, _ in perception_cases(reference_scenario).values()
                for name, n in run_scenario(sc).perception_outcomes.items() if n}
        assert seen == {"fresh", "NoSegmentError", "EmptyViewError"}  # no short run gives a degenerate segment

    @pytest.mark.parametrize(
        "how, status", [("raises", 1), ("killed", -signal.SIGKILL), ("exits", 0), ("cut", -signal.SIGKILL)]
    )
    def test_failed_worker_raises(self, how, status, reference_scenario, monkeypatch, capfd):
        estimate = vauf.runtime._estimate
        calls = []

        def dump_half(obj, file):  # the worker dies halfway through writing its reply
            data = pickle.dumps(obj)
            file.write(data[: len(data) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        def estimate_once(*args):  # the worker's own copy of calls: the second frame fails
            calls.append(1)
            if len(calls) == 2:
                if how == "cut":  # in the worker: this answer's dump is looked up after this call, so it is cut
                    monkeypatch.setattr(vauf.forked, "pickle", types.SimpleNamespace(load=pickle.load, dump=dump_half))
                if how == "raises":
                    raise RuntimeError("estimate failed")
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if how == "exits":
                    os._exit(0)
            return estimate(*args)

        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        monkeypatch.setattr(vauf.runtime, "_estimate", estimate_once)
        message = f"the perception worker exited with status {status} before answering for the frame rendered at t=0.300 s"
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ChildProcessError, match=re.escape(message)):
            run_scenario(replace(reference_scenario, duration=1.5))
        assert len(os.listdir("/proc/self/fd")) == fds  # no pipe end outlives the failed run
        assert ("RuntimeError: estimate failed" in capfd.readouterr().err) == (status == 1)

    def test_interrupt_reaps_worker_quietly(self, reference_scenario, monkeypatch, capfd):
        # interrupted while the worker perceives the frame of t = 0.3 s: the
        # loop's exit kills it, so it prints no traceback
        policy = vauf.runtime.wiping_policy

        def interrupted(t, cfg):
            if t >= 0.301:
                raise KeyboardInterrupt
            return policy(t, cfg)

        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        monkeypatch.setattr(vauf.runtime, "wiping_policy", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(replace(reference_scenario, duration=1.5))
        assert capfd.readouterr().err == ""


class TestStreamedTelemetry:
    """A run given a path writes there what write_csv writes of its table, formatting it while the loop runs."""

    def run(self, sc, path, abort_tick=None):
        """The run of sc writing its telemetry to path, and the jobs of the CSV writers it forked."""
        fds = len(os.listdir("/proc/self/fd"))
        writers = []
        forked = vauf.telemetry.Forked
        step = vauf.runtime.plant_step
        ticks = itertools.count()

        def diverging_step(*args):
            if next(ticks) == abort_tick:
                raise SimulationDiverged("diverged on purpose")
            return step(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vauf.telemetry, "Forked", lambda job, serve: writers.append(job) or forked(job, serve))
            mp.setattr(vauf.runtime, "plant_step", diverging_step)
            res = run_scenario(sc, path)
        assert len(os.listdir("/proc/self/fd")) == fds  # no pipe end or file outlives the run
        write_csv(res.table, path.with_name("expected.csv"))
        assert path.read_bytes() == path.with_name("expected.csv").read_bytes()
        return res, writers

    def test_reference_run(self, reference_scenario, reference_run, tmp_path, monkeypatch):
        path, chunks = tmp_path / "t.csv", shared_counts(1)
        write_rows = vauf.telemetry._write_rows

        def counted(fh, rows):
            if fh.name == str(path):  # the run's writer child, not the parent's share or write_csv's child
                chunks[0] += 1
            write_rows(fh, rows)

        monkeypatch.setattr(vauf.telemetry, "_write_rows", counted)
        res, writers = self.run(reference_scenario, path)
        assert writers == [f"the CSV writer of {path}"]
        assert res.table.tobytes() == reference_run.table.tobytes()
        assert chunks[0] >= 2  # handed rows during the loop, then its share of the rest

    def test_abort_mid_block(self, reference_scenario, tmp_path):
        sc, abort_tick = perception_cases(reference_scenario)["aborting"]
        res, writers = self.run(sc, tmp_path / "t.csv", abort_tick)
        assert res.abort_reason == "diverged on purpose at t=1.450 s"
        assert len(res.table) == 1451 and len(res.table) % BLOCK_ROWS and len(writers) == 1

    @pytest.mark.parametrize("ticks, writers", [(2 * BLOCK_ROWS, 1), (2 * BLOCK_ROWS - 1, 0)])
    def test_writer_forked_from_two_blocks(self, ticks, writers, reference_scenario, tmp_path):
        sc = replace(reference_scenario, duration=ticks * reference_scenario.dt_control)
        res, jobs = self.run(sc, tmp_path / "t.csv")
        assert len(res.table) == ticks and len(jobs) == writers

    def test_run_that_perceives_no_frame(self, reference_scenario, tmp_path):
        res, writers = self.run(replace(reference_scenario, duration=1.5, dt_perception=1.5), tmp_path / "t.csv")
        assert not any(res.perception_outcomes.values()) and len(writers) == 1

    def test_unwritable_path_raises_before_the_run(self, reference_scenario, tmp_path, monkeypatch):
        def no_tick(*args):
            raise AssertionError("a tick ran before the telemetry file opened")

        monkeypatch.setattr(vauf.runtime, "wiping_policy", no_tick)
        monkeypatch.setattr(os, "fork", no_tick)
        with pytest.raises(FileNotFoundError):
            run_scenario(replace(reference_scenario, duration=1.5), tmp_path / "missing" / "t.csv")

    @pytest.mark.parametrize("how, status", [("raises", 1), ("killed", -signal.SIGKILL)])
    def test_failed_writer_raises(self, how, status, reference_scenario, tmp_path, monkeypatch, capfd):
        parent = os.getpid()
        write_rows = vauf.telemetry._write_rows

        def fail_in_child(fh, rows):
            if os.getpid() != parent:
                if how == "raises":
                    raise RuntimeError("writer failed")
                os.kill(os.getpid(), signal.SIGKILL)
            write_rows(fh, rows)

        monkeypatch.setattr(vauf.telemetry, "_write_rows", fail_in_child)
        path = tmp_path / "t.csv"
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ChildProcessError, match=re.escape(f"the CSV writer of {path} exited with status {status}")):
            run_scenario(replace(reference_scenario, duration=3.0), path)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert ("RuntimeError: writer failed" in capfd.readouterr().err) == (status == 1)

    @pytest.mark.parametrize(
        "fault, error, match",
        [("worker", ChildProcessError, "the perception worker"), ("interrupt", KeyboardInterrupt, None)],
    )
    def test_failed_run_ends_the_writer(self, fault, error, match, reference_scenario, tmp_path, monkeypatch, capfd):
        # the frame of t = 0.3 s fails in the perception worker, or the loop is
        # interrupted at t = 0.301 s, after it handed the writer its first rows
        estimate, policy = vauf.runtime._estimate, vauf.runtime.wiping_policy
        calls = []

        def estimate_once(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("estimate failed")
            return estimate(*args)

        def interrupted(t, cfg):
            if t >= 0.301:
                raise KeyboardInterrupt
            return policy(t, cfg)

        monkeypatch.setattr(vauf.runtime, "WORKER_MIN_FRAMES", 1)
        if fault == "worker":
            monkeypatch.setattr(vauf.runtime, "_estimate", estimate_once)
        else:
            monkeypatch.setattr(vauf.runtime, "wiping_policy", interrupted)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(error, match=match):
            run_scenario(replace(reference_scenario, duration=1.5), tmp_path / "t.csv")
        assert len(os.listdir("/proc/self/fd")) == fds
        err = capfd.readouterr().err
        assert "CSV writer" not in err and ("RuntimeError: estimate failed" in err) == (fault == "worker")
