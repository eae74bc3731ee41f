"""The float control tick against the numpy tick it replaced (tests/numpy_tick.py).

The float tick is not bit-identical to the numpy one: sums run in another
order and `math` rounds a few functions differently from numpy. These tests
bound the difference, helper by helper on random inputs and column by column
over whole shipped runs.

COLUMN_BOUNDS hold only while both loops replay the recorded perception
sequence in tests/data/perception_outcomes.json. Fed the live window
perception instead (byte-identical clouds and results in both loops),
reference.cfg ends with `py` 1.64e-11 m apart against its 1e-12 m bound, and
`C` and `h` 7.6e-8 and 8.4e-8 apart against 1e-9: Coulomb friction near SLIP_SPEED_EPS
amplifies the ulp-level tick differences, so any change to perception moves
the gap. Dropping the replay makes these tests fail without a fault in the tick.
"""

import collections
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy_tick as oracle
from vauf import perception, runtime, tanks
from vauf.controller import ControllerConfig, damping_matrix, spring_wrench, variable_stiffness
from vauf.spatial import pose_error, rotate_wrench, rotation_exp, rotation_to_quaternion
from vauf.surface import SLIP_SPEED_EPS, HeightField, contact_wrench
from vauf.telemetry import COLUMNS
from conftest import mat

ANGLES = st.floats(-math.pi, math.pi)
VECTOR3 = st.tuples(ANGLES, ANGLES, ANGLES)
UNIT = st.floats(-1.0, 1.0)
WRENCHES = st.tuples(*[st.floats(-100.0, 100.0)] * 6)


def rotations():
    return VECTOR3.map(rotation_exp)


def normal_floats(lo, hi):
    """0 or at least 1e-100 in magnitude: products of three stay normal floats, where ulp bounds hold."""
    return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


class TestHelpersAgainstNumpy:
    # each bound lies 3x to 50x above the worst of 20,000 random draws
    @given(VECTOR3)
    def test_rotation_exp(self, w):
        assert np.abs(mat(rotation_exp(w)) - oracle.rotation_exp(np.array(w))).max() <= 1e-14

    @given(rotations())
    def test_rotation_to_quaternion(self, r):
        assert np.abs(np.subtract(rotation_to_quaternion(r), oracle.rotation_to_quaternion(mat(r)))).max() <= 1e-14

    @given(rotations(), rotations(), st.tuples(UNIT, UNIT, UNIT), st.tuples(UNIT, UNIT, UNIT))
    def test_pose_error(self, r, r_d, p, p_d):
        ref = oracle.pose_error(mat(r), np.array(p), mat(r_d), np.array(p_d))
        # the numpy log takes its angle from arccos of the trace, which loses
        # digits near 0 and pi (3e-11 at pi - 0.0066, where the atan2 form is
        # exact); away from both the two logs agree closely
        assume(1e-3 < np.linalg.norm(ref[3:]) < 3.0)
        assert np.abs(np.subtract(pose_error(r, p, r_d, p_d), ref)).max() <= 1e-12

    @given(rotations(), WRENCHES)
    def test_rotate_wrench(self, r, w):
        assert np.abs(np.subtract(rotate_wrench(r, w), oracle.rotate_wrench(mat(r), np.array(w)))).max() <= 1e-13

    @given(st.floats(0.0, 1.0), rotations(), st.tuples(*[st.floats(-1.0, 1.0)] * 6))
    def test_stiffness_and_damping(self, rho, r_ee, x_tilde):
        cfg = ControllerConfig()
        m_diag = (5.0, 5.0, 5.0, 0.3, 0.3, 0.3)
        k_var = variable_stiffness(rho, r_ee, cfg)
        k_ref = oracle.variable_stiffness(rho, mat(r_ee), cfg)
        assert np.abs(mat(k_var[0]) - k_ref[:3, :3]).max() <= 1e-12
        assert k_var[1] == tuple(np.diag(k_ref)[3:])
        d = damping_matrix(k_var, m_diag, cfg.damping_coeffs)
        d_ref = oracle.damping_matrix(k_ref, np.array(m_diag), np.array(cfg.damping_coeffs))
        assert np.abs(np.subtract(d, d_ref)).max() <= 1e-12
        spring_ref = -k_ref @ np.array(x_tilde)
        assert np.abs(np.subtract(spring_wrench(k_var, x_tilde), spring_ref)).max() <= 1e-11

    @given(
        st.tuples(WRENCHES, WRENCHES, st.tuples(*[normal_floats(-100.0, 100.0)] * 6)),
        normal_floats(0.0, 1.0), st.sampled_from([0, 1]), normal_floats(0.0, 1.0), UNIT.map(abs),
    )
    def test_compose_command_port_form(self, wrenches, rho, lam, sigma_f, sigma_i):
        # the loop's force port is the thrust times rho; the numpy command
        # scales the gate by rho instead: (rho G) f against G (f rho)
        f_damp, f_var, f_app = wrenches
        port = tuple(c * rho for c in f_app)
        got = np.array(tanks.compose_command(f_damp, f_var, port, lam, sigma_f, sigma_i))
        ref = oracle.compose_command(np.array(f_damp), np.array(f_var), np.array(f_app), rho, lam, sigma_f, sigma_i)
        if lam == 1 or sigma_f in (0.0, 1.0) or rho in (0.0, 1.0):
            assert got.tobytes() == ref.tobytes()
        # the gated port alone: two roundings on each side, at most 2 ulp apart
        zero = (0.0,) * 6
        got = tanks.compose_command(zero, zero, port, lam, sigma_f, sigma_i)
        ref = oracle.compose_command(np.zeros(6), np.zeros(6), np.array(f_app), rho, lam, sigma_f, sigma_i)
        assert all(abs(a - b) <= 2 * math.ulp(max(abs(a), abs(b))) for a, b in zip(got, ref.tolist()))


def assert_contact_matches(surface, position, twist, radius=0.02):
    report = contact_wrench(surface, position, twist, radius)
    in_contact, _, normal, wrench = oracle.contact_wrench(surface, np.array(position), np.array(twist), radius)
    if abs(float(surface.height_unchecked(position[0], position[1])) + radius - position[2]) <= 1e-15:
        return  # the two may round the height to opposite sides of first contact
    assert report.in_contact == in_contact
    scale = max(1.0, float(np.abs(wrench).max()))
    slip = np.linalg.norm(np.subtract(twist[:3], np.dot(twist[:3], normal) * normal))
    if abs(slip - SLIP_SPEED_EPS) <= 1e-12 * SLIP_SPEED_EPS:
        return  # the two may round the slip speed to opposite sides of the threshold
    assert np.abs(np.subtract(report.wrench, wrench)).max() <= 1e-13 * scale


class TestContactAgainstNumpy:
    @given(
        st.floats(-0.15, 0.15), st.floats(-0.27, 0.27), st.floats(-0.01, 0.08),
        st.tuples(*[st.floats(-0.5, 0.5)] * 6),
    )
    def test_sinusoid(self, x, y, z, twist):
        assert_contact_matches(HeightField(), (x, y, z), twist)

    @settings(max_examples=300)
    @given(st.floats(-1e-6, 1e-6), st.floats(0.0, 2 * math.pi), st.floats(-1e-3, 1e-3), st.floats(-0.05, 0.05))
    def test_slip_near_threshold(self, rel, heading, v_z, y):
        # tangential speed within a millionth of SLIP_SPEED_EPS, on the flat
        # patch and on the slope of the sinusoid
        speed = SLIP_SPEED_EPS * (1.0 + rel)
        twist = (speed * math.cos(heading), speed * math.sin(heading), v_z, 0.0, 0.0, 0.0)
        assert_contact_matches(HeightField(amplitude=0.0, offset=0.0), (0.0, y, 0.019), twist)
        surface = HeightField()
        h = float(surface.height_unchecked(0.0, y))
        normal = oracle.contact_wrench(surface, np.array([0.0, y, h]), np.zeros(6), 0.02)[2]
        tangent = np.cross(normal, [1.0, 0.0, 0.0]) if heading < math.pi else np.array([1.0, 0.0, 0.0])
        tangent = tangent / np.linalg.norm(tangent)
        v = tuple((speed * tangent + v_z * normal).tolist()) + (0.0, 0.0, 0.0)
        assert_contact_matches(surface, (0.0, y, h + 0.019), v)


# per-column bounds on |float tick - numpy tick| over a whole run; the
# ROADMAP prototype measured 1.2e-14 m, 5e-8 N and 2.7e-13 J
COLUMN_BOUNDS = {
    **dict.fromkeys(["px", "py", "pz", "xd_x", "xd_y", "xd_z"], 1e-12),  # m
    **dict.fromkeys(["qw", "qx", "qy", "qz"], 1e-12),
    **dict.fromkeys(["vx", "vy", "vz", "wx", "wy", "wz"], 1e-9),  # m/s, rad/s
    **{c: 1e-6 for c in COLUMNS if c.startswith(("fcmd_", "fext_ee_"))},  # N, N*m
    **dict.fromkeys(["S_t_i", "S_t_f"], 1e-9),  # J
    **dict.fromkeys(["rho_align", "rho_frc", "C", "h", "theta", "l_s", "sigma_i", "sigma_f", "beta_i", "beta_f"], 1e-9),
    **dict.fromkeys(["t", "fd_ee_z", "lam", "perception_fresh"], 0.0),
}


# The two loops are compared on one recorded perception sequence. Coulomb
# friction at near-zero slip speed amplifies ulp-level differences between
# the two ticks, so how far apart they end up depends on which surface
# estimates they latch; the bounds above hold on the sequence they were
# measured on, which each loop replays in call order.
OUTCOMES = json.loads((pathlib.Path(__file__).resolve().parent / "data" / "perception_outcomes.json").read_text())


class ReplayPerception:
    """Stands in for `perceive`: the recorded outcomes in call order."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = 0

    def __call__(self, cloud, cfg):
        outcome = self.outcomes[self.calls]
        self.calls += 1
        if isinstance(outcome, str):
            raise getattr(perception, outcome)("recorded outcome")
        return perception.PerceptionResult(
            np.array(outcome["n_s_camera"]), np.array(outcome["eigenvalues"]), outcome["l_s"], outcome["theta"]
        )


@pytest.fixture(scope="module")
def replayed_runs(reference_scenario, flat_scenario):
    runs = {}
    for name, sc, cfg in (("reference", reference_scenario, "reference.cfg"), ("flat", flat_scenario, "flat_steady.cfg")):
        outcomes = OUTCOMES[cfg]
        with pytest.MonkeyPatch.context() as mp:
            replay_float, replay_numpy = ReplayPerception(outcomes), ReplayPerception(outcomes)
            mp.setattr(runtime, "perceive", replay_float)
            mp.setattr(oracle, "perceive", replay_numpy)
            result = runtime.run_scenario(sc)
            table, events = oracle.run_numpy_loop(sc)
        # a long run perceives in a forked worker, which counts calls on its own
        # copy of replay_float; the run's outcome counts are read in this process
        recorded = collections.Counter("fresh" if isinstance(o, dict) else o for o in outcomes)
        assert collections.Counter(result.perception_outcomes) == recorded and replay_numpy.calls == len(outcomes)
        runs[name] = result, table, events
    return runs


@pytest.mark.parametrize("name", ["reference", "flat"])
def test_loop_matches_numpy_loop(name, replayed_runs):
    result, table, events = replayed_runs[name]
    assert result.table.shape == table.shape
    assert result.realignment_events == events
    diff = np.abs(result.table - table).max(axis=0)
    over = {c: float(d) for c, d in zip(COLUMNS, diff) if d > COLUMN_BOUNDS[c]}
    assert not over, over
    fresh = COLUMNS.index("perception_fresh")
    assert np.array_equal(result.table[:, fresh], table[:, fresh])


def test_tick_state_is_python_floats(reference_scenario):
    from dataclasses import replace

    seen = []

    def plant_step(rotation, position, twist, *rest):
        seen.append((rotation, position, twist) + rest[:3])
        return runtime_plant_step(rotation, position, twist, *rest)

    runtime_plant_step = runtime.plant_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "plant_step", plant_step)
        runtime.run_scenario(replace(reference_scenario, duration=0.61))
    assert len(seen) == 610
    for args in (seen[0], seen[-1]):
        assert all(type(a) is tuple and all(type(x) is float for x in a) for a in args)
