"""Test-local oracle: the control tick as it was in numpy, before the float tick.

Rotations are 3x3 arrays and wrenches, twists and pose errors float64
6-vectors; the stiffness is a full 6x6 matrix. Perception, the camera, the
configuration and the already-scalar monitor and tank gates are shared with
the program. `run_numpy_loop` reproduces the numpy loop's telemetry table
bit for bit, so the float loop can be checked against it column by column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from vauf.camera import EmptyViewError, camera_pose_from_tool, render
from vauf.controller import D_FLOOR
from vauf.monitor import normalized_coefficient, realignment_trigger, rho_align_step
from vauf.perception import DegenerateSegmentError, NoSegmentError, PerceptionResult, perceive
from vauf.runtime import TWIST_LIMIT, start_pose
from vauf.spatial import Pose
from vauf.surface import SLIP_SPEED_EPS
from vauf.tanks import _integrate_energy, gate_beta, valve_sigma
from vauf.telemetry import COLUMNS

_EYE3 = np.eye(3)
_PI_AXIS_TOL = 1e-7


# --- spatial
def hat(w):
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_exp(w):
    theta = float(np.linalg.norm(w))
    wx = hat(w)
    if theta < 1e-10:
        return _EYE3 + wx + 0.5 * (wx @ wx)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return _EYE3 + a * wx + b * (wx @ wx)


def _canonical_axis_sign(axis):
    i = int(np.argmax(np.abs(axis)))
    return -axis if axis[i] < 0.0 else axis


def rotation_log(r):
    """The arccos-of-the-trace form the float tick replaced."""
    tr = min(max((r.trace() - 1.0) * 0.5, -1.0), 1.0)
    theta = float(np.arccos(tr))
    if theta < 1e-12:
        return np.zeros(3)
    if np.pi - theta < _PI_AXIS_TOL:
        b = 0.5 * (r + np.eye(3))
        i = int(np.argmax(np.diag(b)))
        axis = np.empty(3)
        axis[i] = np.sqrt(max(b[i, i], 0.0))
        for j in range(3):
            if j != i:
                axis[j] = b[i, j] / axis[i]
        axis = _canonical_axis_sign(axis / np.linalg.norm(axis))
        return axis * theta
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w * (theta / (2.0 * np.sin(theta)))


def rotation_power(r_init, r_target, zeta, rel=None):
    if zeta == 0.0:
        return r_init.copy()
    if rel is None:
        rel = rotation_log(r_target @ r_init.T)
    return rotation_exp(zeta * rel) @ r_init


def rotate_wrench(r, w):
    return np.concatenate([r @ w[:3], r @ w[3:]])


def pose_error(r, p, r_d, p_d):
    return np.concatenate([p - p_d, rotation_log(r @ r_d.T)])


def rotation_to_quaternion(r):
    t = r.trace()
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        if i == 0:
            s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
            q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
        elif i == 1:
            s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
            q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s])
        else:
            s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
            q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    q = q / np.linalg.norm(q)
    return -q if q[0] < 0.0 else q


# --- contact
def contact_wrench(surface, position, twist, radius):
    """(in_contact, penetration, normal, wrench) as the numpy contact model computed them."""
    x, y, z = position
    no_contact = (False, 0.0, np.array([0.0, 0.0, 1.0]), np.zeros(6))
    if not surface.in_domain(x, y):
        return no_contact
    p_vert = float(surface.height_unchecked(x, y)) + radius - z
    if p_vert <= 0.0:
        return no_contact
    gx = 0.0
    gy = surface.amplitude * (np.pi / surface.period) * np.cos(np.pi * y / surface.period + surface.phase)
    n = np.array([-gx, -gy, 1.0])
    n = n / np.linalg.norm(n)
    pen = p_vert * n[2]
    v = np.asarray(twist, dtype=float)[:3]
    approach = -float(n @ v)
    f_n_mag = surface.k_n * pen + surface.d_n * max(0.0, approach)
    v_t = v - (n @ v) * n
    slip = np.linalg.norm(v_t)
    if slip >= SLIP_SPEED_EPS and surface.mu > 0.0:
        f_t = -surface.mu * f_n_mag * (v_t / slip)
    else:
        f_t = np.zeros(3)
    return True, pen, n, np.concatenate((f_n_mag * n + f_t, np.zeros(3)))


# --- controller, monitor, tanks
@dataclass
class ControllerState:
    pi_integral: float = 0.0
    r_init: np.ndarray = field(default_factory=lambda: np.eye(3))
    r_d: np.ndarray = field(default_factory=lambda: np.eye(3))
    t_filter: float = np.inf
    rel_log: np.ndarray = field(default_factory=lambda: np.zeros(3))


def variable_stiffness(rho_align, r_ee, cfg):
    k = np.zeros((6, 6))
    k[:3, :3] = rho_align * (r_ee * np.asarray(cfg.k_max[:3])) @ r_ee.T
    k.flat[21::7] = cfg.k_max[3:]
    return k


def damping_matrix(k_c, m_diag, coeffs):
    return 2.0 * np.asarray(coeffs) * np.sqrt(np.abs(k_c.diagonal()) * m_diag) + D_FLOOR


def force_wrench(f_d_z, f_ext_z, state, r_ee, dt, cfg):
    f_err = f_ext_z - f_d_z
    out = f_d_z + cfg.k_p * f_err + cfg.k_i * state.pi_integral
    state.pi_integral = min(max(state.pi_integral - f_err * dt, -cfg.integral_limit), cfg.integral_limit)
    return rotate_wrench(r_ee, (0.0, 0.0, out, 0.0, 0.0, 0.0))


def desired_orientation(n_s_base, r_ee):
    n = np.asarray(n_s_base, dtype=float)
    r_x = r_ee[:, 0]
    proj = r_x - (r_x @ n) * n
    norm = np.linalg.norm(proj)
    if norm < 1e-6:
        r_y = r_ee[:, 1]
        proj_y = r_y - (r_y @ n) * n
        new_y = proj_y / np.linalg.norm(proj_y)
        return np.column_stack([np.cross(new_y, n), new_y, n])
    new_x = proj / norm
    return np.column_stack([new_x, np.cross(n, new_x), n])


def restart_filter(state, r_init, r_d):
    state.r_init, state.r_d = r_init, r_d
    state.rel_log = rotation_log(r_d @ r_init.T)
    state.t_filter = 0.0


def orientation_filter(state, dt, filter_time):
    if state.t_filter >= filter_time:
        return state.r_d
    zeta = min(max(state.t_filter / filter_time, 0.0), 1.0)
    out = rotation_power(state.r_init, state.r_d, zeta, state.rel_log)
    state.t_filter += dt
    return out


def compose_command(f_damp, f_var, f_frc, rho_frc, lam, sigma_f, sigma_i):
    # the rho form: rho_frc scales the gate, and f_frc is the unshaped thrust
    return f_damp + sigma_i * f_var + rho_frc * (lam + sigma_f * (1.0 - lam)) * f_frc


def alignment_metric(f_ext_ee, x_tilde_ee, theta, l_s, cfg):
    return abs(cfg.alpha * abs(float(f_ext_ee @ x_tilde_ee)) + cfg.xi * theta + cfg.gamma * l_s)


def rho_frc(f_d_z, x_z, delta_c):
    if f_d_z * x_z <= 0.0:
        return 1.0
    if 0.0 < x_z <= delta_c:
        return 0.5 * (1.0 + np.cos(np.pi * x_z / delta_c))
    return 0.0


def lambda_selector(x_dot, f_f):
    return 1 if float(x_dot @ f_f) < 0.0 else 0


def force_tank_step(s, tank, x_dot, f_f, lam, sigma, beta, dt):
    p_force = float(x_dot @ f_f)
    return _integrate_energy(s, tank, -p_force * ((beta if p_force < 0.0 else 1.0) * lam + sigma * (1 - lam)), dt)


def impedance_tank_step(s, tank, x_dot, f_damp, f_var, sigma, beta, dt):
    p_damp = -float(f_damp @ x_dot)
    p_spring = -float(f_var @ x_dot)
    return _integrate_energy(s, tank, (beta if p_damp > 0.0 else 1.0) * p_damp + sigma * p_spring, dt)


# --- plant and loop
def wiping_policy(t, policy):
    a, f = policy.amplitude, policy.frequency
    return np.array([a * np.sin(f * t), a * (np.cos(f * t) - 1.0) + policy.drift * t, 0.0]), policy.force_z


def plant_step(rotation, position, twist, m_diag, f_cmd, f_ext, dt):
    """(rotation, position, twist) after one step; None when the wrench is not finite."""
    total = f_cmd + f_ext
    if not np.isfinite(total).all():
        return None
    twist = twist + total / m_diag * dt
    return rotation_exp(twist[3:] * dt) @ rotation, position + twist[:3] * dt, twist


def run_numpy_loop(sc):
    """(telemetry table, realignment event times) of the numpy loop."""
    dt = sc.dt_control
    n_ticks = int(round(sc.duration / dt))
    stride = sc.perception_stride
    m_diag = np.asarray(sc.mass, dtype=float)
    damping_coeffs = np.asarray(sc.controller.damping_coeffs)
    filter_time = sc.controller.filter_time
    rng = np.random.default_rng(sc.seed)
    pose0 = start_pose(sc)
    r_ee, p_ee, twist = pose0.rotation, pose0.position, np.zeros(6)
    ctrl = ControllerState(r_init=r_ee.copy(), r_d=r_ee.copy())
    rho_align = 0.0
    tank_f, tank_i = sc.tank_force, sc.tank_impedance
    s_f, s_i = tank_f.s0, tank_i.s0
    task_origin = p_ee.copy()
    latched = PerceptionResult(np.array([0.0, 0.0, -1.0]), np.zeros(3), l_s=0.0, theta=0.0)
    n_s_base = None
    pending = None
    trigger_armed = True
    events = []
    table = np.empty((n_ticks, len(COLUMNS)))
    for k in range(n_ticks):
        t = k * dt
        fresh = 0.0
        if k % stride == 0:
            if pending is not None:
                frame, r_cam = pending
                try:
                    latched = perceive(frame, sc.perception)
                    n_cam = r_cam @ latched.n_s_camera
                    n_s_base = -n_cam if n_cam[2] < 0.0 else n_cam
                    fresh = 1.0
                except (NoSegmentError, DegenerateSegmentError):
                    pass
            try:
                cam_pose = camera_pose_from_tool(Pose(r_ee, p_ee), sc.camera)
                pending = (render(sc.camera, cam_pose, sc.surface, rng=rng), cam_pose.rotation)
            except EmptyViewError:
                pending = None
        offset, f_d_z = wiping_policy(t, sc.policy)
        r_input = orientation_filter(ctrl, dt, filter_time)
        p_d = task_origin + offset
        f_ext_base = contact_wrench(sc.surface, p_ee, twist, sc.tool_radius)[3]
        f_ext_ee = rotate_wrench(r_ee.T, f_ext_base)
        x_tilde = pose_error(r_ee, p_ee, r_input, p_d)
        x_tilde_ee = rotate_wrench(r_ee.T, x_tilde)
        c_val = alignment_metric(f_ext_ee, x_tilde_ee, latched.theta, latched.l_s, sc.monitor)
        h_val = normalized_coefficient(c_val, sc.monitor.c_margin)
        rho_align = rho_align_step(rho_align, h_val, dt, sc.monitor)
        if fresh and n_s_base is not None:
            restart_filter(ctrl, r_ee.copy(), desired_orientation(n_s_base, r_ee))
        if realignment_trigger(rho_align, sc.monitor.rho_trigger):
            if trigger_armed:
                events.append(t)
                task_origin = p_ee - offset
                p_d = p_ee
                ctrl.pi_integral = 0.0
                trigger_armed = False
                x_tilde = pose_error(r_ee, p_ee, r_input, p_d)
                x_tilde_ee = rotate_wrench(r_ee.T, x_tilde)
        else:
            trigger_armed = True
        rho_f = rho_frc(f_d_z, x_tilde_ee[2], sc.monitor.delta_c)
        k_var = variable_stiffness(rho_align, r_ee, sc.controller)
        d = damping_matrix(k_var, m_diag, damping_coeffs)
        f_damp = -d * twist
        f_var = -k_var @ x_tilde
        f_app = force_wrench(f_d_z, f_ext_ee[2], ctrl, r_ee, dt, sc.controller) * -1.0
        f_tank = f_app * rho_f
        lam = lambda_selector(twist, f_tank)
        sigma_f, beta_f = valve_sigma(s_f, tank_f), gate_beta(s_f, tank_f)
        sigma_i, beta_i = valve_sigma(s_i, tank_i), gate_beta(s_i, tank_i)
        sigma_f_used = 1.0 if sc.valves_forced_open else sigma_f
        sigma_i_used = 1.0 if sc.valves_forced_open else sigma_i
        f_cmd = compose_command(f_damp, f_var, f_app, rho_f, lam, sigma_f_used, sigma_i_used)
        stepped = plant_step(r_ee, p_ee, twist, m_diag, f_cmd, f_ext_base, dt)
        r_next, p_next, twist_next = stepped or (r_ee, p_ee, twist)
        twist_mid = 0.5 * (twist + twist_next)
        s_f = force_tank_step(s_f, tank_f, twist_mid, f_tank, lam, sigma_f, beta_f, dt)
        s_i = impedance_tank_step(s_i, tank_i, twist_mid, f_damp, f_var, sigma_i, beta_i, dt)
        np.concatenate(
            (
                (t,), p_ee, rotation_to_quaternion(r_ee), twist, f_cmd, f_ext_ee,
                (f_d_z, rho_align, rho_f, c_val, h_val, latched.theta, latched.l_s,
                 s_i, s_f, sigma_i_used, sigma_f_used, lam, beta_i, beta_f, fresh),
                p_d,
            ),
            out=table[k],
        )
        if stepped is None or np.linalg.norm(twist_next) > TWIST_LIMIT:
            return table[: k + 1], events
        r_ee, p_ee, twist = r_next, p_next, twist_next
    return table, events
