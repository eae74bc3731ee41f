"""Deterministic dual-rate closed loop: plant, contact, perception, control.

The plant is a free Cartesian rigid body (diagonal inertia, gravity
pre-compensated) integrated semi-implicitly at the control rate. Perception
runs on its own cadence with one full period of latency: the frame rendered
at one perception tick is processed at the next, so the last perception
tick of a run renders nothing. The loop per control tick:

    contact -> alignment monitor -> shaping -> realignment -> controller ->
    tank gates and command -> plant step -> tank steps -> telemetry row

The tick is Python floats and tuples from contact to plant step: the plant
state is (r_ee, p_ee, twist) with r_ee a row-major rotation 9-tuple, the
desired pose is the filtered rotation plus a position p_d, and wrenches,
twists and pose errors are 6-tuples. numpy is met only on perception ticks,
where the camera gets a `Pose` and the perceived normal comes back as a
float tuple. Each tick writes one row of a preallocated (n_ticks,
len(COLUMNS)) telemetry table in one assignment: the pre-step pose and
twist, the post-step tank energies. Every collaborator is called through
its module global, looked up at call time. The collaborators take a
validated `Scenario`'s values and do not re-check them: a direct library
caller must pass dt > 0, eps > 0 and zeta in [0, 1].

Force-path sign convention: the policy, monitor and PI controller work with
the desired and measured tool-z *reactions* on the tool, one float each
(pressing into the surface reads +z in the tool frame), so the thrust the
robot must exert is the negated PI output. Shaped by rho_frc it is the
force port, one tuple per tick that lam reads, the command gates and the
force tank books; the damper wrench -d * v_k, built only here, is one tuple
that the command applies and the impedance tank books. Routing the damper to
both tanks would count the same dissipation twice and break the ledger.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import telemetry
from .camera import CameraModel, EmptyViewError, camera_pose_from_tool, render
from .controller import (
    ControllerConfig,
    ControllerState,
    damping_matrix,
    desired_orientation,
    force_wrench,
    orientation_filter,
    restart_filter,
    spring_wrench,
    variable_stiffness,
)
from .monitor import (
    MonitorConfig,
    alignment_metric,
    normalized_coefficient,
    realignment_trigger,
    rho_align_step,
    rho_frc,
)
from .perception import DegenerateSegmentError, NoSegmentError, PerceptionConfig, perceive
from .spatial import (
    Pose,
    mat_mul,
    pose_error,
    rotate_wrench,
    rotation_exp,
    rotation_to_quaternion,
    rotation_x,
    transpose,
)
from .surface import HeightField, contact_wrench
from .tanks import (
    TankConfig,
    compose_command,
    force_tank_step,
    gate_beta,
    impedance_tank_step,
    lambda_selector,
    valve_sigma,
)
# TelemetryRow stays a global here for the traced benchmark run, which wraps
# it; rows are built by telemetry.TelemetryRows, so the wrapper is not reached
from .telemetry import COLUMNS, TelemetryRow

log = logging.getLogger(__name__)

TWIST_LIMIT = 10.0  # m/s equivalent norm; beyond this the plant has diverged


class SimulationDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class PolicyConfig:
    """Wiping policy: a drifting circle in the task plane plus a constant push."""

    amplitude: float = 0.04  # m
    frequency: float = 2.0  # rad/s
    drift: float = -0.005  # m/s along y
    force_z: float = 15.0  # N, desired tool-frame contact reaction


@dataclass(frozen=True)
class Scenario:
    surface: HeightField = field(default_factory=HeightField)
    camera: CameraModel = field(default_factory=CameraModel)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    tank_force: TankConfig = field(default_factory=lambda: TankConfig(s0=2.0, s_upper=2.0, s_lower=1.0))
    tank_impedance: TankConfig = field(default_factory=lambda: TankConfig(s0=24.5, s_upper=32.0, s_lower=1.0))
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    mass: tuple = (5.0, 5.0, 5.0, 0.3, 0.3, 0.3)
    tool_radius: float = 0.02
    duration: float = 20.0
    dt_control: float = 1e-3
    dt_perception: float = 0.3
    seed: int = 0
    start_x: float = 0.0
    start_y: float = 0.1
    start_height: float = 0.05  # m above the surface (negative = pressed in)
    start_tilt_deg: float = 20.0
    valves_forced_open: bool = False  # negative control for the passivity audit

    def __post_init__(self):
        if not self.dt_control > 0.0:
            raise ValueError(f"run.dt_control must be positive, got {self.dt_control!r}")
        for key, value in (("run.duration", self.duration), ("run.dt_perception", self.dt_perception)):
            ratio = value / self.dt_control
            if not 0.5 <= ratio < np.inf or abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"{key} must be a positive whole multiple of run.dt_control, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"run.seed must be non-negative, got {self.seed!r}")
        if not all(m > 0.0 for m in self.mass):
            raise ValueError(f"plant.mass components must be positive, got {self.mass!r}")
        if not self.tool_radius > 0.0:
            raise ValueError(f"plant.tool_radius must be positive, got {self.tool_radius!r}")
        for key, tank in (("tanks.force", self.tank_force), ("tanks.impedance", self.tank_impedance)):
            if not 0.0 <= tank.s_lower < tank.s_upper:
                raise ValueError(f"{key}.s_lower = {tank.s_lower!r} must lie in [0, {key}.s_upper = {tank.s_upper!r})")
            if not tank.ramp_eps > 0.0:
                raise ValueError(f"{key}.ramp_eps must be positive, got {tank.ramp_eps!r}")
            if not tank.s_lower <= tank.s0 <= tank.s_upper:
                raise ValueError(f"{key}.s0 = {tank.s0!r} must lie in [{tank.s_lower!r}, {tank.s_upper!r}] J")
        for key in ("k", "min_segment_size"):
            value = getattr(self.perception, key)
            if value > self.camera.cols * self.camera.rows:
                raise ValueError(f"perception.{key} = {value!r} exceeds the camera.cols * camera.rows pixels")
        for axis, value in (("x", self.start_x), ("y", self.start_y)):
            half = getattr(self.surface, f"{axis}_half")
            if not abs(value) <= half:
                raise ValueError(f"run.start_{axis} = {value!r} is off the surface patch (|{axis}| <= {half!r})")

    @property
    def perception_stride(self) -> int:
        return int(round(self.dt_perception / self.dt_control))


def wiping_policy(t: float, policy: PolicyConfig) -> tuple[tuple, float]:
    """Task-plane (x, y) position offset and desired tool-z contact reaction at time t."""
    a, f = policy.amplitude, policy.frequency
    return (a * math.sin(f * t), a * (math.cos(f * t) - 1.0) + policy.drift * t), policy.force_z


def plant_step(
    rotation: tuple, position: tuple, twist: tuple, m_diag: tuple, f_cmd: tuple, f_ext: tuple, dt: float
) -> tuple[tuple, tuple, tuple]:
    """Semi-implicit Euler step of the Cartesian rigid body (base-frame wrenches).

    m_diag is the diagonal inertia (kg, kg*m^2); returns the new
    (rotation, position, twist).
    """
    c0, c1, c2, c3, c4, c5 = f_cmd
    e0, e1, e2, e3, e4, e5 = f_ext
    f0, f1, f2, f3, f4, f5 = c0 + e0, c1 + e1, c2 + e2, c3 + e3, c4 + e4, c5 + e5
    if not (
        math.isfinite(f0) and math.isfinite(f1) and math.isfinite(f2)
        and math.isfinite(f3) and math.isfinite(f4) and math.isfinite(f5)
    ):
        raise SimulationDiverged("non-finite commanded or external wrench")
    t0, t1, t2, t3, t4, t5 = twist
    m0, m1, m2, m3, m4, m5 = m_diag
    v0, v1, v2, w0, w1, w2 = twist = (
        t0 + f0 / m0 * dt, t1 + f1 / m1 * dt, t2 + f2 / m2 * dt,
        t3 + f3 / m3 * dt, t4 + f4 / m4 * dt, t5 + f5 / m5 * dt,
    )
    position = (position[0] + v0 * dt, position[1] + v1 * dt, position[2] + v2 * dt)
    return mat_mul(rotation_exp((w0 * dt, w1 * dt, w2 * dt)), rotation), position, twist


@dataclass
class RunResult:
    """A run's telemetry and outcome; `completed` is derived from `abort_reason`."""

    table: np.ndarray  # (ticks run, len(COLUMNS)) telemetry, one row per tick
    abort_reason: str | None
    wall_time: float
    realignment_events: list
    scenario: Scenario

    @property
    def completed(self) -> bool:
        return self.abort_reason is None

    @property
    def rows(self) -> telemetry.TelemetryRows:
        """A read-only view of the table as a sequence of TelemetryRow tuples.

        numpy reads the table itself through the view, with no copy; a row
        of Python floats is built only when indexed or iterated.
        """
        return telemetry.TelemetryRows(self.table)


def start_pose(scenario: Scenario) -> Pose:
    z0 = (
        float(scenario.surface.height_unchecked(scenario.start_x, scenario.start_y))
        + scenario.tool_radius
        + scenario.start_height
    )
    return Pose(
        rotation=rotation_x(np.deg2rad(scenario.start_tilt_deg)),
        position=np.array([scenario.start_x, scenario.start_y, z0]),
    )


def run_scenario(scenario: Scenario) -> RunResult:
    """Run the closed loop and return the full per-tick telemetry."""
    t_start = time.perf_counter()
    sc = scenario
    dt = sc.dt_control
    n_ticks = int(round(sc.duration / dt))
    stride = sc.perception_stride
    m_diag = tuple(map(float, sc.mass))
    damping_coeffs = tuple(map(float, sc.controller.damping_coeffs))
    filter_time = sc.controller.filter_time
    rng = np.random.default_rng(sc.seed)

    pose0 = start_pose(sc)
    # plant state, base frame: row-major rotation 9-tuple, position, twist
    r_ee, p_ee, twist = tuple(pose0.rotation.ravel().tolist()), tuple(pose0.position.tolist()), (0.0,) * 6
    ctrl = ControllerState(r_init=r_ee, r_d=r_ee)
    rho_align = 0.0
    tank_f = sc.tank_force
    tank_i = sc.tank_impedance
    s_f, s_i = tank_f.s0, tank_i.s0  # J, the tank energies the loop carries
    task_origin = p_ee
    theta = l_s = 0.0  # the latched perception estimate's visual terms
    pending: tuple | None = None  # (frame, camera rotation at render time)
    trigger_armed = True
    events: list[float] = []
    table = np.empty((n_ticks, len(COLUMNS)))
    abort_reason = None

    for k in range(n_ticks):
        t = k * dt

        # --- perception cadence: process last frame, render the next one;
        # the only place the tick meets numpy arrays
        fresh = 0.0
        if k % stride == 0:
            if pending is not None:
                frame, r_cam = pending
                try:
                    latched = perceive(frame, sc.perception)
                    n0, n1, n2 = latched.n_s_camera
                    n_cam = r_cam[:, 0] * n0 + r_cam[:, 1] * n1 + r_cam[:, 2] * n2
                    if n_cam[2] < 0.0:
                        n_cam = -n_cam  # upward convention in the base frame
                    n_s_base = tuple(n_cam.tolist())
                    theta, l_s = float(latched.theta), float(latched.l_s)
                    fresh = 1.0
                except (NoSegmentError, DegenerateSegmentError) as exc:
                    log.debug("perception failed at t=%.3f: %s", t, exc)
            pending = None
            if k + stride < n_ticks:  # a frame rendered now is perceived one stride later
                try:
                    cam_pose = camera_pose_from_tool(Pose(np.reshape(r_ee, (3, 3)), p_ee), sc.camera)
                    pending = (render(sc.camera, cam_pose, sc.surface, rng=rng), cam_pose.rotation)
                except EmptyViewError as exc:
                    log.debug("camera empty view at t=%.3f: %s", t, exc)

        # --- policy and desired pose
        offset, f_d_z = wiping_policy(t, sc.policy)
        r_input = orientation_filter(ctrl, dt, filter_time)
        p_d = (task_origin[0] + offset[0], task_origin[1] + offset[1], task_origin[2])

        # --- contact and frame-local errors
        f_ext_base = contact_wrench(sc.surface, p_ee, twist, sc.tool_radius).wrench
        r_ee_t = transpose(r_ee)
        f_ext_ee = rotate_wrench(r_ee_t, f_ext_base)
        x_tilde = pose_error(r_ee, p_ee, r_input, p_d)
        x_tilde_ee = rotate_wrench(r_ee_t, x_tilde)

        # --- alignment monitor and shaping
        c_val = alignment_metric(f_ext_ee, x_tilde_ee, theta, l_s, sc.monitor)
        h_val = normalized_coefficient(c_val, sc.monitor.c_margin)
        rho_align = rho_align_step(rho_align, h_val, dt, sc.monitor)

        # --- orientation: each fresh surface estimate restarts the low-pass
        # filter from the current attitude, so the tool normal keeps tracking
        # the curvature as the wipe advances
        if fresh:
            restart_filter(ctrl, r_ee, desired_orientation(n_s_base, r_ee))

        # --- realignment: at full compliance, re-latch the desired translation
        # onto the actual pose and re-engage the force controller cleanly
        if realignment_trigger(rho_align, sc.monitor.rho_trigger):
            if trigger_armed:
                events.append(t)
                task_origin = (p_ee[0] - offset[0], p_ee[1] - offset[1], p_ee[2])
                p_d = p_ee
                ctrl.pi_integral = 0.0
                trigger_armed = False
                x_tilde = (0.0, 0.0, 0.0) + x_tilde[3:]  # pose_error at p_d = p_ee: x - x is +0.0
                x_tilde_ee = rotate_wrench(r_ee_t, x_tilde)
        else:
            trigger_armed = True
        rho_f = rho_frc(f_d_z, x_tilde_ee[2], sc.monitor.delta_c)

        # --- controller
        k_var = variable_stiffness(rho_align, r_ee, sc.controller)
        d = damping_matrix(k_var, m_diag, damping_coeffs)
        d0, d1, d2, d3, d4, d5 = d
        v0, v1, v2, v3, v4, v5 = twist
        f_damp = (-d0 * v0, -d1 * v1, -d2 * v2, -d3 * v3, -d4 * v4, -d5 * v5)
        f_var = spring_wrench(k_var, x_tilde)
        # the force port: the commanded thrust opposes the target reaction, shaped by rho_frc
        a0, a1, a2, a3, a4, a5 = force_wrench(f_d_z, f_ext_ee[2], ctrl, r_ee, dt, sc.controller)
        f_force = (-a0 * rho_f, -a1 * rho_f, -a2 * rho_f, -a3 * rho_f, -a4 * rho_f, -a5 * rho_f)

        # --- lam and the tank gates from the pre-step state drive this tick's
        # command and both tank steps; the tank energies themselves are
        # integrated after the plant step with the midpoint twist so the power
        # ledger matches the work actually done on the semi-implicit plant
        lam = lambda_selector(twist, f_force)
        sigma_f, beta_f = valve_sigma(s_f, tank_f), gate_beta(s_f, tank_f)
        sigma_i, beta_i = valve_sigma(s_i, tank_i), gate_beta(s_i, tank_i)
        sigma_f_used = 1.0 if sc.valves_forced_open else sigma_f
        sigma_i_used = 1.0 if sc.valves_forced_open else sigma_i

        f_cmd = compose_command(f_damp, f_var, f_force, lam, sigma_f_used, sigma_i_used)

        try:
            r_next, p_next, twist_next = plant_step(r_ee, p_ee, twist, m_diag, f_cmd, f_ext_base, dt)
        except SimulationDiverged as exc:
            abort_reason = f"{exc} at t={t:.3f} s"
            r_next, p_next, twist_next = r_ee, p_ee, twist
        n0, n1, n2, n3, n4, n5 = twist_next
        twist_mid = (
            0.5 * (v0 + n0), 0.5 * (v1 + n1), 0.5 * (v2 + n2), 0.5 * (v3 + n3), 0.5 * (v4 + n4), 0.5 * (v5 + n5)
        )
        s_f = force_tank_step(s_f, tank_f, twist_mid, f_force, lam, sigma_f, beta_f, dt)
        s_i = impedance_tank_step(s_i, tank_i, twist_mid, f_damp, f_var, sigma_i, beta_i, dt)

        # --- telemetry row k, in COLUMNS order
        table[k] = (
            t, *p_ee, *rotation_to_quaternion(r_ee), *twist, *f_cmd, *f_ext_ee,
            f_d_z, rho_align, rho_f, c_val, h_val, theta, l_s,
            s_i, s_f, sigma_i_used, sigma_f_used, lam, beta_i, beta_f, fresh, *p_d,
        )
        if abort_reason is None and math.hypot(*twist_next) > TWIST_LIMIT:
            abort_reason = f"twist norm {math.hypot(*twist_next):.2f} exceeded {TWIST_LIMIT} at t={t:.3f} s"
        if abort_reason is not None:
            log.error("simulation aborted: %s", abort_reason)
            table = table[: k + 1]
            break
        r_ee, p_ee, twist = r_next, p_next, twist_next

    wall = time.perf_counter() - t_start
    log.info("scenario finished: %d ticks, %d realignment events, %.2f s wall", len(table), len(events), wall)
    return RunResult(
        table=table,
        abort_reason=abort_reason,
        wall_time=wall,
        realignment_events=events,
        scenario=scenario,
    )
