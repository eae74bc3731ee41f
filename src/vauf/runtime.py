"""Deterministic dual-rate closed loop: plant, contact, perception, control.

The plant is a free Cartesian rigid body (diagonal inertia, gravity
pre-compensated) integrated semi-implicitly at the control rate. Perception
runs on its own cadence with one full period of latency: the cloud rendered
at one perception tick is processed at the next. The loop per control tick:

    contact -> alignment monitor -> shaping -> realignment handling ->
    controller -> tanks -> composed command -> plant step -> telemetry row

Inside the loop wrenches, twists and pose errors are raw float64 6-vectors
and gains are Python floats; each tick writes one row of a preallocated
(n_ticks, len(COLUMNS)) telemetry table.

Force-path sign convention: the commanded and measured wrenches the policy,
monitor and PI controller work with are *reaction* wrenches on the tool
(pressing into the surface reads +z in the tool frame), so the thrust the
robot must exert is the negated PI output. The force tank sees the
rho_frc-shaped thrust (its actual gated port) and none of the damper power,
which the impedance tank claims; routing the damper to both would count the
same dissipation twice and break the energy ledger.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import telemetry
from .camera import CameraModel, EmptyViewError, camera_pose_from_tool, render
from .controller import (
    ControllerConfig,
    ControllerState,
    compose_command,
    damping_matrix,
    desired_orientation,
    force_wrench,
    orientation_filter,
    restart_filter,
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
from .perception import (
    DegenerateSegmentError,
    NoSegmentError,
    PerceptionConfig,
    PerceptionResult,
    perceive,
)
from .spatial import (
    Pose,
    pose_error,
    rotate_wrench,
    rotation_exp,
    rotation_to_quaternion,
    rotation_x,
)
from .surface import HeightField, contact_wrench
from .tanks import (
    TankState,
    force_tank_step,
    gate_beta,
    impedance_tank_step,
    lambda_selector,
    valve_sigma,
)
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
class PlantState:
    pose: Pose
    twist: np.ndarray  # 6, base frame
    m_diag: np.ndarray  # 6, kg and kg*m^2


@dataclass(frozen=True)
class Scenario:
    surface: HeightField = field(default_factory=HeightField)
    camera: CameraModel = field(default_factory=CameraModel)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    tank_force: TankState = field(default_factory=lambda: TankState(x_t=2.0, s_upper=2.0, s_lower=1.0))
    tank_impedance: TankState = field(default_factory=lambda: TankState(x_t=7.0, s_upper=32.0, s_lower=1.0))
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
        ratio = self.dt_perception / self.dt_control
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt_perception must be an integer multiple of dt_control")
        if self.duration <= 0.0 or self.dt_control <= 0.0:
            raise ValueError("duration and dt_control must be positive")

    @property
    def perception_stride(self) -> int:
        return int(round(self.dt_perception / self.dt_control))


def wiping_policy(t: float, policy: PolicyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Task-frame pose offset and desired tool-frame contact reaction at time t."""
    a, f = policy.amplitude, policy.frequency
    offset = np.array(
        [a * np.sin(f * t), a * (np.cos(f * t) - 1.0) + policy.drift * t, 0.0, 0.0, 0.0, 0.0]
    )
    return offset, np.array([0.0, 0.0, policy.force_z, 0.0, 0.0, 0.0])


def plant_step(state: PlantState, f_cmd: np.ndarray, f_ext: np.ndarray, dt: float) -> PlantState:
    """Semi-implicit Euler step of the Cartesian rigid body (base-frame wrenches)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    total = f_cmd + f_ext
    if not np.isfinite(total).all():
        raise SimulationDiverged("non-finite commanded or external wrench")
    twist = state.twist + total / state.m_diag * dt
    position = state.pose.position + twist[:3] * dt
    rotation = rotation_exp(twist[3:] * dt) @ state.pose.rotation
    return PlantState(pose=Pose(rotation, position), twist=twist, m_diag=state.m_diag)


@dataclass
class RunResult:
    table: np.ndarray  # (ticks run, len(COLUMNS)) telemetry, one row per tick
    completed: bool
    abort_reason: str | None
    wall_time: float
    realignment_events: list
    scenario: Scenario

    @property
    def rows(self) -> list[TelemetryRow]:
        """The table as TelemetryRow tuples of Python floats.

        Built on each access and not cached: a cached copy would keep a
        second, larger copy of the telemetry alive next to the table.
        """
        # the class is looked up on its own module: the traced benchmark run
        # replaces this module's TelemetryRow name with a timing wrapper
        return list(map(telemetry.TelemetryRow._make, self.table.tolist()))


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
    m_diag = np.asarray(sc.mass, dtype=float)
    m_c = np.diag(m_diag)
    damping_coeffs = np.asarray(sc.controller.damping_coeffs)
    filter_time = sc.controller.filter_time
    rng = np.random.default_rng(sc.seed)

    pose0 = start_pose(sc)
    plant = PlantState(pose=pose0, twist=np.zeros(6), m_diag=m_diag)
    ctrl = ControllerState(r_init=pose0.rotation.copy(), r_d=pose0.rotation.copy())
    rho_align = 0.0
    tank_f = sc.tank_force
    tank_i = sc.tank_impedance
    task_origin = pose0.position.copy()
    latched = PerceptionResult.invalid()
    n_s_base: np.ndarray | None = None
    pending: tuple | None = None  # (cloud, camera rotation at render time)
    trigger_armed = True
    events: list[float] = []
    table = np.empty((n_ticks, len(COLUMNS)))
    ticks_run = n_ticks
    completed = True
    abort_reason = None

    for k in range(n_ticks):
        t = k * dt
        pose = plant.pose
        twist = plant.twist
        r_ee = pose.rotation

        # --- perception cadence: process last frame, render the next one
        fresh = 0.0
        if k % stride == 0:
            if pending is not None:
                cloud, r_cam = pending
                try:
                    latched = perceive(cloud, sc.perception)
                    n_cam = r_cam @ latched.n_s_camera
                    if n_cam[2] < 0.0:
                        n_cam = -n_cam  # upward convention in the base frame
                    n_s_base = n_cam
                    fresh = 1.0
                except (NoSegmentError, DegenerateSegmentError, ValueError) as exc:
                    log.debug("perception failed at t=%.3f: %s", t, exc)
            try:
                cam_pose = camera_pose_from_tool(pose, sc.camera)
                cloud = render(sc.camera, cam_pose, sc.surface, rng=rng, timestamp=t)
                pending = (cloud, cam_pose.rotation)
            except EmptyViewError as exc:
                log.debug("camera empty view at t=%.3f: %s", t, exc)
                pending = None

        # --- policy and desired pose
        offset, f_d_ee = wiping_policy(t, sc.policy)
        r_input = orientation_filter(ctrl, dt, filter_time)
        x_d = Pose(r_input, task_origin + offset[:3])

        # --- contact and frame-local errors
        report = contact_wrench(sc.surface, pose, twist, sc.tool_radius)
        f_ext_base = report.wrench_on_tool.as_vector()
        f_ext_ee = rotate_wrench(r_ee.T, f_ext_base)
        x_tilde = pose_error(pose, x_d)
        x_tilde_ee = rotate_wrench(r_ee.T, x_tilde)

        # --- alignment monitor and shaping
        c_val = alignment_metric(f_ext_ee, x_tilde_ee, latched.theta, latched.l_s, sc.monitor)
        h_val = normalized_coefficient(c_val, sc.monitor.c_margin)
        rho_align = rho_align_step(rho_align, h_val, dt, sc.monitor)

        # --- orientation: each fresh surface estimate restarts the low-pass
        # filter from the current attitude, so the tool normal keeps tracking
        # the curvature as the wipe advances
        if fresh and n_s_base is not None:
            restart_filter(ctrl, r_ee.copy(), desired_orientation(n_s_base, r_ee))

        # --- realignment: at full compliance, re-latch the desired translation
        # onto the actual pose and re-engage the force controller cleanly
        if realignment_trigger(rho_align, sc.monitor.rho_trigger):
            if trigger_armed:
                events.append(t)
                task_origin = pose.position - offset[:3]
                x_d = Pose(r_input, pose.position.copy())
                ctrl.pi_integral = np.zeros(6)
                trigger_armed = False
                x_tilde = pose_error(pose, x_d)
                x_tilde_ee = rotate_wrench(r_ee.T, x_tilde)
        else:
            trigger_armed = True
        rho_f = rho_frc(f_d_ee, x_tilde_ee, sc.monitor.delta_c)

        # --- controller
        k_var = variable_stiffness(rho_align, r_ee, sc.controller)
        d_c = damping_matrix(k_var, m_c, damping_coeffs)
        f_damp = -d_c @ twist
        f_var = -k_var @ x_tilde
        f_ext_pi = np.array([0.0, 0.0, f_ext_ee[2], 0.0, 0.0, 0.0])
        f_reaction = force_wrench(f_d_ee, f_ext_pi, ctrl, r_ee, dt, sc.controller)
        f_app = f_reaction * -1.0  # commanded thrust opposes the target reaction

        # --- tank gates from the pre-step state drive this tick's command and
        # both tank steps; the tank energies themselves are integrated after
        # the plant step with the midpoint twist so the power ledger matches
        # the work actually done on the semi-implicit plant
        f_tank = f_app * rho_f
        lam = lambda_selector(twist, f_tank)
        sigma_f = valve_sigma(tank_f.energy, tank_f.s_lower, tank_f.ramp_eps)
        beta_f = gate_beta(tank_f.energy, tank_f.s_upper, tank_f.ramp_eps)
        sigma_i = valve_sigma(tank_i.energy, tank_i.s_lower, tank_i.ramp_eps)
        beta_i = gate_beta(tank_i.energy, tank_i.s_upper, tank_i.ramp_eps)
        sigma_f_used = 1.0 if sc.valves_forced_open else sigma_f
        sigma_i_used = 1.0 if sc.valves_forced_open else sigma_i

        f_cmd = compose_command(f_damp, f_var, f_app, rho_f, lam, sigma_f_used, sigma_i_used)

        try:
            plant = plant_step(plant, f_cmd, f_ext_base, dt)
        except SimulationDiverged as exc:
            completed = False
            abort_reason = f"{exc} at t={t:.3f} s"
        twist_mid = 0.5 * (twist + plant.twist)
        tank_f = force_tank_step(tank_f, twist_mid, f_tank, sigma_f, beta_f, dt)
        tank_i = impedance_tank_step(tank_i, twist_mid, x_tilde, d_c, k_var, sigma_i, beta_i, dt)

        # --- telemetry row k, in COLUMNS order
        np.concatenate(
            (
                (t,),
                pose.position,
                rotation_to_quaternion(r_ee),
                twist,
                f_cmd,
                f_ext_ee,
                (
                    f_d_ee[2], rho_align, rho_f, c_val, h_val, latched.theta, latched.l_s,
                    tank_i.energy, tank_f.energy, sigma_i_used, sigma_f_used, lam, beta_i, beta_f,
                    fresh,
                ),
                x_d.position,
            ),
            out=table[k],
        )
        if completed and np.linalg.norm(plant.twist) > TWIST_LIMIT:
            completed = False
            abort_reason = f"twist norm {np.linalg.norm(plant.twist):.2f} exceeded {TWIST_LIMIT} at t={t:.3f} s"
        if not completed:
            ticks_run = k + 1
            break

    table = table[:ticks_run]
    wall = time.perf_counter() - t_start
    if not completed:
        log.error("simulation aborted: %s", abort_reason)
    log.info(
        "scenario finished: %d ticks, %d realignment events, %.2f s wall",
        len(table),
        len(events),
        wall,
    )
    return RunResult(
        table=table,
        completed=completed,
        abort_reason=abort_reason,
        wall_time=wall,
        realignment_events=events,
        scenario=scenario,
    )
