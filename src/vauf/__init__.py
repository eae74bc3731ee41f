"""Visuo-tactile exploration of unknown rigid curvatures.

A deterministic simulator and controller library: a Cartesian tool presses
on and wipes across a parametric surface under unified force-impedance
control, a synthetic depth camera feeds a PCA perception pipeline, an
online alignment monitor shapes stiffness and force, and virtual energy
tanks keep the time-varying controller passive.
"""

from .camera import CameraModel, Frame, camera_pose_from_tool, render
from .config import ConfigError, parse_scenario, parse_scenario_text, scenario_to_text
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
from .perception import (
    PerceptionConfig,
    PerceptionResult,
    estimate_point_normals,
    orientation_error,
    perceive,
    region_grow,
    segment_pca,
    select_working_segment,
)
from .runtime import (
    PolicyConfig,
    RunResult,
    Scenario,
    plant_step,
    run_scenario,
    start_pose,
    wiping_policy,
)
from .spatial import (
    Pose,
    pose_error,
    rotate_wrench,
    rotation_log,
    rotation_power,
)
from .surface import ContactReport, HeightField, analytic_normal, contact_wrench, height
from .tanks import (
    AuditReport,
    TankConfig,
    compose_command,
    force_tank_step,
    gate_beta,
    impedance_tank_step,
    lambda_selector,
    passivity_audit,
    valve_sigma,
)
from .telemetry import (
    COLUMNS,
    RunMetrics,
    TelemetryRow,
    compute_metrics,
    format_report,
    read_csv,
    rows_to_columns,
    write_csv,
)

__version__ = "0.1.0"
