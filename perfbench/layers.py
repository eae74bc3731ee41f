"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapped name is a module global that its caller looks up at call
time, so replacing it measures the layer without touching ``src/``. The
loop's collaborators are patched on ``vauf.runtime``; the functions they
call in turn on ``vauf.controller`` and ``vauf.perception``; the run path
on ``vauf.cli``. ``vauf.camera.render`` and ``vauf.perception.perceive``
are also patched for the dense-perception workload, which calls them
directly.
"""

from __future__ import annotations

import os

import vauf.camera
import vauf.cli
import vauf.controller
import vauf.perception
import vauf.runtime

from tracing import Tracer

# (metric, unit, better); every traced run prints all of them. A layer a
# workload does not reach reads 0 calls and 0 time.
PER_LAYER = [
    ("runtime.self_us_per_tick", "us", "lower"),
    ("runtime.plant_step_us", "us", "lower"),
    ("runtime.ticks", "count", "higher"),
    ("spatial.pose_error_us", "us", "lower"),
    ("spatial.rotate_wrench_us", "us", "lower"),
    ("spatial.rotation_to_quaternion_us", "us", "lower"),
    ("spatial.rotation_power_us", "us", "lower"),
    ("surface.contact_wrench_us", "us", "lower"),
    ("surface.contact_frac", "ratio", "higher"),
    ("monitor.alignment_metric_us", "us", "lower"),
    ("monitor.rho_align_step_us", "us", "lower"),
    ("monitor.rho_frc_us", "us", "lower"),
    ("monitor.realignments", "count", "lower"),
    ("controller.orientation_filter_us", "us", "lower"),
    ("controller.orientation_filter_active", "count", "lower"),
    ("controller.force_wrench_us", "us", "lower"),
    ("controller.variable_stiffness_us", "us", "lower"),
    ("controller.damping_matrix_us", "us", "lower"),
    ("controller.compose_command_us", "us", "lower"),
    ("tanks.force_tank_step_us", "us", "lower"),
    ("tanks.impedance_tank_step_us", "us", "lower"),
    ("tanks.gates_us", "us", "lower"),
    ("tanks.audit_ms", "ms", "lower"),
    ("tanks.sigma_zero_ticks.i", "count", "lower"),
    ("tanks.sigma_zero_ticks.f", "count", "lower"),
    ("tanks.band_edge_ticks.i", "count", "lower"),
    ("tanks.band_edge_ticks.f", "count", "lower"),
    ("camera.render_ms", "ms", "lower"),
    ("camera.frames", "count", "higher"),
    ("camera.empty_views", "count", "lower"),
    ("camera.hit_frac", "ratio", "higher"),
    ("perception.normals_ms", "ms", "lower"),
    ("perception.region_grow_ms", "ms", "lower"),
    ("perception.segment_pca_ms", "ms", "lower"),
    ("perception.perceive_ms", "ms", "lower"),
    ("perception.fail.NoSegmentError", "count", "lower"),
    ("perception.fail.DegenerateSegmentError", "count", "lower"),
    ("perception.success_frac", "ratio", "higher"),
    ("perception.working_frac", "ratio", "higher"),
    ("telemetry.row_us", "us", "lower"),
    ("telemetry.write_csv_ms", "ms", "lower"),
    ("telemetry.csv_bytes", "B", "lower"),
    ("telemetry.rows_to_columns_ms", "ms", "lower"),
    ("config.parse_scenario_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# module global -> span name, patched on vauf.runtime
_RUNTIME = {
    "run_scenario": "runtime.run_scenario",
    "plant_step": "runtime.plant_step",
    "wiping_policy": "runtime.wiping_policy",
    "pose_error": "spatial.pose_error",
    "rotate_wrench": "spatial.rotate_wrench",
    "rotation_to_quaternion": "spatial.rotation_to_quaternion",
    "contact_wrench": "surface.contact_wrench",
    "alignment_metric": "monitor.alignment_metric",
    "normalized_coefficient": "monitor.normalized_coefficient",
    "rho_align_step": "monitor.rho_align_step",
    "rho_frc": "monitor.rho_frc",
    "realignment_trigger": "monitor.realignment_trigger",
    "orientation_filter": "controller.orientation_filter",
    "desired_orientation": "controller.desired_orientation",
    "variable_stiffness": "controller.variable_stiffness",
    "damping_matrix": "controller.damping_matrix",
    "force_wrench": "controller.force_wrench",
    "compose_command": "controller.compose_command",
    "lambda_selector": "tanks.lambda_selector",
    "valve_sigma": "tanks.valve_sigma",
    "gate_beta": "tanks.gate_beta",
    "force_tank_step": "tanks.force_tank_step",
    "impedance_tank_step": "tanks.impedance_tank_step",
    "camera_pose_from_tool": "camera.camera_pose_from_tool",
    "render": "camera.render",
    "perceive": "perception.perceive",
    "TelemetryRow": "telemetry.row",
}
_CONTROLLER = {
    "rotation_power": "spatial.rotation_power",
    "rotate_wrench": "spatial.rotate_wrench",
}
_PERCEPTION = {
    "perceive": "perception.perceive",
    "estimate_point_normals": "perception.normals",
    "region_grow": "perception.region_grow",
    "select_working_segment": "perception.select_working_segment",
    "segment_pca": "perception.segment_pca",
}
_CLI = {
    "parse_scenario": "config.parse_scenario",
    "run_scenario": "runtime.run_scenario",
    "write_csv": "telemetry.write_csv",
    "rows_to_columns": "telemetry.rows_to_columns",
    "passivity_audit": "tanks.passivity_audit",
    "compute_metrics": "telemetry.compute_metrics",
    "format_report": "telemetry.format_report",
}
_GATES = ("tanks.lambda_selector", "tanks.valve_sigma", "tanks.gate_beta")
BAND_EDGE_TOL = 1e-9  # J


def install(tracer: Tracer) -> None:
    """Patch every traced global; undo with tracer.restore()."""
    counts = tracer.counts

    def run_done(args, kwargs, result):
        sc = args[0]
        counts["runtime.ticks"] += len(result.rows)
        counts["monitor.realignments"] += len(result.realignment_events)
        for suffix, col_sigma, col_s, tank in (
            ("i", "sigma_i", "S_t_i", sc.tank_impedance),
            ("f", "sigma_f", "S_t_f", sc.tank_force),
        ):
            for row in result.rows:
                counts[f"tanks.sigma_zero_ticks.{suffix}"] += getattr(row, col_sigma) == 0.0
                s = getattr(row, col_s)
                counts[f"tanks.band_edge_ticks.{suffix}"] += (
                    s <= tank.s_lower + BAND_EDGE_TOL or s >= tank.s_upper - BAND_EDGE_TOL
                )

    def contact_done(args, kwargs, result):
        counts["surface.in_contact"] += bool(result.in_contact)

    def filter_called(args, kwargs):
        state, _dt, filter_time = args
        counts["controller.orientation_filter_active"] += state.t_filter < filter_time

    def render_called(args, kwargs):
        cam = args[0]
        counts["camera.pixels"] += cam.cols * cam.rows

    def render_done(args, kwargs, result):
        counts["camera.points"] += len(result)

    def perceived(args, kwargs, result):
        counts["perception.useful"] += 1

    def grown(args, kwargs, result):
        counts["perception.grown_points"] += len(args[0])

    def selected(args, kwargs, result):
        counts["perception.working_points"] += result.size

    def csv_written(args, kwargs, result):
        counts["telemetry.csv_bytes"] += os.path.getsize(args[1])

    hooks = {
        "runtime.run_scenario": {"after": run_done},
        "surface.contact_wrench": {"after": contact_done},
        "controller.orientation_filter": {"before": filter_called},
        "camera.render": {"before": render_called, "after": render_done},
        "perception.perceive": {"after": perceived},
        "perception.region_grow": {"after": grown},
        "perception.select_working_segment": {"after": selected},
        "telemetry.write_csv": {"after": csv_written},
    }
    for module, table in (
        (vauf.runtime, _RUNTIME),
        (vauf.controller, _CONTROLLER),
        (vauf.perception, _PERCEPTION),
        (vauf.cli, _CLI),
        (vauf.camera, {"render": "camera.render"}),
    ):
        for attr, name in table.items():
            tracer.patch(module, attr, name, **hooks.get(name, {}))


def metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Per-layer metric values from one traced op; inclusive time per call."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def per_call(names, scale_ns):
        if isinstance(names, str):
            names = (names,)
        n = sum(summary.get(x, (0, 0.0, 0.0))[0] for x in names)
        total = sum(summary.get(x, (0, 0.0, 0.0))[1] for x in names)
        return total / n / scale_ns if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e3, 1e6
    ticks = counts["runtime.ticks"]
    frames = calls("camera.render")
    failed = {
        exc: counts[f"perception.perceive.raised.{exc}"]
        for exc in ("NoSegmentError", "DegenerateSegmentError")
    }
    self_run_ns = summary.get("runtime.run_scenario", (0, 0.0, 0.0))[2]
    values = {
        "runtime.self_us_per_tick": ratio(self_run_ns / us, ticks),
        "runtime.plant_step_us": per_call("runtime.plant_step", us),
        "runtime.ticks": ticks,
        "spatial.pose_error_us": per_call("spatial.pose_error", us),
        "spatial.rotate_wrench_us": per_call("spatial.rotate_wrench", us),
        "spatial.rotation_to_quaternion_us": per_call("spatial.rotation_to_quaternion", us),
        "spatial.rotation_power_us": per_call("spatial.rotation_power", us),
        "surface.contact_wrench_us": per_call("surface.contact_wrench", us),
        "surface.contact_frac": ratio(counts["surface.in_contact"], calls("surface.contact_wrench")),
        "monitor.alignment_metric_us": per_call("monitor.alignment_metric", us),
        "monitor.rho_align_step_us": per_call("monitor.rho_align_step", us),
        "monitor.rho_frc_us": per_call("monitor.rho_frc", us),
        "monitor.realignments": counts["monitor.realignments"],
        "controller.orientation_filter_us": per_call("controller.orientation_filter", us),
        "controller.orientation_filter_active": counts["controller.orientation_filter_active"],
        "controller.force_wrench_us": per_call("controller.force_wrench", us),
        "controller.variable_stiffness_us": per_call("controller.variable_stiffness", us),
        "controller.damping_matrix_us": per_call("controller.damping_matrix", us),
        "controller.compose_command_us": per_call("controller.compose_command", us),
        "tanks.force_tank_step_us": per_call("tanks.force_tank_step", us),
        "tanks.impedance_tank_step_us": per_call("tanks.impedance_tank_step", us),
        "tanks.gates_us": per_call(_GATES, us),
        "tanks.audit_ms": per_call("tanks.passivity_audit", ms),
        "tanks.sigma_zero_ticks.i": counts["tanks.sigma_zero_ticks.i"],
        "tanks.sigma_zero_ticks.f": counts["tanks.sigma_zero_ticks.f"],
        "tanks.band_edge_ticks.i": counts["tanks.band_edge_ticks.i"],
        "tanks.band_edge_ticks.f": counts["tanks.band_edge_ticks.f"],
        "camera.render_ms": per_call("camera.render", ms),
        "camera.frames": frames,
        "camera.empty_views": counts["camera.render.raised.EmptyViewError"],
        "camera.hit_frac": ratio(counts["camera.points"], counts["camera.pixels"]),
        "perception.normals_ms": per_call("perception.normals", ms),
        "perception.region_grow_ms": per_call("perception.region_grow", ms),
        "perception.segment_pca_ms": per_call("perception.segment_pca", ms),
        "perception.perceive_ms": per_call("perception.perceive", ms),
        "perception.fail.NoSegmentError": failed["NoSegmentError"],
        "perception.fail.DegenerateSegmentError": failed["DegenerateSegmentError"],
        "perception.success_frac": ratio(counts["perception.useful"], frames),
        "perception.working_frac": ratio(
            counts["perception.working_points"], counts["perception.grown_points"]
        ),
        "telemetry.row_us": per_call("telemetry.row", us),
        "telemetry.write_csv_ms": per_call("telemetry.write_csv", ms),
        "telemetry.csv_bytes": counts["telemetry.csv_bytes"],
        "telemetry.rows_to_columns_ms": per_call("telemetry.rows_to_columns", ms),
        "config.parse_scenario_ms": per_call("config.parse_scenario", ms),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: values[name] for name, _, _ in PER_LAYER}


def span_table(tracer: Tracer) -> list[str]:
    """Human-readable calls / inclusive / self per span name."""
    lines = [f"  {'span':38s} {'calls':>8s} {'incl us/call':>13s} {'self us/call':>13s}"]
    for name, (n, total, own) in sorted(tracer.summary().items()):
        if n:
            lines.append(f"  {name:38s} {n:8d} {total / n / 1e3:13.3f} {own / n / 1e3:13.3f}")
    return lines
