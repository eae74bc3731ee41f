"""Command-line entry point: run scenarios, report metrics, export plot data.

Exit codes: 0 success, 2 configuration/parse error, 3 simulation abort,
4 passivity-audit failure when --audit is requested. Log level comes from
the VAUF_LOG_LEVEL environment variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_scenario, scenario_to_text, with_overrides
from .runtime import run_scenario
from .tanks import AuditError, passivity_audit
from .telemetry import ParseError, compute_metrics, format_report, read_csv, rows_to_columns, write_csv

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_AUDIT = 4

_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("VAUF_LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=_LEVELS.get(level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vauf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write telemetry + report")
    p_run.add_argument("--scenario", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--duration", type=float, default=None)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--audit", action="store_true", help="run the passivity audit; exit 4 on failure")

    p_rep = sub.add_parser("report", help="print metrics for an existing telemetry CSV")
    p_rep.add_argument("telemetry", help="telemetry CSV path")

    p_exp = sub.add_parser("export-plots", help="write plot-ready CSV tables")
    p_exp.add_argument("telemetry", help="telemetry CSV path")
    p_exp.add_argument("--scenario", default=None, help="scenario file (defaults to sibling scenario.cfg)")
    p_exp.add_argument("--out", default=None, help="output directory (defaults next to the telemetry)")
    return parser


def cmd_run(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    scenario = with_overrides(scenario, seed=args.seed, duration=args.duration)

    result = run_scenario(scenario)
    table = result.table
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(table, out / "telemetry.csv")
    (out / "scenario.cfg").write_text(scenario_to_text(scenario))

    audit = None
    if len(table):
        columns = rows_to_columns(table)
        if args.audit:
            audit = passivity_audit(
                columns,
                np.asarray(scenario.mass),
                scenario.dt_control,
                scenario.tank_impedance.energy,
                scenario.tank_force.energy,
            )
        metrics = compute_metrics(columns)
        stats = {
            "ticks": len(table),
            "wall time [s]": f"{result.wall_time:.2f}",
            "realignment events": len(result.realignment_events),
            "completed": result.completed,
        }
        if not result.completed:
            stats["abort"] = result.abort_reason
        report = format_report(metrics, audit, stats)
        (out / "report.txt").write_text(report)
        print(report, end="")

    if not result.completed:
        print(f"simulation aborted: {result.abort_reason}", file=sys.stderr)
        return EXIT_ABORT
    if audit is not None and not audit.ok:
        print("passivity audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        rows = read_csv(args.telemetry)
    except (OSError, ParseError) as exc:
        print(f"cannot read telemetry: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not rows:
        print("telemetry is empty", file=sys.stderr)
        return EXIT_CONFIG
    print(format_report(compute_metrics(rows_to_columns(rows))), end="")
    return EXIT_OK


def _write_table(path: Path, header: list, columns: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_export_plots(args) -> int:
    tele_path = Path(args.telemetry)
    try:
        rows = read_csv(tele_path)
    except (OSError, ParseError) as exc:
        print(f"cannot read telemetry: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    scenario_path = args.scenario or tele_path.with_name("scenario.cfg")
    try:
        scenario = parse_scenario(scenario_path)
    except ConfigError as exc:
        print(f"config error (need the run's scenario for the surface profile): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out) if args.out else tele_path.parent
    out.mkdir(parents=True, exist_ok=True)
    c = rows_to_columns(rows)

    h_y = scenario.surface.height_unchecked(c["px"], c["py"])
    _write_table(out / "trajectory_vs_surface.csv", ["y", "z_tool", "h_y"], [c["py"], c["pz"], h_y])
    _write_table(
        out / "shaping.csv",
        ["t", "rho_align", "rho_frc", "C", "h", "theta", "l_s", "perception_fresh"],
        [c["t"], c["rho_align"], c["rho_frc"], c["C"], c["h"], c["theta"], c["l_s"], c["perception_fresh"]],
    )
    _write_table(
        out / "force.csv",
        ["t", "fd_shaped_z", "fext_ee_fz", "fcmd_fz"],
        [c["t"], c["rho_frc"] * c["fd_ee_z"], c["fext_ee_fz"], c["fcmd_fz"]],
    )
    _write_table(
        out / "tanks.csv",
        ["t", "S_t_i", "S_t_f", "sigma_i", "sigma_f", "beta_i", "beta_f", "lam"],
        [c["t"], c["S_t_i"], c["S_t_f"], c["sigma_i"], c["sigma_f"], c["beta_i"], c["beta_f"], c["lam"]],
    )
    print(f"wrote 4 plot tables to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "export-plots":
            return cmd_export_plots(args)
    except AuditError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
