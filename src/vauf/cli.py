"""Command-line entry point: run scenarios, report metrics, export plot data.

Exit codes: 0 success, 2 configuration/parse error or an output directory
or file that cannot be created or written (`run` checks each before it
simulates), 3 simulation abort, 4 passivity-audit failure when --audit is
requested. Log level comes from the VAUF_LOG_LEVEL environment variable:
error, warn, info or debug; any other value warns on stderr.
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
from .tanks import passivity_audit
from .telemetry import ParseError, compute_metrics, format_report, read_csv, rows_to_columns, write_csv

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_AUDIT = 4

_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    name = os.environ.get("VAUF_LOG_LEVEL", "warn").lower()
    if name not in _LEVELS:
        print(f"vauf: VAUF_LOG_LEVEL={name!r} is not one of {', '.join(_LEVELS)}; logging at warn", file=sys.stderr)
    level = _LEVELS.get(name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("vauf").setLevel(level)  # basicConfig does nothing once the root has a handler


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
        scenario = with_overrides(parse_scenario(args.scenario), seed=args.seed, duration=args.duration)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    try:  # open every output before the run; append mode truncates nothing
        for path in (out / "telemetry.csv", out / "report.txt"):
            open(path, "a").close()
        path = out / "scenario.cfg"
        path.write_text(scenario_to_text(scenario))
    except OSError as exc:
        return _cannot_write(path, exc)

    result = run_scenario(scenario)
    table = result.table
    try:
        write_csv(table, out / "telemetry.csv")
    except OSError as exc:
        return _cannot_write(out / "telemetry.csv", exc)

    audit = passivity_audit(table, scenario) if args.audit else None
    metrics = compute_metrics(rows_to_columns(table))
    stats = {
        "ticks": len(table),
        "wall time [s]": f"{result.wall_time:.2f}",
        "realignment events": len(result.realignment_events),
        "completed": result.completed,
    }
    if not result.completed:
        stats["abort"] = result.abort_reason
    report = format_report(metrics, audit, stats)
    try:
        (out / "report.txt").write_text(report)
    except OSError as exc:
        return _cannot_write(out / "report.txt", exc)
    print(report, end="")

    if not result.completed:
        print(f"simulation aborted: {result.abort_reason}", file=sys.stderr)
        return EXIT_ABORT
    if audit is not None and not audit.ok:
        print("passivity audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _cannot_write(path, exc) -> int:
    print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_CONFIG


def _read_telemetry(path):
    """The telemetry table, or None after printing why it cannot be used."""
    try:
        table = read_csv(path)
    except (OSError, ParseError) as exc:
        print(f"cannot read telemetry: {exc}", file=sys.stderr)
        return None
    if not len(table):
        print("telemetry is empty", file=sys.stderr)
        return None
    return table


def cmd_report(args) -> int:
    table = _read_telemetry(args.telemetry)
    if table is None:
        return EXIT_CONFIG
    print(format_report(compute_metrics(rows_to_columns(table))), end="")
    return EXIT_OK


def cmd_export_plots(args) -> int:
    tele_path = Path(args.telemetry)
    table = _read_telemetry(tele_path)
    if table is None:
        return EXIT_CONFIG
    scenario_path = args.scenario or tele_path.with_name("scenario.cfg")
    try:
        scenario = parse_scenario(scenario_path)
    except ConfigError as exc:
        print(f"config error (need the run's scenario for the surface profile): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out) if args.out else tele_path.parent
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    c = rows_to_columns(table)
    c |= {
        "y": c["py"],
        "z_tool": c["pz"],
        "h_y": scenario.surface.height_unchecked(c["px"], c["py"]),
        "fd_shaped_z": c["rho_frc"] * c["fd_ee_z"],
    }
    for name, header in (
        ("trajectory_vs_surface", ["y", "z_tool", "h_y"]),
        ("shaping", ["t", "rho_align", "rho_frc", "C", "h", "theta", "l_s", "perception_fresh"]),
        ("force", ["t", "fd_shaped_z", "fext_ee_fz", "fcmd_fz"]),
        ("tanks", ["t", "S_t_i", "S_t_f", "sigma_i", "sigma_f", "beta_i", "beta_f", "lam"]),
    ):
        path = out / f"{name}.csv"
        try:
            write_csv(np.column_stack([c[h] for h in header]), path, header)
        except OSError as exc:
            return _cannot_write(path, exc)
    print(f"wrote 4 plot tables to {out}")
    return EXIT_OK


_COMMANDS = {"run": cmd_run, "report": cmd_report, "export-plots": cmd_export_plots}


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def entry() -> None:
    sys.exit(main())
