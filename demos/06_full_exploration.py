"""End-to-end exploration run: the reference scenario through the command line.

Runs `vauf run --audit` on the 20 s reference wipe over the curved patch,
which prints the tracking, tank and audit report and writes it with the
telemetry into ./out_demo/, then `vauf export-plots` for the four plot-ready
tables. Exits with the command line's code: 3 on an aborted run, 4 on a
failed audit.
"""

import pathlib
import sys

from vauf.cli import main as vauf_cli

scenario = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"
code = vauf_cli(["run", "--scenario", str(scenario), "--out", "out_demo", "--audit"])
sys.exit(code or vauf_cli(["export-plots", "out_demo/telemetry.csv"]))
