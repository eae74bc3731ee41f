"""End-to-end exploration run: the reference scenario, summarized.

Runs the 20 s reference wipe over the curved patch, prints the tracking and
tank metrics, runs the passivity audit, and writes the telemetry plus the
four plot-ready tables into ./out_demo/.
"""

import pathlib

from vauf import compute_metrics, parse_scenario, passivity_audit, rows_to_columns, run_scenario
from vauf.cli import main as vauf_cli
from vauf.telemetry import format_report, write_csv

scenario_path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"
scenario = parse_scenario(scenario_path)

print(f"running {scenario.duration:.0f} s of exploration at {1 / scenario.dt_control:.0f} Hz "
      f"with perception every {scenario.dt_perception * 1000:.0f} ms ...")
result = run_scenario(scenario)
print(f"done in {result.wall_time:.1f} s wall, {len(result.table)} ticks, "
      f"{len(result.realignment_events)} realignment event(s)\n")

audit = passivity_audit(result.table, scenario)
print(format_report(compute_metrics(rows_to_columns(result.table)), audit))

out = pathlib.Path("out_demo")
out.mkdir(exist_ok=True)
write_csv(result.table, out / "telemetry.csv")
(out / "scenario.cfg").write_text(scenario_path.read_text())
vauf_cli(["export-plots", str(out / "telemetry.csv"), "--scenario", str(scenario_path)])
print(f"telemetry and plot tables written to {out}/")
