"""Tiny-length smoke test of the benchmark command.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload plain and traced with ``--smoke`` (short scenarios,
three frames, one set-up process) and checks the result line against
BENCHMARK.json: every named metric is printed with its unit, and the run
is correct. Also checks that the command refuses to run without the
program's sources next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the workload's own metrics, printed above the result line in both modes
WORKLOAD_METRICS = {
    "reference_wipe": {"tick_us_p50": "us", "run_s_p50": "s", "force_mae_n": "N", "failed_frac": "ratio"},
    "random_sweep": {"tick_us_p50": "us", "sweep_s_p50": "s", "force_mae_n": "N", "failed_frac": "ratio"},
    "dense_perception": {
        "frame_ms_p50": "ms",
        "frame_ms_tail": "ms",
        "normal_err_deg_p95": "deg",
        "normal_hit_frac": "ratio",
        "failed_frac": "ratio",
    },
}


def printed(lines, name, unit):
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines)


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert printed(lines[:-1], m["name"], m["unit"])
    for name, unit in WORKLOAD_METRICS[workload].items():
        assert printed(lines[:-1], name, unit), name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
