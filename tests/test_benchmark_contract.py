"""The names the benchmark reaches the program by.

perfbench/ measures each layer by replacing module globals of vauf with
timing wrappers, and its hooks read a few attributes of what the wrapped
calls return. Deleting or renaming any of them breaks the benchmark, whose
own smoke test is too slow for this suite; these checks are quick. The
workloads also call the program directly (``cli.main``,
``runtime.run_scenario``, ``camera.render`` with a ``Pose``,
``perception.perceive``), so each one runs once at its smoke size here.
"""

import importlib
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vauf.camera
import vauf.cli
import vauf.controller
import vauf.perception
import vauf.runtime
from vauf.surface import HeightField, contact_wrench
from vauf.telemetry import BLOCK_ROWS, COLUMNS, rows_to_columns, write_csv

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Seed-1 smoke-size output digest prefixes. They pin the bytes of the
# reference wipe's telemetry file, the sweep's scenario distribution and the
# 64x48, k=80 perception path. They hold on one host class: x86-64, numpy
# 2.4.6 with its AVX-512 loops, and glibc 2.36 with its FMA libm variants;
# the OpenBLAS kernel set does not move them (tests/test_dependencies.py).
SMOKE_DIGESTS = {
    "reference_wipe": "4329231ab59f578e",
    "random_sweep": "7477d44c1820b590",
    "dense_perception": "045eabe2ab08a583",
}


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's layers, tracing and workloads modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("layers", "tracing", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_patch_tables_name_existing_globals(perfbench):
    layers = perfbench["layers"]
    for module, table in (
        (vauf.runtime, layers._RUNTIME),
        (vauf.controller, layers._CONTROLLER),
        (vauf.perception, layers._PERCEPTION),
        (vauf.cli, layers._CLI),
    ):
        missing = [attr for attr in table if not callable(getattr(module, attr, None))]
        assert not missing, f"{module.__name__} lacks {missing}"


def test_install_then_restore_leaves_globals_unchanged(perfbench):
    modules = (vauf.runtime, vauf.controller, vauf.perception, vauf.cli, vauf.camera)
    before = [dict(vars(m)) for m in modules]
    tracer = perfbench["tracing"].Tracer()
    try:
        perfbench["layers"].install(tracer)
        assert vauf.camera.render is not before[-1]["render"]
    finally:
        tracer.restore()
    for module, globals_before in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in globals_before.items())


def test_contact_report_has_in_contact():
    surface = HeightField(amplitude=0.0, offset=0.0)
    for z, touching in ((0.019, True), (0.03, False)):
        report = contact_wrench(surface, np.array([0.0, 0.0, z]), np.zeros(6), 0.02)
        assert report.in_contact is touching


def test_working_segment_size_is_its_member_count():
    # the traced run's working_frac counter reads .size off select_working_segment's result
    g = np.linspace(-0.1, 0.1, 24)
    xx, yy = np.meshgrid(g, g)
    row, col = np.divmod(np.arange(xx.size), 24)
    frame = vauf.Frame(np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, 0.3)]), row, col)
    normals = vauf.perception.estimate_point_normals(frame, 10)
    segments = vauf.perception.region_grow(frame.points, normals, np.deg2rad(8.0), 30)
    working = vauf.perception.select_working_segment(frame.points, segments)
    assert working.size == len(np.unique(working)) > 0


def test_run_rows_have_named_columns():
    result = vauf.runtime.run_scenario(vauf.runtime.Scenario(duration=0.005))
    assert len(result.rows) == 5
    assert np.array_equal(np.asarray(result.rows), result.table)
    names = ("sigma_i", "S_t_i", "sigma_f", "S_t_f")  # read by the traced run's tank counters
    assert [getattr(result.rows[-1], n) for n in names] == [result.table[-1, COLUMNS.index(n)] for n in names]


@pytest.fixture(scope="module")
def sweep_result(perfbench, tmp_path_factory):
    """The run of the first scenario of perfbench's random_sweep at seed 1."""
    workloads = perfbench["workloads"]
    scenario = workloads.RandomSweep(1, tmp_path_factory.mktemp("sweep"), False).scenarios[0]
    return vauf.runtime.run_scenario(scenario)


def test_run_rows_are_a_view_of_the_table(sweep_result, tmp_path):
    result = sweep_result
    assert len(result.rows) == len(result.table) > 2 * BLOCK_ROWS  # iteration crosses blocks
    assert np.shares_memory(np.asarray(result.rows, dtype=float), result.table)
    copied = np.array(result.rows, copy=True)
    assert not np.shares_memory(copied, result.table) and np.array_equal(copied, result.table)
    rows = list(result.rows)
    assert [list(row) for row in rows] == result.table.tolist()
    assert all(row._fields == tuple(COLUMNS) for row in rows)
    write_csv(result.rows, tmp_path / "rows.csv")
    write_csv(result.table, tmp_path / "table.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def test_sweep_reads_of_rows_copy_no_table(sweep_result):
    result = sweep_result
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        # the three reads of rows that perfbench's RandomSweep.op makes per scenario
        table = np.asarray(result.rows, dtype=float)
        ticks = len(result.rows)
        columns = rows_to_columns(result.rows)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert ticks == 1500 and table.shape == result.table.shape and len(columns) == len(COLUMNS)
    assert peak <= 64 * 1024, f"three reads of a 1,500-tick run's rows peaked at {peak / 1024:.0f} KB"


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_at_smoke_size(perfbench, name, tmp_path):
    layers, tracing, workloads = (perfbench[m] for m in ("layers", "tracing", "workloads"))
    workload = workloads.WORKLOADS[name](1, tmp_path, True)
    plain = workload.op()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        tracer.begin_op()
        traced = workload.op()
    finally:
        tracer.restore()
    _, check_failures = workload.finish([plain])
    assert not check_failures
    for record in (plain, traced):
        assert record.failed == 0 and not record.failures, record.failures
    assert traced.digest == plain.digest
    assert plain.digest[:16] == SMOKE_DIGESTS[name]
    assert list(layers.metrics(tracer, 0.0)) == [metric for metric, _, _ in layers.PER_LAYER]


# Patched globals a control tick never calls, with the reason. Everything
# else in layers._RUNTIME and layers._CONTROLLER must be called at least once
# per traced smoke op, or the float tick has bypassed the global and its
# per-layer metric silently reads 0.
UNREACHED_BY_TICK = {
    (vauf.runtime, "run_scenario"): "the loop itself; the CLI calls it through vauf.cli.run_scenario",
    (vauf.runtime, "TelemetryRow"): "the tick writes table rows; the RunResult.rows view makes rows on access through telemetry.TelemetryRow",
}


def test_smoke_op_forks_no_perception_worker(perfbench, tmp_path, monkeypatch):
    # the guard below sees render and perceive on vauf.runtime only while the
    # smoke op's frames are perceived in this process, below WORKER_MIN_FRAMES
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    record = perfbench["workloads"].WORKLOADS["reference_wipe"](1, tmp_path, True).op()
    assert record.failed == 0 and not forks


def test_traced_smoke_op_reaches_every_patched_global(perfbench, tmp_path):
    layers, tracing, workloads = (perfbench[m] for m in ("layers", "tracing", "workloads"))
    workload = workloads.WORKLOADS["reference_wipe"](1, tmp_path, True)
    tracer = tracing.Tracer()
    layers.install(tracer)
    calls = {}
    try:
        with pytest.MonkeyPatch.context() as mp:
            for module, table in ((vauf.runtime, layers._RUNTIME), (vauf.controller, layers._CONTROLLER)):
                for attr in table:
                    traced = getattr(module, attr)

                    def counted(*args, _key=(module, attr), _fn=traced, **kwargs):
                        calls[_key] = calls.get(_key, 0) + 1
                        return _fn(*args, **kwargs)

                    mp.setattr(module, attr, counted)
            tracer.begin_op()
            record = workload.op()
    finally:
        tracer.restore()
    assert record.failed == 0, record.failures
    summary = tracer.summary()
    expected = [
        (module, attr, span)
        for module, table in ((vauf.runtime, layers._RUNTIME), (vauf.controller, layers._CONTROLLER))
        for attr, span in table.items()
        if (module, attr) not in UNREACHED_BY_TICK
    ]
    assert not [attr for module, attr, _ in expected if not calls.get((module, attr))]
    assert not [span for _, _, span in expected if not summary.get(span, (0,))[0]]
    assert not [key for key in UNREACHED_BY_TICK if calls.get(key)], "a listed global is called: drop it from the list"
