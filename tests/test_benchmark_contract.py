"""The names the benchmark reaches the program by.

perfbench/ measures each layer by replacing module globals of vauf with
timing wrappers, and its hooks read a few attributes of what the wrapped
calls return. Deleting or renaming any of them breaks the benchmark, whose
own smoke test is too slow for this suite; these checks are quick.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import vauf.camera
import vauf.cli
import vauf.controller
import vauf.perception
import vauf.runtime
from vauf.spatial import Pose
from vauf.surface import HeightField, contact_wrench
from vauf.telemetry import COLUMNS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    surface = HeightField(kind="flat", offset=0.0)
    for z, touching in ((0.019, True), (0.03, False)):
        report = contact_wrench(surface, Pose(np.eye(3), np.array([0.0, 0.0, z])), np.zeros(6), 0.02)
        assert report.in_contact is touching


def test_run_rows_have_named_columns():
    result = vauf.runtime.run_scenario(vauf.runtime.Scenario(duration=0.005))
    assert len(result.rows) == 5
    names = ("sigma_i", "S_t_i", "sigma_f", "S_t_f")  # read by the traced run's tank counters
    assert [getattr(result.rows[-1], n) for n in names] == [result.table[-1, COLUMNS.index(n)] for n in names]
