import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vauf.config import parse_scenario
from vauf.runtime import run_scenario
from vauf.telemetry import rows_to_columns

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def reference_scenario():
    return parse_scenario(SCENARIO_DIR / "reference.cfg")


@pytest.fixture(scope="session")
def reference_run(reference_scenario):
    result = run_scenario(reference_scenario)
    assert result.completed, result.abort_reason
    return result


@pytest.fixture(scope="session")
def reference_columns(reference_run):
    return rows_to_columns(reference_run.table)


@pytest.fixture(scope="session")
def flat_scenario():
    return parse_scenario(SCENARIO_DIR / "flat_steady.cfg")


@pytest.fixture(scope="session")
def flat_run(flat_scenario):
    result = run_scenario(flat_scenario)
    assert result.completed, result.abort_reason
    return result


@pytest.fixture(scope="session")
def flat_columns(flat_run):
    return rows_to_columns(flat_run.table)


def noise_free(scenario):
    """scenario with camera.noise_sigma = 0 and run.duration = 3."""
    return replace(scenario, camera=replace(scenario.camera, noise_sigma=0.0), duration=3.0)


@pytest.fixture(scope="session")
def noise_free_run(reference_scenario):
    """reference.cfg with camera.noise_sigma = 0 and run.duration = 3."""
    return run_scenario(noise_free(reference_scenario))


def force_ramp(scenario):
    """scenario with tanks.force.s0 = 1.1 and run.duration = 2: the force tank starts on its valve ramp."""
    return replace(scenario, tank_force=replace(scenario.tank_force, s0=1.1), duration=2.0)


@pytest.fixture(scope="session")
def force_ramp_run(reference_scenario):
    """reference.cfg with tanks.force.s0 = 1.1 and run.duration = 2."""
    return run_scenario(force_ramp(reference_scenario))


@pytest.fixture(scope="session")
def flat_ramp_run(flat_scenario):
    """flat_steady.cfg with tanks.force.s0 = 1.1 and run.duration = 2."""
    return run_scenario(force_ramp(flat_scenario))


@pytest.fixture(scope="session")
def negative_scenario():
    return parse_scenario(SCENARIO_DIR / "negative_control.cfg")


@pytest.fixture(scope="session")
def negative_run(negative_scenario):
    return run_scenario(negative_scenario)


def traced_peak(fn) -> int:
    """Bytes that fn's allocations peak at above what is live before the call."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def flat(r) -> tuple:
    """A 3x3 matrix as the tick's row-major 9-tuple."""
    return tuple(np.asarray(r, dtype=float).ravel().tolist())


def mat(r) -> np.ndarray:
    """A row-major 9-tuple as a 3x3 array."""
    return np.reshape(np.asarray(r, dtype=float), (3, 3))


def rotation_z(angle: float) -> tuple:
    c, s = np.cos(angle), np.sin(angle)
    return (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)


def is_rotation(r, tol: float = 1e-9) -> bool:
    """Columns orthonormal and determinant +1, both within tol."""
    r = mat(r)
    return np.abs(r.T @ r - np.eye(3)).max() < tol and abs(np.linalg.det(r) - 1.0) < tol


def random_rotation(rng) -> tuple:
    """Uniform-ish random rotation from a random axis-angle, as a 9-tuple."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi * 0.999)
    from vauf.spatial import rotation_exp

    return rotation_exp(tuple((axis * angle).tolist()))
