import pathlib

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
    return rows_to_columns(reference_run.rows)


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
    return rows_to_columns(flat_run.rows)


@pytest.fixture(scope="session")
def negative_scenario():
    return parse_scenario(SCENARIO_DIR / "negative_control.cfg")


@pytest.fixture(scope="session")
def negative_run(negative_scenario):
    return run_scenario(negative_scenario)


def random_rotation(rng):
    """Uniform-ish random rotation from a random axis-angle."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi * 0.999)
    from vauf.spatial import rotation_exp

    return rotation_exp(axis * angle)
