"""Closed-loop behavior of the shipped scenario configurations."""

import hashlib

import numpy as np
import pytest

from vauf.telemetry import COLUMNS, compute_metrics, read_csv, rows_to_columns, write_csv


class TestReferenceScenario:
    def test_completes_with_full_tick_count(self, reference_run):
        assert reference_run.completed
        assert len(reference_run.rows) >= 20_000

    def test_tool_rides_the_surface(self, reference_run, reference_columns):
        sc = reference_run.scenario
        c = reference_columns
        mask = c["rho_frc"] > 0.5
        h = sc.surface.height_unchecked(c["px"], c["py"])
        contact_z = c["pz"] - sc.tool_radius  # sphere bottom
        nominal_pen = sc.policy.force_z / sc.surface.k_n
        assert np.abs(contact_z[mask] - h[mask]).max() <= 5e-3 + 2 * nominal_pen

    def test_table_columns_are_views_and_rows_match(self, reference_run):
        table = reference_run.table
        assert table.shape == (len(reference_run.rows), len(COLUMNS))
        columns = rows_to_columns(table)
        assert all(np.shares_memory(col, table) for col in columns.values())
        assert np.array_equal(np.asarray(reference_run.rows), table)
        assert reference_run.rows[-1].t == table[-1, 0]

    def test_metrics_from_csv_match_in_memory(self, reference_run, reference_columns, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(reference_run.rows, path)
        from_csv = compute_metrics(rows_to_columns(read_csv(path)))
        in_memory = compute_metrics(reference_columns)
        assert abs(from_csv.force_z.mae - in_memory.force_z.mae) < 1e-12
        assert abs(from_csv.force_z.rmse - in_memory.force_z.rmse) < 1e-12
        for a, b in zip(from_csv.position, in_memory.position):
            assert abs(a.mae - b.mae) < 1e-12 and abs(a.rmse - b.rmse) < 1e-12


class TestFlatScenario:
    def test_alignment_converges_within_three_seconds(self, flat_columns):
        c = flat_columns
        reached = c["rho_align"] >= 0.99
        assert reached.any()
        assert c["t"][np.argmax(reached)] <= 3.0

    def test_steady_force_error_last_ten_seconds(self, flat_columns):
        c = flat_columns
        mask = c["t"] >= 5.0
        err = np.abs(c["fext_ee_fz"][mask] - c["rho_frc"][mask] * c["fd_ee_z"][mask])
        assert err.mean() < 0.5

    def test_force_tank_holds_at_its_cap(self, flat_columns):
        # no active force demand on a steady flat wipe: the tank never drains
        assert flat_columns["S_t_f"].min() >= 1.99


# SHA-256 prefixes of the shipped scenarios' telemetry.csv. A change that is
# meant to be behaviour-neutral must leave these bytes alone; a change that
# alters results on purpose re-pins them and says why.
TELEMETRY_DIGESTS = {
    "reference_run": "e20d07d3029fe39b",
    "flat_run": "1a4943e0ffe6d03c",
    "negative_run": "9ff42bcbc0a84152",
}


@pytest.mark.parametrize("run", sorted(TELEMETRY_DIGESTS))
def test_telemetry_digest_pinned(run, request, tmp_path):
    path = tmp_path / "telemetry.csv"
    write_csv(request.getfixturevalue(run).rows, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == TELEMETRY_DIGESTS[run]
