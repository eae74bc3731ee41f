"""Closed-loop behavior of the shipped scenario configurations."""

import hashlib
from dataclasses import replace
from itertools import zip_longest
import json
import pathlib

import numpy as np
import pytest

from vauf import runtime, tanks
from vauf.config import parse_scenario
from vauf.runtime import run_scenario
from vauf.tanks import passivity_audit
from vauf.telemetry import COLUMNS, compute_metrics, read_csv, rows_to_columns, write_csv
from conftest import SCENARIO_DIR, force_ramp, noise_free


class TestReferenceScenario:
    def test_completes_with_full_tick_count(self, reference_run):
        assert reference_run.completed
        assert len(reference_run.table) >= 20_000

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
        assert table.shape == (20_000, len(COLUMNS)) and table.dtype == np.float64
        columns = rows_to_columns(table)
        assert list(columns) == list(COLUMNS)
        assert all(np.shares_memory(col, table) for col in columns.values())
        assert [columns[name][-1] for name in COLUMNS] == table[-1].tolist()

    def test_metrics_from_csv_match_in_memory(self, reference_run, reference_columns, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(reference_run.table, path)
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


def ledger_run(scenario):
    """Run a scenario with both tank steps wrapped; per tank, one (S in, booked power, S out) per tick.

    The force tank's entries also carry the lam it booked. Each power is
    recomputed from the step's own arguments, in branch form, as the power
    of the wrench the step was handed: in full, or through sigma where the
    command gated it, and through beta only where it refills the tank.
    `lambda_selector` and `compose_command` are wrapped too: calls["port"]
    holds, per force-tank step, whether the selector, the command and the
    step of that tick received the very same force-port tuple object, and
    calls["damp"], per impedance-tank step, whether the command and the step
    received the very same damper-wrench tuple object.
    """
    calls = {"f": [], "i": [], "port": [], "damp": []}
    ports = []  # the force ports the tick's selector and command received
    damps = []  # the damper wrench the tick's command received
    selector, command = runtime.lambda_selector, runtime.compose_command

    def selector_spy(x_dot, f_f):
        ports[:] = [f_f]
        return selector(x_dot, f_f)

    def command_spy(f_damp, f_var, f_force, *gates):
        ports.append(f_force)
        damps[:] = [f_damp]
        return command(f_damp, f_var, f_force, *gates)

    def dot(a, b):  # left to right, as the float tick sums
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4] + a[5] * b[5]

    def force(s, tank, x_dot, f_f, lam, sigma, beta, dt):
        calls["port"].append(len(ports) == 2 and ports[0] is ports[1] is f_f)
        out = tanks.force_tank_step(s, tank, x_dot, f_f, lam, sigma, beta, dt)
        p_force = dot(x_dot, f_f)
        if lam == 0:
            power = sigma * -p_force  # the active port, as the valve let it through
        elif p_force < 0.0:
            power = beta * -p_force  # a refill
        else:
            power = -p_force  # a passive port injecting at the midpoint pays in full
        calls["f"].append((s, power, out, lam))
        return out

    def impedance(s, tank, x_dot, f_damp, f_var, sigma, beta, dt):
        calls["damp"].append(len(damps) == 1 and damps[0] is f_damp)
        out = tanks.impedance_tank_step(s, tank, x_dot, f_damp, f_var, sigma, beta, dt)
        p_damp = -dot(f_damp, x_dot)
        power = (beta * p_damp if p_damp > 0.0 else p_damp) + sigma * -dot(f_var, x_dot)
        calls["i"].append((s, power, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "lambda_selector", selector_spy)
        mp.setattr(runtime, "compose_command", command_spy)
        mp.setattr(runtime, "force_tank_step", force)
        mp.setattr(runtime, "impedance_tank_step", impedance)
        result = run_scenario(scenario)
    return result, {k: np.array(v) for k, v in calls.items()}


@pytest.fixture(scope="module")
def ledger(request):
    """ledger(name): ledger_run of the named scenario fixture, run once per module."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = ledger_run(request.getfixturevalue(name))
        return runs[name]

    return get


class TestTankLedger:
    @pytest.mark.parametrize("scenario", ["reference_scenario", "flat_scenario", "negative_scenario"])
    def test_force_tank_books_the_command_lam(self, scenario, ledger):
        result, calls = ledger(scenario)
        lam = rows_to_columns(result.table)["lam"]
        assert len(calls["f"]) == len(lam)
        assert np.count_nonzero(calls["f"][:, 3] != lam) == 0

    @pytest.mark.parametrize("scenario", ["reference_scenario", "flat_scenario", "negative_scenario"])
    def test_one_force_port_per_tick(self, scenario, ledger):
        # lam, the command and the force tank read the same tuple: the ledger
        # books the very port the command applied
        result, calls = ledger(scenario)
        assert len(calls["port"]) == len(result.table)
        assert calls["port"].all()

    @pytest.mark.parametrize("scenario", ["reference_scenario", "flat_scenario", "negative_scenario"])
    def test_one_damper_wrench_per_tick(self, scenario, ledger):
        # the impedance tank books the very damper wrench the command applied,
        # so only the loop knows the damper law
        result, calls = ledger(scenario)
        assert len(calls["damp"]) == len(result.table)
        assert calls["damp"].all()

    def test_per_tank_identity_exact_on_reference(self, ledger, reference_scenario, reference_run):
        result, calls = ledger("reference_scenario")
        assert np.array_equal(result.table, reference_run.table)  # the wrappers change nothing
        columns = rows_to_columns(result.table)
        dt = reference_scenario.dt_control
        for key, column, tank in (
            ("f", "S_t_f", reference_scenario.tank_force),
            ("i", "S_t_i", reference_scenario.tank_impedance),
        ):
            s_in, power, s_out = calls[key][:, 0], calls[key][:, 1], calls[key][:, 2]
            logged = columns[column]
            assert np.array_equal(logged, s_out)
            assert np.array_equal(s_in, np.concatenate([[tank.s0], logged[:-1]]))
            assert np.array_equal(logged, np.minimum(np.maximum(s_in + power * dt, tank.s_lower), tank.s_upper))


LEDGER_RUNS = ["reference_run", "flat_run", "noise_free_run", "force_ramp_run", "flat_ramp_run"]


class TestExactLedger:
    """Each tank books the power of the wrenches the command applied, at the
    twist the audit reads, so the audit's excess is rounding: 2e-15 J on
    these runs, against the 1e-4 J per tick that AUDIT_TOL allows."""

    @pytest.mark.parametrize("run", LEDGER_RUNS)
    def test_excess_is_rounding(self, run, request):
        result = request.getfixturevalue(run)
        assert result.completed
        assert passivity_audit(result.table, result.scenario).worst_violation <= 1e-12

    def test_excess_is_rounding_at_half_the_control_period(self, reference_scenario):
        result = run_scenario(replace(reference_scenario, dt_control=0.0005, duration=3.0))
        assert result.completed and len(result.table) == 6000
        assert passivity_audit(result.table, result.scenario).worst_violation <= 1e-12

    @pytest.mark.parametrize(
        "amplitude, period, duration", [(0.04, 0.12, 3.0), (0.06, 0.12, 3.0), (0.165, 0.19, 0.9)]
    )
    def test_steeper_surfaces_pass_the_audit(self, amplitude, period, duration, reference_scenario):
        # a damper booked at the midpoint twist, or a passive force port that
        # injects at the midpoint left unbooked, fails these by hundreds of ticks
        surface = replace(reference_scenario.surface, amplitude=amplitude, period=period)
        result = run_scenario(replace(reference_scenario, surface=surface, duration=duration))
        assert result.completed
        assert passivity_audit(result.table, result.scenario).violation_count == 0


# SHA-256 prefixes of the shipped scenarios' telemetry.csv. A change that is
# meant to be behaviour-neutral must leave these bytes alone; a change that
# alters results on purpose re-pins them and says why. The noise-free run
# guards segmentation, which on clean clouds depends on the last bits of the
# normal covariances; the force-ramp run guards the force valve's ramp
# (0 < sigma_f < 1), which the reference, flat, negative and noise-free runs
# never reach; the flat-ramp run gates a port that rho_frc shapes on that ramp
# (lam = 0, 0 < rho_frc < 1), where the gated force term's two forms
# (rho G) f and G (rho f) can round apart. They hold on one host
# class: x86-64, numpy 2.4.6 with its AVX-512 loops, and glibc 2.36 with its
# FMA libm variants; other code paths move the last bits. The OpenBLAS kernel set does not move them, which
# tests/test_dependencies.py checks.
TELEMETRY_DIGESTS = {
    "reference_run": "b3a7c28aa511f5cc",
    "flat_run": "80c3686fa36784ec",
    "negative_run": "28ee85e167cf47c7",
    "noise_free_run": "6e9c37777d0e4023",
    "force_ramp_run": "d898c987d440544b",
    "flat_ramp_run": "c36ac3c78cb21ca2",
}


# Where a pinned table differs: SHA-256 prefixes of the float64 bytes of each
# DIGEST_BLOCK_ROWS-row block and of each column of the six pinned runs.
DIGEST_BLOCK_ROWS = 1000
TABLE_DIGESTS_PATH = pathlib.Path(__file__).resolve().parent / "data" / "table_digests.json"
TABLES_MATCH = "every block and column digest matches"


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def table_digests(table) -> dict:
    return {
        "blocks": [_sha(table[i : i + DIGEST_BLOCK_ROWS]) for i in range(0, len(table), DIGEST_BLOCK_ROWS)],
        "columns": {name: _sha(table[:, j]) for j, name in enumerate(COLUMNS)},
    }


def where_tables_differ(table, pinned: dict) -> str:
    """The first block whose digest differs from the pinned one, as a tick range, and the columns that differ."""
    got = table_digests(table)
    blocks = [i for i, (a, b) in enumerate(zip_longest(got["blocks"], pinned["blocks"])) if a != b]
    if not blocks:
        return TABLES_MATCH
    columns = [name for name in COLUMNS if got["columns"][name] != pinned["columns"].get(name)]
    start = blocks[0] * DIGEST_BLOCK_ROWS
    return f"first differing block: ticks {start} to {start + DIGEST_BLOCK_ROWS - 1}; columns: {', '.join(columns)}"


def rewrite_table_digests() -> None:
    """Rewrite TABLE_DIGESTS_PATH from fresh runs of the six pinned scenarios, after a re-pin.

    From the repository root:
    PYTHONPATH=src:tests python -c "import test_scenarios; test_scenarios.rewrite_table_digests()"
    """
    reference = parse_scenario(SCENARIO_DIR / "reference.cfg")
    flat = parse_scenario(SCENARIO_DIR / "flat_steady.cfg")
    scenarios = {
        "flat_ramp_run": force_ramp(flat),
        "flat_run": flat,
        "force_ramp_run": force_ramp(reference),
        "negative_run": parse_scenario(SCENARIO_DIR / "negative_control.cfg"),
        "noise_free_run": noise_free(reference),
        "reference_run": reference,
    }
    about = (f"SHA-256 prefixes of the float64 bytes of each {DIGEST_BLOCK_ROWS:,}-row block and each column of the "
             "telemetry tables that TELEMETRY_DIGESTS pins; written by tests/test_scenarios.py rewrite_table_digests.")
    digests = {name: table_digests(run_scenario(sc).table) for name, sc in scenarios.items()}
    TABLE_DIGESTS_PATH.write_text(json.dumps({"about": about, **digests}, indent=1) + "\n")


@pytest.mark.parametrize("run", sorted(TELEMETRY_DIGESTS))
def test_telemetry_digest_pinned(run, request, tmp_path):
    """The whole-file digest is the gate. On a mismatch the message names the
    first 1,000-row block that differs, as a tick range, and the columns that
    differ, from tests/data/table_digests.json; after a re-pin,
    rewrite_table_digests() rewrites that file."""
    table = request.getfixturevalue(run).table
    path = tmp_path / "telemetry.csv"
    write_csv(table, path)
    where = where_tables_differ(table, json.loads(TABLE_DIGESTS_PATH.read_text())[run])
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == TELEMETRY_DIGESTS[run], where
    assert where == TABLES_MATCH, "tests/data/table_digests.json is stale: run rewrite_table_digests()"


def test_force_ramp_run_rides_the_valve_ramp(force_ramp_run):
    # its digest pins the ramped force term: sigma_f strictly inside (0, 1)
    # on ticks where the force tank is not extracting (lam = 0)
    assert force_ramp_run.completed
    c = rows_to_columns(force_ramp_run.table)
    ramp = (c["sigma_f"] > 0.0) & (c["sigma_f"] < 1.0)
    assert np.count_nonzero(ramp) > 1000
    assert np.count_nonzero(ramp & (c["lam"] == 0)) > 1000


def test_flat_ramp_run_gates_a_shaped_port_on_the_ramp(flat_ramp_run):
    # its digest pins the gated force term where both gate factors are
    # fractions: lam = 0 with sigma_f and rho_frc strictly inside (0, 1)
    assert flat_ramp_run.completed
    c = rows_to_columns(flat_ramp_run.table)
    inside = (c["lam"] == 0) & (0.0 < c["sigma_f"]) & (c["sigma_f"] < 1.0) & (0.0 < c["rho_frc"]) & (c["rho_frc"] < 1.0)
    assert np.count_nonzero(inside) > 400


def test_digest_report_names_block_and_column(reference_run):
    pinned = table_digests(reference_run.table)
    assert where_tables_differ(reference_run.table, pinned) == TABLES_MATCH
    table = reference_run.table.copy()
    column = COLUMNS.index("C")
    table[4321, column] = np.nextafter(table[4321, column], np.inf)
    assert where_tables_differ(table, pinned) == "first differing block: ticks 4000 to 4999; columns: C"
    assert where_tables_differ(reference_run.table[:19_500], pinned) == (
        "first differing block: ticks 19000 to 19999; columns: " + ", ".join(COLUMNS)
    )
