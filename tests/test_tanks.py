import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from vauf import tanks
from vauf.runtime import Scenario, plant_step
from vauf.spatial import quaternion_to_rotation
from vauf.tanks import (
    AUDIT_TOL,
    AuditReport,
    TankConfig,
    compose_command,
    force_tank_step,
    gate_beta,
    impedance_tank_step,
    lambda_selector,
    passivity_audit,
    valve_sigma,
)
from vauf.telemetry import BLOCK_ROWS, COLUMNS, ParseError, TelemetryRows, rows_to_columns

FORCE_TANK = TankConfig(s0=2.0, s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
IMP_TANK = TankConfig(s0=24.5, s_upper=32.0, s_lower=1.0, ramp_eps=0.2)


def wrench_z(fz):
    return np.array([0.0, 0.0, fz, 0.0, 0.0, 0.0])


class TestLambdaSelector:
    def test_extracting_power(self):
        x_dot = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert lambda_selector(x_dot, wrench_z(-3.0)) == 1

    def test_zero_power_boundary(self):
        x_dot = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert lambda_selector(x_dot, wrench_z(5.0)) == 0

    def test_injecting_power(self):
        x_dot = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert lambda_selector(x_dot, wrench_z(2.0)) == 0


class TestValves:
    def test_sigma_at_lower_limit(self):
        assert valve_sigma(1.0, FORCE_TANK) == 0.0

    def test_sigma_mid_ramp(self):
        assert valve_sigma(1.1, FORCE_TANK) == pytest.approx(0.5)

    def test_sigma_saturated(self):
        assert valve_sigma(5.0, FORCE_TANK) == 1.0

    def test_beta_at_upper_limit(self):
        assert gate_beta(2.0, FORCE_TANK) == 0.0

    def test_beta_mid_ramp(self):
        assert gate_beta(1.9, FORCE_TANK) == pytest.approx(0.5)

    def test_beta_far_below(self):
        assert gate_beta(0.5, FORCE_TANK) == 1.0

    def test_continuity(self):
        eps = 1e-6
        for s in np.linspace(0.8, 2.2, 500):
            assert abs(valve_sigma(s + eps, FORCE_TANK) - valve_sigma(s, FORCE_TANK)) <= eps / 0.2 + 1e-12
            assert abs(gate_beta(s + eps, FORCE_TANK) - gate_beta(s, FORCE_TANK)) <= eps / 0.2 + 1e-12


class TestComposeCommand:
    # the force port arrives shaped: rho_frc * thrust, as the loop builds it
    def _parts(self):
        f_damp = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
        f_var = (0.0, -2.0, 0.0, 0.0, 0.0, 0.0)
        f_force = (0.0, 0.0, -15.0, 0.0, 0.0, 0.0)
        return f_damp, f_var, f_force

    def test_all_gates_open_is_plain_sum(self):
        f_damp, f_var, f_force = self._parts()
        out = compose_command(f_damp, f_var, f_force, 1, 1.0, 1.0)
        assert np.allclose(out, np.add(f_damp, f_var) + f_force)

    def test_depleted_force_tank_blocks_active_force(self):
        f_damp, f_var, f_force = self._parts()
        out = compose_command(f_damp, f_var, f_force, 0, 0.0, 1.0)
        assert np.allclose(out, np.add(f_damp, f_var))

    def test_contact_loss_gives_pure_impedance(self):
        # rho_frc = 0 shapes the force port to zero
        f_damp, f_var, f_force = self._parts()
        out = compose_command(f_damp, f_var, tuple(0.0 * c for c in f_force), 1, 1.0, 1.0)
        assert np.allclose(out, np.add(f_damp, f_var))

    def test_passive_demand_bypasses_the_valve(self):
        # with lam = 1 the force port is applied directly; sigma_f is moot
        f_damp, f_var, f_force = self._parts()
        gated = compose_command(f_damp, f_var, f_force, 1, 0.0, 1.0)
        open_valve = compose_command(f_damp, f_var, f_force, 1, 1.0, 1.0)
        assert np.allclose(gated, open_valve)

    def test_linearity_in_each_gate(self):
        rng = np.random.default_rng(2)
        f_damp, f_var, f_force = (rng.normal(size=6) for _ in range(3))

        def f(scale, lam, sf, si):  # scale stands in for rho_frc, folded into the port
            return compose_command(f_damp, f_var, tuple(scale * f_force), lam, sf, si)

        mid = f(0.5, 0, 0.5, 0.5)
        # linear in sigma_i
        assert np.allclose(np.subtract(f(0.5, 0, 0.5, 1.0), mid), np.subtract(mid, f(0.5, 0, 0.5, 0.0)))
        # linear in the port's scale
        assert np.allclose(np.subtract(f(1.0, 0, 0.5, 0.5), mid), np.subtract(mid, f(0.0, 0, 0.5, 0.5)))
        # linear in sigma_f at lam = 0
        assert np.allclose(np.subtract(f(0.5, 0, 1.0, 0.5), mid), np.subtract(mid, f(0.5, 0, 0.0, 0.5)))


class TestForceTankStep:
    def test_full_tank_passive_demand_stays_full(self):
        # beta = 0 at the upper limit: no refill, and lam = 1 blocks withdrawal
        x_dot = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
        sigma, beta = valve_sigma(FORCE_TANK.s0, FORCE_TANK), gate_beta(FORCE_TANK.s0, FORCE_TANK)
        lam = lambda_selector(x_dot, wrench_z(-10.0))
        assert lam == 1 and beta == 0.0
        new = force_tank_step(FORCE_TANK.s0, FORCE_TANK, x_dot, wrench_z(-10.0), lam, sigma, beta, 1e-3)
        assert new == pytest.approx(2.0, abs=1e-15)

    def test_active_injection_withdraws(self):
        # 1 W injected with sigma = 1: tank pays ~1 mJ over the tick
        s = 1.6
        x_dot = np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
        sigma, beta = valve_sigma(s, FORCE_TANK), gate_beta(s, FORCE_TANK)
        lam = lambda_selector(x_dot, wrench_z(10.0))
        assert lam == 0 and sigma == 1.0
        new = force_tank_step(s, FORCE_TANK, x_dot, wrench_z(10.0), lam, sigma, beta, 1e-3)
        assert new - s == pytest.approx(-1e-3, abs=1e-12)

    def test_zero_twist_unchanged(self):
        s = FORCE_TANK.s0
        sigma, beta = valve_sigma(s, FORCE_TANK), gate_beta(s, FORCE_TANK)
        new = force_tank_step(s, FORCE_TANK, np.zeros(6), wrench_z(-10.0), 0, sigma, beta, 1e-3)
        assert new == s

    def test_power_bookkeeping_exact(self):
        rng = np.random.default_rng(0)
        s = 1.5
        for _ in range(200):
            x_dot = rng.normal(0, 0.05, 6)
            f = np.concatenate([rng.normal(0, 5, 3), rng.normal(0, 1, 3)])
            lam = lambda_selector(x_dot, f)
            sigma, beta = valve_sigma(s, FORCE_TANK), gate_beta(s, FORCE_TANK)
            p_force = float(x_dot @ f)
            expect = -lam * beta * p_force - sigma * (1 - lam) * p_force
            new = force_tank_step(s, FORCE_TANK, x_dot, f, lam, sigma, beta, 1e-3)
            if FORCE_TANK.s_lower < new < FORCE_TANK.s_upper:  # clamp not engaged
                assert (new - s) / 1e-3 == pytest.approx(expect, abs=1e-9)
            s = new

    def test_passive_port_injecting_pays_in_full(self):
        # lam = 1 chosen on the pre-step twist, but the port injects 1 W at the
        # midpoint: a full tank (beta = 0) still pays the 1 mJ the command applied
        x_dot = (0.0, 0.0, -0.1, 0.0, 0.0, 0.0)
        new = force_tank_step(FORCE_TANK.s0, FORCE_TANK, x_dot, wrench_z(-10.0), 1, 1.0, 0.0, 1e-3)
        assert new - FORCE_TANK.s0 == pytest.approx(-1e-3, abs=1e-12)

    def test_beta_throttles_only_the_refill(self):
        # lam = 1 and the port extracts 1 W: beta = 0.5 books half of it
        x_dot = (0.0, 0.0, 0.1, 0.0, 0.0, 0.0)
        new = force_tank_step(1.5, FORCE_TANK, x_dot, wrench_z(-10.0), 1, 1.0, 0.5, 1e-3)
        assert new - 1.5 == pytest.approx(0.5e-3, abs=1e-12)

    def test_clamp_adds_an_overdrawn_payment(self):
        # 100 W paid through sigma = 0.5 over 1 ms books 0.95 J; the clamp returns 1.0 J
        tank = TankConfig(s0=1.05, s_upper=2.0, s_lower=1.0, ramp_eps=0.1)
        x_dot, f_f = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 200.0, 0.0, 0.0, 0.0)
        assert 1.05 - 0.5 * 200.0 * 1e-3 < tank.s_lower
        assert force_tank_step(1.05, tank, x_dot, f_f, 0, 0.5, 1.0, 1e-3) == tank.s_lower

    def test_clamp_discards_a_refill_above_the_band(self):
        # 100 W refilled through beta = 1 over 1 ms books 2.08 J; the clamp returns 2.0 J
        x_dot, f_f = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -100.0, 0.0, 0.0, 0.0)
        assert 1.98 + 100.0 * 1e-3 > FORCE_TANK.s_upper
        assert force_tank_step(1.98, FORCE_TANK, x_dot, f_f, 1, 1.0, 1.0, 1e-3) == FORCE_TANK.s_upper


class TestImpedanceTankStep:
    # the damper port arrives as the wrench the command applied, -d * v at the pre-step twist
    def test_zero_twist_unchanged(self):
        s = IMP_TANK.s0
        sigma, beta = valve_sigma(s, IMP_TANK), gate_beta(s, IMP_TANK)
        new = impedance_tank_step(s, IMP_TANK, np.zeros(6), -np.ones(6), -np.ones(6), sigma, beta, 1e-3)
        assert new == s

    def test_dissipation_refills(self):
        # 2 W of damper power with beta = 1: +2 mJ over a 1 ms tick
        x_dot = np.array([0.1, 0, 0, 0, 0, 0])
        f_damp = -200.0 * x_dot
        assert -f_damp @ x_dot == pytest.approx(2.0)
        s = IMP_TANK.s0
        sigma, beta = valve_sigma(s, IMP_TANK), gate_beta(s, IMP_TANK)
        assert beta == 1.0
        new = impedance_tank_step(s, IMP_TANK, x_dot, f_damp, np.zeros(6), sigma, beta, 1e-3)
        assert new - s == pytest.approx(2e-3, abs=1e-12)

    def test_books_the_wrench_at_the_midpoint_twist(self):
        # the damper wrench from v_k = 0.2 m/s, booked at v_mid = 0.1 m/s: 4 W, not 200 * 0.1^2 = 2 W
        f_damp = (-200.0 * 0.2, 0.0, 0.0, 0.0, 0.0, 0.0)
        new = impedance_tank_step(IMP_TANK.s0, IMP_TANK, (0.1, 0, 0, 0, 0, 0), f_damp, np.zeros(6), 1.0, 1.0, 1e-3)
        assert new - IMP_TANK.s0 == pytest.approx(4e-3, abs=1e-12)

    def test_damper_injecting_pays_in_full(self):
        # the twist reverses within the tick: the damper wrench injects 1 W at
        # the midpoint, which a full tank (beta = 0) pays in full
        f_damp = (-10.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        x_dot = (-0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        new = impedance_tank_step(31.0, IMP_TANK, x_dot, f_damp, np.zeros(6), 1.0, 0.0, 1e-3)
        assert new - 31.0 == pytest.approx(-1e-3, abs=1e-12)

    def test_initial_energy_inside_band(self):
        assert IMP_TANK.s0 == pytest.approx(24.5)
        assert 1.0 <= IMP_TANK.s0 <= 32.0

    def test_refill_capped_at_upper_limit(self):
        s = 32.0
        x_dot = np.array([0.5, 0, 0, 0, 0, 0])
        sigma, beta = valve_sigma(s, IMP_TANK), gate_beta(s, IMP_TANK)
        assert beta == 0.0
        new = impedance_tank_step(s, IMP_TANK, x_dot, -200.0 * x_dot, np.zeros(6), sigma, beta, 1e-3)
        assert new <= 32.0 + 1e-9


TWISTS = st.tuples(*[st.floats(-0.5, 0.5)] * 6)
WRENCHES = st.tuples(*[st.floats(-100.0, 100.0)] * 6)
GATES = st.tuples(*[st.floats(0.0, 1.0)] * 4)


class TestOneTickLedger:
    @settings(deadline=None, max_examples=300)
    @given(
        TWISTS, st.tuples(*[st.floats(0.0, 200.0)] * 6), WRENCHES, WRENCHES, WRENCHES, GATES,
        st.floats(FORCE_TANK.s_lower, FORCE_TANK.s_upper), st.floats(IMP_TANK.s_lower, IMP_TANK.s_upper),
    )
    def test_storage_gains_no_more_than_the_contact_work(self, v, d, f_var, f_force, f_ext, gates, s_f, s_i):
        # one plant step under the gated command, then both tank steps at the
        # midpoint twist, with any gates: kinetic energy plus both tanks gain
        # at most the contact work f_ext . v_mid dt, unless a clamp acted
        sigma_f, beta_f, sigma_i, beta_i = gates
        mass, dt = (5.0, 5.0, 5.0, 0.3, 0.3, 0.3), 1e-3
        f_damp = tuple(-c * x for c, x in zip(d, v))
        lam = lambda_selector(v, f_force)
        f_cmd = compose_command(f_damp, f_var, f_force, lam, sigma_f, sigma_i)
        identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        v_next = plant_step(identity, (0.0, 0.0, 0.0), v, mass, f_cmd, f_ext, dt)[2]
        v_mid = tuple(0.5 * (a + b) for a, b in zip(v, v_next))
        new_f = force_tank_step(s_f, FORCE_TANK, v_mid, f_force, lam, sigma_f, beta_f, dt)
        new_i = impedance_tank_step(s_i, IMP_TANK, v_mid, f_damp, f_var, sigma_i, beta_i, dt)
        assume(FORCE_TANK.s_lower < new_f < FORCE_TANK.s_upper and IMP_TANK.s_lower < new_i < IMP_TANK.s_upper)
        ke, ke_next = (0.5 * sum(m * x * x for m, x in zip(mass, w)) for w in (v, v_next))
        work = sum(f * x for f, x in zip(f_ext, v_mid)) * dt
        excess = (ke_next - ke) + (new_i - s_i) + (new_f - s_f) - work
        assert excess <= 1e-12 * (ke + ke_next + s_i + s_f + abs(work))


class TestBandInvariant:
    def test_scalar_core_million_steps(self):
        rng = np.random.default_rng(1)
        s = 1.5
        powers = rng.uniform(-400.0, 400.0, 1_000_000)
        lo, hi = 2.0, 0.0
        unit_x = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for p in powers:
            # an open valve (lam 0, sigma 1) along a unit twist books the power p itself
            s = force_tank_step(s, FORCE_TANK, unit_x, (-p, 0.0, 0.0, 0.0, 0.0, 0.0), 0, 1.0, 1.0, 1e-3)
            lo = min(lo, s)
            hi = max(hi, s)
        assert lo >= 1.0 - 1e-9 and hi <= 2.0 + 1e-9

    def test_full_ops_fuzz(self):
        rng = np.random.default_rng(2)
        sf, si = FORCE_TANK.s0, IMP_TANK.s0
        for _ in range(20_000):
            x_dot = rng.normal(0, 0.3, 6)
            x_tilde = rng.normal(0, 0.05, 6)
            f = np.concatenate([rng.normal(0, 20, 3), rng.normal(0, 5, 3)])
            d = rng.uniform(0, 120, 6)
            k = np.diag(rng.uniform(0, 1000, 6))
            gates_f = valve_sigma(sf, FORCE_TANK), gate_beta(sf, FORCE_TANK)
            gates_i = valve_sigma(si, IMP_TANK), gate_beta(si, IMP_TANK)
            sf = force_tank_step(sf, FORCE_TANK, x_dot, f, lambda_selector(x_dot, f), *gates_f, 1e-3)
            si = impedance_tank_step(si, IMP_TANK, x_dot, -d * x_dot, -k @ x_tilde, *gates_i, 1e-3)
            assert 1.0 - 1e-9 <= sf <= 2.0 + 1e-9
            assert 1.0 - 1e-9 <= si <= 32.0 + 1e-9

    @settings(deadline=None)
    @given(
        st.floats(0.0, 10.0),
        st.floats(0.01, 50.0),
        st.floats(0.0, 1.0),
        st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 4, st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=30),
    )
    def test_band_holds_for_any_gates_and_powers(self, s_lower, width, start, steps):
        # each step drives both ports along z: force power v*f, damper power
        # |d|*v^2 and spring power q*v, with gates sigma and beta
        s_upper = s_lower + width
        sf = si = s_lower + start * width
        tank = TankConfig(s0=sf, s_upper=s_upper, s_lower=s_lower)
        for v, f, d, q, sigma, beta in steps:
            x_dot = wrench_z(v)
            sf = force_tank_step(sf, tank, x_dot, wrench_z(f), lambda_selector(x_dot, wrench_z(f)), sigma, beta, 1e-3)
            si = impedance_tank_step(si, tank, x_dot, wrench_z(-abs(d) * v), wrench_z(-q), sigma, beta, 1e-3)
            for s in (sf, si):
                assert s_lower * (1 - 1e-12) <= s <= s_upper * (1 + 1e-12)


def synthetic_table(dt, twist, f_ext_ee, s_i, s_f):
    """A telemetry table at the identity orientation; the columns the audit
    does not read are 0."""
    n = len(twist)
    table = np.zeros((n, len(COLUMNS)))
    cols = rows_to_columns(table)  # views into the table
    cols["t"][:] = np.arange(n) * dt
    cols["qw"][:] = 1.0
    for i, name in enumerate(("vx", "vy", "vz", "wx", "wy", "wz")):
        cols[name][:] = twist[:, i]
    for i, name in enumerate(("fx", "fy", "fz", "tx", "ty", "tz")):
        cols[f"fext_ee_{name}"][:] = f_ext_ee[:, i]
    cols["S_t_i"][:] = s_i
    cols["S_t_f"][:] = s_f
    return table


class TestPassivityAudit:
    SC = Scenario()  # mass (5, 5, 5, 0.3, 0.3, 0.3), dt 1 ms, tanks start at 24.5 and 2.0 J

    def test_pure_dissipation_passes(self):
        # free decay of a damped mass: storage only ever decreases
        n, dt, m = 2000, self.SC.dt_control, self.SC.mass
        d = 20.0
        v = np.zeros((n, 6))
        v[0, 0] = 1.0
        for k in range(1, n):
            v[k, 0] = v[k - 1, 0] * (1.0 - d / m[0] * dt)
        table = synthetic_table(dt, v, np.zeros((n, 6)), 24.5, 2.0)
        rep = passivity_audit(table, self.SC)
        assert rep.ok
        assert rep.worst_violation <= 0.0

    def test_energy_injection_flagged(self):
        # kinetic energy grows with zero external wrench: not passive
        n = 500
        v = np.zeros((n, 6))
        v[:, 0] = np.linspace(0.0, 1.0, n)
        table = synthetic_table(self.SC.dt_control, v, np.zeros((n, 6)), 24.5, 2.0)
        rep = passivity_audit(table, self.SC)
        assert not rep.ok
        assert rep.violation_count > 0
        assert rep.worst_violation > 1e-4

    def test_missing_column_raises(self):
        with pytest.raises(ParseError):
            passivity_audit(np.zeros((10, len(COLUMNS) - 1)), self.SC)

    def test_supplied_work_credited(self):
        # growth backed by external work must pass
        n, sc = 400, Scenario(mass=(2.0,) * 6)
        f, dt = 4.0, sc.dt_control
        v = np.zeros((n, 6))
        for k in range(1, n):
            v[k, 0] = v[k - 1, 0] + f / sc.mass[0] * dt
        f_ext = np.zeros((n, 6))
        f_ext[:, 0] = f
        rep = passivity_audit(synthetic_table(dt, v, f_ext, 24.5, 2.0), sc)
        assert rep.ok

    def test_start_energy_from_scenario(self):
        # a log whose tank holds 24.5 J from the first row, audited against a
        # run that started it at 20 J: 4.5 J appear in the first tick
        n = 10
        table = synthetic_table(self.SC.dt_control, np.zeros((n, 6)), np.zeros((n, 6)), 24.5, 2.0)
        sc = Scenario(tank_impedance=TankConfig(s0=20.0, s_upper=32.0, s_lower=1.0))
        rep = passivity_audit(table, sc)
        assert (rep.violation_count, rep.worst_violation, rep.worst_time) == (1, 4.5, 0.0)
        assert passivity_audit(table, self.SC).ok

    def test_one_row_has_no_tick_to_check(self):
        table = synthetic_table(self.SC.dt_control, np.ones((1, 6)), np.zeros((1, 6)), 24.5, 2.0)
        rep = passivity_audit(table, self.SC)
        assert rep.ok
        assert (rep.ticks_checked, rep.violation_count) == (0, 0)
        assert rep.worst_violation == -np.inf and rep.worst_time == 0.0


def whole_table_audit(table, scenario) -> AuditReport:
    """The passivity audit as one pass over the whole table, the blocked audit's oracle."""
    columns = rows_to_columns(table)
    twist = np.stack([columns[c] for c in ("vx", "vy", "vz", "wx", "wy", "wz")], axis=1)
    n = len(twist)
    ke = 0.5 * np.sum(twist * twist * np.asarray(scenario.mass)[None, :], axis=1)

    q = np.stack([columns[c] for c in ("qw", "qx", "qy", "qz")], axis=1)
    f_ee = np.stack(
        [columns[f"fext_ee_{c}"] for c in ("fx", "fy", "fz", "tx", "ty", "tz")], axis=1
    )
    f_base = np.empty_like(f_ee)
    rot = quaternion_to_rotation(q)
    f_base[:, :3] = np.einsum("nij,nj->ni", rot, f_ee[:, :3])
    f_base[:, 3:] = np.einsum("nij,nj->ni", rot, f_ee[:, 3:])

    s_i = np.concatenate([[scenario.tank_impedance.s0], columns["S_t_i"]])
    s_f = np.concatenate([[scenario.tank_force.s0], columns["S_t_f"]])

    v_mid = 0.5 * (twist[:-1] + twist[1:])
    supplied = np.sum(v_mid * f_base[:-1], axis=1) * scenario.dt_control
    d_storage = (ke[1:] - ke[:-1]) + np.diff(s_i)[: n - 1] + np.diff(s_f)[: n - 1]
    excess = np.append(d_storage - supplied, -np.inf)

    worst_idx = int(np.argmax(excess))
    return AuditReport(
        ticks_checked=n - 1,
        violation_count=int((excess > AUDIT_TOL).sum()),
        worst_violation=float(excess[worst_idx]),
        worst_time=float(columns["t"][worst_idx]),
    )


def bits(report: AuditReport) -> tuple:
    """The report's fields, floats as their exact bit patterns."""
    return (report.ticks_checked, report.violation_count, report.worst_violation.hex(), report.worst_time.hex())


def random_table(n: int, seed: int = 0):
    """A table of random unit quaternions, twists and wrenches, tanks drifting
    by millijoules: some ticks violate, some do not."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    table = synthetic_table(1e-3, 0.05 * rng.normal(size=(n, 6)), rng.normal(size=(n, 6)), 0.0, 0.0)
    cols = rows_to_columns(table)
    for i, name in enumerate(("qw", "qx", "qy", "qz")):
        cols[name][:] = q[:, i] / np.linalg.norm(q, axis=1)
    cols["S_t_i"][:] = 24.5 + np.cumsum(1e-3 * rng.normal(size=n))
    cols["S_t_f"][:] = 2.0 - np.cumsum(1e-3 * rng.random(n))
    return table


def stepped_table(steps):
    """Zero motion, and the impedance tank rising 1 J at each row in steps:
    exactly the ticks in steps violate, each by 1 J."""
    n = 2 * BLOCK_ROWS + 1
    s_i = 24.5 + np.cumsum(np.isin(np.arange(n), steps))
    return synthetic_table(1e-3, np.zeros((n, 6)), np.zeros((n, 6)), s_i, 2.0)


class TestBlockedAudit:
    """The audit walks the table BLOCK_ROWS ticks at a time; each block must
    agree bit for bit with one pass over the whole table."""

    SC = Scenario()
    B = BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1])
    def test_random_tables_match_whole_table(self, n):
        for seed in range(3):
            table = random_table(n, seed)
            rep = passivity_audit(table, self.SC)
            assert bits(rep) == bits(whole_table_audit(table, self.SC))
            if n > 2:
                assert 0 < rep.violation_count < n - 1

    @pytest.mark.parametrize(
        "steps, violations", [([B - 1], 1), ([B], 1), ([B - 1, B], 2), ([2 * B - 1, 2 * B], 1)]
    )
    def test_violations_either_side_of_a_boundary(self, steps, violations):
        # tick B - 1 ends the first block, and tick B starts the second from
        # the storage the first block ended on; the last row, 2B, is no tick
        table = stepped_table(steps)
        rep = passivity_audit(table, self.SC)
        assert bits(rep) == bits(whole_table_audit(table, self.SC))
        assert (rep.violation_count, rep.worst_violation) == (violations, 1.0)
        assert rep.worst_time == table[steps[0], 0]

    def test_kinetic_energy_of_the_overlap_row(self):
        # the first row of the second block is seen by the last tick of the first
        n = 2 * self.B
        v = np.zeros((n, 6))
        v[self.B, 0] = 1.0
        table = synthetic_table(1e-3, v, np.zeros((n, 6)), 24.5, 2.0)
        rep = passivity_audit(table, self.SC)
        assert bits(rep) == bits(whole_table_audit(table, self.SC))
        assert (rep.violation_count, rep.worst_violation) == (1, 0.5 * self.SC.mass[0])
        assert rep.worst_time == table[self.B - 1, 0]

    def test_tied_worst_across_blocks_takes_the_first(self):
        table = stepped_table([5, self.B + 5])
        rep = passivity_audit(table, self.SC)
        assert bits(rep) == bits(whole_table_audit(table, self.SC))
        assert (rep.violation_count, rep.worst_violation) == (2, 1.0)
        assert rep.worst_time == table[5, 0]

    @pytest.mark.parametrize("run", ["reference_run", "flat_run", "noise_free_run", "negative_run"])
    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 7])
    def test_shipped_runs_match_whole_table(self, run, block_rows, request, monkeypatch):
        monkeypatch.setattr(tanks, "BLOCK_ROWS", block_rows)
        result = request.getfixturevalue(run)
        rep = passivity_audit(result.table, result.scenario)
        assert bits(rep) == bits(whole_table_audit(result.table, result.scenario))
        assert rep.ok == (run != "negative_run")

    def test_holds_one_block_beside_the_table(self, reference_run):
        # on the 20,000-row reference table one (n, 6) float64 stack takes
        # 0.96 MB and the (n, 3, 3) rotations 1.44 MB: the bound holds no
        # table-length stack beyond the (n,) excess vector
        assert traced_peak(lambda: passivity_audit(reference_run.table, reference_run.scenario)) < 2e6


class TestAuditInputs:
    """The audit reads the table's columns in place, whatever its memory layout."""

    @pytest.mark.parametrize("source", ["reference_run", "random_table"])
    def test_layouts_give_one_report(self, source, request):
        if source == "reference_run":
            run = request.getfixturevalue(source)
            table, sc, rows = run.table, run.scenario, run.rows
        else:
            table, sc = random_table(2 * BLOCK_ROWS + 1), Scenario()
            rows = TelemetryRows(table)
        wide = np.full((len(table), len(COLUMNS) + 3), np.nan)  # a column read past the table poisons the report
        wide[:, : len(COLUMNS)] = table
        fortran, strided = np.asfortranarray(table), wide[:, : len(COLUMNS)]
        assert table.flags.c_contiguous
        assert not (fortran.flags.c_contiguous or strided.flags.c_contiguous)
        reports = [bits(passivity_audit(x, sc)) for x in (table, fortran, rows, strided)]
        assert reports == [reports[0]] * 4


class TestTankStateValidation:
    def test_bad_band(self):
        with pytest.raises(ValueError, match=r"tanks\.force\.s_lower"):
            Scenario(tank_force=TankConfig(s0=1.0, s_upper=1.0, s_lower=2.0))

    def test_energy_definition(self):
        # J; the start energies the pinned telemetry digests were recorded with
        sc = Scenario()
        assert (sc.tank_force.s0, sc.tank_impedance.s0) == (2.0, 24.5)
