import numpy as np
import pytest

from vauf.tanks import (
    AuditError,
    TankState,
    _integrate_energy,
    force_tank_step,
    gate_beta,
    impedance_tank_step,
    lambda_selector,
    passivity_audit,
    valve_sigma,
)

FORCE_TANK = TankState(x_t=2.0, s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
IMP_TANK = TankState(x_t=7.0, s_upper=32.0, s_lower=1.0, ramp_eps=0.2)


def wrench_z(fz):
    return np.array([0.0, 0.0, fz, 0.0, 0.0, 0.0])


def gates(tank):
    """(sigma, beta) of a tank at its current energy, as the loop computes them."""
    s = tank.energy
    return valve_sigma(s, tank.s_lower, tank.ramp_eps), gate_beta(s, tank.s_upper, tank.ramp_eps)


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
        assert valve_sigma(1.0, 1.0, 0.2) == 0.0

    def test_sigma_mid_ramp(self):
        assert valve_sigma(1.1, 1.0, 0.2) == pytest.approx(0.5)

    def test_sigma_saturated(self):
        assert valve_sigma(5.0, 1.0, 0.2) == 1.0

    def test_beta_at_upper_limit(self):
        assert gate_beta(2.0, 2.0, 0.2) == 0.0

    def test_beta_mid_ramp(self):
        assert gate_beta(1.9, 2.0, 0.2) == pytest.approx(0.5)

    def test_beta_far_below(self):
        assert gate_beta(0.5, 2.0, 0.2) == 1.0

    def test_continuity(self):
        eps = 1e-6
        for s in np.linspace(0.8, 2.2, 500):
            assert abs(valve_sigma(s + eps, 1.0, 0.2) - valve_sigma(s, 1.0, 0.2)) <= eps / 0.2 + 1e-12
            assert abs(gate_beta(s + eps, 2.0, 0.2) - gate_beta(s, 2.0, 0.2)) <= eps / 0.2 + 1e-12

    def test_bad_ramp(self):
        with pytest.raises(ValueError):
            valve_sigma(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gate_beta(1.0, 1.0, -0.1)


class TestForceTankStep:
    def test_full_tank_passive_demand_stays_full(self):
        # beta = 0 at the upper limit: no refill, and lam = 1 blocks withdrawal
        x_dot = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
        sigma, beta = gates(FORCE_TANK)
        assert lambda_selector(x_dot, wrench_z(-10.0)) == 1 and beta == 0.0
        new = force_tank_step(FORCE_TANK, x_dot, wrench_z(-10.0), sigma, beta, 1e-3)
        assert new.energy == pytest.approx(2.0, abs=1e-15)

    def test_active_injection_withdraws(self):
        # 1 W injected with sigma = 1: tank pays ~1 mJ over the tick
        tank = TankState(x_t=np.sqrt(2 * 1.6), s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
        x_dot = np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
        sigma, beta = gates(tank)
        assert lambda_selector(x_dot, wrench_z(10.0)) == 0 and sigma == 1.0
        new = force_tank_step(tank, x_dot, wrench_z(10.0), sigma, beta, 1e-3)
        assert new.energy - tank.energy == pytest.approx(-1e-3, abs=1e-12)

    def test_zero_twist_unchanged(self):
        new = force_tank_step(FORCE_TANK, np.zeros(6), wrench_z(-10.0), *gates(FORCE_TANK), 1e-3)
        assert new.energy == FORCE_TANK.energy

    def test_power_bookkeeping_exact(self):
        rng = np.random.default_rng(0)
        tank = TankState(x_t=np.sqrt(2 * 1.5), s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
        for _ in range(200):
            x_dot = rng.normal(0, 0.05, 6)
            f = np.concatenate([rng.normal(0, 5, 3), rng.normal(0, 1, 3)])
            s = tank.energy
            lam = lambda_selector(x_dot, f)
            sigma = valve_sigma(s, tank.s_lower, tank.ramp_eps)
            beta = gate_beta(s, tank.s_upper, tank.ramp_eps)
            p_force = x_dot @ f
            expect = -lam * beta * p_force - sigma * (1 - lam) * p_force
            tank = force_tank_step(tank, x_dot, f, sigma, beta, 1e-3)
            if tank.s_lower < tank.energy < tank.s_upper:  # clamp not engaged
                assert (tank.energy - s) / 1e-3 == pytest.approx(expect, abs=1e-9)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            force_tank_step(FORCE_TANK, np.zeros(6), wrench_z(0.0), 1.0, 1.0, 0.0)


class TestImpedanceTankStep:
    def test_zero_twist_unchanged(self):
        new = impedance_tank_step(IMP_TANK, np.zeros(6), np.ones(6), np.eye(6), np.eye(6), *gates(IMP_TANK), 1e-3)
        assert new.energy == IMP_TANK.energy

    def test_dissipation_refills(self):
        # 2 W of damper power with beta = 1: +2 mJ over a 1 ms tick
        d = np.diag([200.0, 0, 0, 0, 0, 0])
        x_dot = np.array([0.1, 0, 0, 0, 0, 0])
        assert x_dot @ d @ x_dot == pytest.approx(2.0)
        sigma, beta = gates(IMP_TANK)
        assert beta == 1.0
        new = impedance_tank_step(IMP_TANK, x_dot, np.zeros(6), d, np.zeros((6, 6)), sigma, beta, 1e-3)
        assert new.energy - IMP_TANK.energy == pytest.approx(2e-3, abs=1e-12)

    def test_initial_energy_inside_band(self):
        assert IMP_TANK.energy == pytest.approx(24.5)
        assert 1.0 <= IMP_TANK.energy <= 32.0

    def test_refill_capped_at_upper_limit(self):
        tank = TankState(x_t=8.0, s_upper=32.0, s_lower=1.0, ramp_eps=0.2)  # S = 32
        d = np.diag([200.0, 0, 0, 0, 0, 0])
        x_dot = np.array([0.5, 0, 0, 0, 0, 0])
        sigma, beta = gates(tank)
        assert beta == 0.0
        new = impedance_tank_step(tank, x_dot, np.zeros(6), d, np.zeros((6, 6)), sigma, beta, 1e-3)
        assert new.energy <= 32.0 + 1e-9


class TestBandInvariant:
    def test_scalar_core_million_steps(self):
        rng = np.random.default_rng(1)
        tank = TankState(x_t=np.sqrt(2 * 1.5), s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
        powers = rng.uniform(-400.0, 400.0, 1_000_000)
        lo, hi = 2.0, 0.0
        for p in powers:
            tank = _integrate_energy(tank, p, 1e-3)
            e = tank.energy
            lo = min(lo, e)
            hi = max(hi, e)
        assert lo >= 1.0 - 1e-9 and hi <= 2.0 + 1e-9

    def test_full_ops_fuzz(self):
        rng = np.random.default_rng(2)
        tf = TankState(x_t=2.0, s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
        ti = TankState(x_t=7.0, s_upper=32.0, s_lower=1.0, ramp_eps=0.2)
        for _ in range(20_000):
            x_dot = rng.normal(0, 0.3, 6)
            x_tilde = rng.normal(0, 0.05, 6)
            f = np.concatenate([rng.normal(0, 20, 3), rng.normal(0, 5, 3)])
            d = np.diag(rng.uniform(0, 120, 6))
            k = np.diag(rng.uniform(0, 1000, 6))
            tf = force_tank_step(tf, x_dot, f, *gates(tf), 1e-3)
            ti = impedance_tank_step(ti, x_dot, x_tilde, d, k, *gates(ti), 1e-3)
            assert 1.0 - 1e-9 <= tf.energy <= 2.0 + 1e-9
            assert 1.0 - 1e-9 <= ti.energy <= 32.0 + 1e-9


def synthetic_columns(n, dt, m_diag, twist, f_ext_ee, s_i, s_f):
    cols = {
        "t": np.arange(n) * dt,
        "qw": np.ones(n),
        "qx": np.zeros(n),
        "qy": np.zeros(n),
        "qz": np.zeros(n),
        "S_t_i": s_i,
        "S_t_f": s_f,
    }
    for i, name in enumerate(("vx", "vy", "vz", "wx", "wy", "wz")):
        cols[name] = twist[:, i]
    for i, name in enumerate(("fx", "fy", "fz", "tx", "ty", "tz")):
        cols[f"fext_ee_{name}"] = f_ext_ee[:, i]
    return cols


class TestPassivityAudit:
    def test_pure_dissipation_passes(self):
        # free decay of a damped mass: storage only ever decreases
        n, dt, m = 2000, 1e-3, np.array([5.0, 5.0, 5.0, 0.3, 0.3, 0.3])
        d = 20.0
        v = np.zeros((n, 6))
        v[0, 0] = 1.0
        for k in range(1, n):
            v[k, 0] = v[k - 1, 0] * (1.0 - d / m[0] * dt)
        cols = synthetic_columns(n, dt, m, v, np.zeros((n, 6)), np.full(n, 24.5), np.full(n, 2.0))
        rep = passivity_audit(cols, m, dt, 24.5, 2.0)
        assert rep.ok
        assert rep.worst_violation <= 0.0

    def test_energy_injection_flagged(self):
        # kinetic energy grows with zero external wrench: not passive
        n, dt, m = 500, 1e-3, np.array([5.0, 5.0, 5.0, 0.3, 0.3, 0.3])
        v = np.zeros((n, 6))
        v[:, 0] = np.linspace(0.0, 1.0, n)
        cols = synthetic_columns(n, dt, m, v, np.zeros((n, 6)), np.full(n, 24.5), np.full(n, 2.0))
        rep = passivity_audit(cols, m, dt, 24.5, 2.0)
        assert not rep.ok
        assert rep.violation_count > 0
        assert rep.worst_violation > 1e-4

    def test_missing_column_raises(self):
        with pytest.raises(AuditError):
            passivity_audit({"t": np.zeros(10)}, np.ones(6), 1e-3, 24.5, 2.0)

    def test_supplied_work_credited(self):
        # growth backed by external work must pass
        n, dt, m = 400, 1e-3, np.ones(6) * 2.0
        f = 4.0
        v = np.zeros((n, 6))
        for k in range(1, n):
            v[k, 0] = v[k - 1, 0] + f / m[0] * dt
        f_ext = np.zeros((n, 6))
        f_ext[:, 0] = f
        cols = synthetic_columns(n, dt, m, v, f_ext, np.full(n, 24.5), np.full(n, 2.0))
        rep = passivity_audit(cols, m, dt, 24.5, 2.0)
        assert rep.ok


class TestTankStateValidation:
    def test_bad_band(self):
        with pytest.raises(ValueError):
            TankState(x_t=1.0, s_upper=1.0, s_lower=2.0)

    def test_energy_definition(self):
        t = TankState(x_t=7.0, s_upper=32.0, s_lower=1.0)
        assert t.energy == 0.5 * 7.0**2
