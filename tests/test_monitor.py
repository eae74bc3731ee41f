import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vauf.monitor import (
    MonitorConfig,
    alignment_metric,
    normalized_coefficient,
    realignment_trigger,
    rho_align_step,
    rho_frc,
)

TABLE = MonitorConfig()  # alpha 1, xi 0.08, gamma 10, C_m 0.9, rho_min 0.001, delta_c 0.04


def ee_wrench(fz, fx=0.0, fy=0.0):
    return np.array([fx, fy, fz, 0.0, 0.0, 0.0])


class TestAlignmentMetric:
    def test_all_zero(self):
        c = alignment_metric(np.zeros(6), np.zeros(6), 0.0, 0.0, TABLE)
        assert c == 0.0

    def test_weighted_sum(self):
        x_tilde = np.array([0.0, 0.0, 0.005, 0.0, 0.0, 0.0])
        c = alignment_metric(ee_wrench(-10.0), x_tilde, 0.1, 0.01, TABLE)
        assert c == pytest.approx(0.05 + 0.008 + 0.1, abs=1e-12)

    def test_sign_folding(self):
        x_tilde = np.array([0.0, 0.0, 0.005, 0.0, 0.0, 0.0])
        c = alignment_metric(ee_wrench(-10.0), x_tilde, 0.0, 0.0, TABLE)
        assert c == pytest.approx(0.05, abs=1e-12)

    def test_monotone_in_each_term(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=6)
            f = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            theta, l_s = rng.uniform(0, 1), rng.uniform(0, 0.2)
            base = alignment_metric(f, x, theta, l_s, TABLE)
            assert alignment_metric(f, 1.5 * x, theta, l_s, TABLE) >= base - 1e-15
            assert alignment_metric(f, x, theta + 0.1, l_s, TABLE) >= base
            assert alignment_metric(f, x, theta, l_s + 0.1, TABLE) >= base


class TestNormalizedCoefficient:
    def test_zero(self):
        assert normalized_coefficient(0.0, 0.9) == 1.0

    def test_midpoint(self):
        assert normalized_coefficient(0.45, 0.9) == pytest.approx(0.5)

    def test_beyond_margin_goes_negative(self):
        assert normalized_coefficient(1.8, 0.9) == pytest.approx(-1.0)


class TestRhoAlignStep:
    def test_saturated_high_stays(self):
        # rate would be 0.801 > 0, clipped to 0 at the upper saturation
        assert rho_align_step(1.0, 0.8, 1e-3, TABLE) == 1.0

    def test_floor_rate_lifts_from_zero(self):
        out = rho_align_step(0.0, -5.0, 1e-3, TABLE)
        assert out == pytest.approx(0.001 * 1e-3, abs=1e-15)

    def test_interior_euler_step(self):
        out = rho_align_step(0.5, 0.8, 1e-3, TABLE)
        assert out == pytest.approx(0.500401, abs=1e-12)

    def test_bounds_under_fuzz(self):
        rng = np.random.default_rng(1)
        rho = 0.0
        for _ in range(100_000):
            h = rng.uniform(-5.0, 2.0)
            dt = rng.uniform(1e-5, 1e-3)
            rho = rho_align_step(rho, h, dt, TABLE)
            assert 0.0 <= rho <= 1.0

    def test_monotone_convergence_with_unit_h(self):
        rho = 0.0
        prev = rho
        for _ in range(20_000):
            rho = rho_align_step(rho, 1.0, 1e-3, TABLE)
            assert rho >= prev
            prev = rho
        assert rho > 0.99999 or rho == 1.0


def clipped_rate_rho_align_step(rho_align, h, dt, rho_min):
    """The shaping step with the rate clipped at a saturated state, then clamped."""
    rho = h * rho_align + rho_min
    if rho_align >= 1.0:
        rate = min(rho, 0.0)
    elif rho_align <= 0.0:
        rate = max(rho, 0.0)
    else:
        rate = rho
    return float(min(max(rho_align + rate * dt, 0.0), 1.0))


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 1.0 - 2.0**-53, 1.5, -0.5, 5e-324)


class TestRhoAlignStepClampIsTheSaturation:
    """The clamp alone saturates rho_align: for finite dt > 0 and any rho_min > 0
    it gives the bits of the rate clipped at the saturations, negative zeros
    and NaN included."""

    @given(
        st.floats(),
        st.floats(),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True),
    )
    def test_matches_the_clipped_rate(self, rho_align, h, dt, rho_min):
        out = rho_align_step(rho_align, h, dt, MonitorConfig(rho_min=rho_min))
        assert same_bits(out, clipped_rate_rho_align_step(rho_align, h, dt, rho_min))

    def test_matches_the_clipped_rate_on_the_edges(self):
        for dt, rho_min in itertools.product((5e-324, 1e-3, 1.0, 1e300), (5e-324, 1e-3, 1.0, math.inf)):
            cfg = MonitorConfig(rho_min=rho_min)
            for rho_align, h in itertools.product(EDGE_FLOATS, repeat=2):
                out = rho_align_step(rho_align, h, dt, cfg)
                assert same_bits(out, clipped_rate_rho_align_step(rho_align, h, dt, rho_min)), (rho_align, h, dt, rho_min)


class TestRhoFrc:
    def test_contact_held(self):
        assert rho_frc(15.0, -0.01, 0.04) == 1.0

    def test_cosine_midpoint(self):
        assert rho_frc(15.0, 0.02, 0.04) == pytest.approx(0.5, abs=1e-12)

    def test_beyond_margin(self):
        assert rho_frc(15.0, 0.05, 0.04) == 0.0

    def test_continuity_on_fade_band(self):
        eps = 1e-5
        slope_bound = np.pi / (2 * 0.04)
        for z in np.linspace(1e-4, 0.04 - eps, 200):
            a = rho_frc(15.0, z, 0.04)
            b = rho_frc(15.0, z + eps, 0.04)
            assert abs(b - a) <= slope_bound * eps + 1e-12

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            val = rho_frc(15.0, rng.normal(0, 0.03), 0.04)
            assert 0.0 <= val <= 1.0


def rho_frc_6d(f_d_ee, x_tilde_ee, delta_c):
    """The 6-vector force gate the tool-z rho_frc replaced."""
    alignment_error = float(f_d_ee @ x_tilde_ee)
    if alignment_error <= 0.0:
        return 1.0
    x_z = float(x_tilde_ee[2])
    if 0.0 < x_z <= delta_c:
        return 0.5 * (1.0 + np.cos(np.pi * x_z / delta_c))
    return 0.0


class TestRhoFrcOracle:
    """The tool-z rho_frc against the 6-vector gate, with the desired force along tool z."""

    @staticmethod
    def assert_matches(f_d_z, x_tilde_ee, delta_c):
        got = rho_frc(f_d_z, x_tilde_ee[2], delta_c)
        ref = rho_frc_6d(ee_wrench(f_d_z), x_tilde_ee, delta_c)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    def test_random_inputs_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(5000):
            delta_c = rng.uniform(1e-3, 0.1)
            x_tilde = rng.normal(0.0, rng.choice([1e-3, 0.03, 1.0]), 6)
            self.assert_matches(rng.normal(0.0, 20.0), x_tilde, delta_c)

    @pytest.mark.parametrize("f_d_z", [15.0, -15.0, 0.0, -0.0])
    @pytest.mark.parametrize("x_z", [0.0, -0.0, 0.04, 0.02, -0.02, 0.05, 5e-324])
    def test_edges_bit_exact(self, f_d_z, x_z):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x_tilde = rng.normal(0.0, 0.05, 6)
            x_tilde[2] = x_z
            self.assert_matches(f_d_z, x_tilde, 0.04)


class TestRealignmentTrigger:
    def test_fully_compliant(self):
        assert realignment_trigger(0.0, TABLE.rho_trigger)

    def test_engaged(self):
        assert not realignment_trigger(0.5, TABLE.rho_trigger)

    def test_documented_threshold(self):
        assert TABLE.rho_trigger == 1e-3
        assert realignment_trigger(1e-4, TABLE.rho_trigger)
        assert not realignment_trigger(2e-3, TABLE.rho_trigger)


class TestConvergenceProperty:
    def test_zero_error_drives_rho_to_one(self):
        # C = 0 when there is no tactile error and perception is clean
        c = alignment_metric(np.zeros(6), np.zeros(6), 0.0, 0.0, TABLE)
        h = normalized_coefficient(c, TABLE.c_margin)
        assert h == 1.0
        rho = 0.37
        prev = rho
        for _ in range(30_000):
            rho = rho_align_step(rho, h, 1e-3, TABLE)
            assert rho >= prev
            prev = rho
        assert rho == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(c_margin=0.0)
