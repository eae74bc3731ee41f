import numpy as np
import pytest

from vauf.surface import (
    DomainError,
    HeightField,
    analytic_normal,
    contact_wrench,
    height,
)

PAPER = HeightField()  # sinusoid, amplitude 0.02, period 0.19, phase 0.44, offset 0.02
FLAT = HeightField(amplitude=0.0, offset=0.0)


def at(x, y, z):
    """Tool centre position; a sphere's contact does not depend on its orientation."""
    return (x, y, z)


class TestHeight:
    def test_sine_maximum(self):
        y_max = (np.pi / 2 - 0.44) * 0.19 / np.pi
        assert height(PAPER, 0.0, y_max) == pytest.approx(0.04, abs=1e-12)

    def test_sine_minimum(self):
        y_min = (-np.pi / 2 - 0.44) * 0.19 / np.pi
        assert height(PAPER, 0.0, y_min) == pytest.approx(0.0, abs=1e-12)

    def test_at_origin(self):
        assert height(PAPER, 0.0, 0.0) == pytest.approx(0.02 * np.sin(0.44) + 0.02, abs=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            height(PAPER, 0.5, 0.0)

    def test_rate_bound_holds_and_is_reached(self):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-0.13, 0.13, 1000), rng.uniform(-0.255, 0.255, 1000)
        dx, dy = rng.normal(size=(2, 1000))
        ds = 1e-7
        rate = (PAPER.height_unchecked(x + ds * dx, y + ds * dy) - PAPER.height_unchecked(x, y)) / ds
        bound = PAPER.height_rate_bound(dx, dy)
        assert np.all(np.abs(rate) <= bound * (1.0 + 1e-6))
        y_steep = -0.44 * 0.19 / np.pi  # sin argument 0: steepest rise
        assert PAPER.height_rate_bound(0.3, 1.0) == pytest.approx(
            (PAPER.height_unchecked(0.0, y_steep + 1e-8) - PAPER.height_unchecked(0.0, y_steep - 1e-8)) / 2e-8, rel=1e-6)
        with pytest.raises(DomainError):
            height(PAPER, 0.0, 0.3)


class TestZeroAmplitude:
    """A flat surface is the sinusoid with amplitude 0: height offset, normal +z, everywhere."""

    YS = np.linspace(-0.255, 0.255, 101)

    @pytest.mark.parametrize("offset", [0.0, 0.02, -0.01])
    def test_height_is_exactly_offset(self, offset):
        surf = HeightField(amplitude=0.0, offset=offset)
        for y in self.YS:
            h = surf.height_unchecked(0.01, float(y))
            assert h == offset and np.signbit(h) == np.signbit(offset)
        xs, ys = np.meshgrid(np.linspace(-0.13, 0.13, 7), self.YS)
        grid = surf.height_unchecked(xs, ys)
        assert grid.shape == ys.shape
        assert np.array_equal(grid, np.full(ys.shape, offset))
        assert np.array_equal(np.signbit(grid), np.full(ys.shape, np.signbit(offset)))

    def test_contact_normal_is_up(self):
        # at zero twist the wrench is k_n * penetration along the normal
        surf = HeightField(amplitude=0.0, offset=0.02)
        for y in self.YS:
            rep = contact_wrench(surf, at(0.0, float(y), 0.039), (0.0,) * 6, 0.02)
            assert rep.in_contact
            assert rep.wrench[:2] == (0.0, 0.0)
            assert rep.wrench[2] == pytest.approx(surf.k_n * 1e-3, abs=surf.k_n * 1e-15)


class TestAnalyticNormal:
    def test_flat_is_vertical(self):
        assert np.allclose(analytic_normal(FLAT, 0.01, 0.02), [0.0, 0.0, 1.0])

    def test_stationary_point_is_vertical(self):
        y_max = (np.pi / 2 - 0.44) * 0.19 / np.pi
        assert np.allclose(analytic_normal(PAPER, 0.0, y_max), [0, 0, 1], atol=1e-9)

    def test_matches_symbolic_gradient_at_origin(self):
        dh_dy = 0.02 * (np.pi / 0.19) * np.cos(0.44)
        expect = np.array([0.0, -dh_dy, 1.0])
        expect /= np.linalg.norm(expect)
        assert np.allclose(analytic_normal(PAPER, 0.0, 0.0), expect, atol=1e-12)

    def test_unit_and_upward(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = analytic_normal(PAPER, rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.2))
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert n[2] > 0.0


class TestContactWrench:
    def test_separated_tool(self):
        rep = contact_wrench(FLAT, at(0, 0, 0.025), np.zeros(6), tool_radius=0.02)
        assert not rep.in_contact
        assert np.allclose(rep.wrench, 0.0)

    def test_penalty_normal_force(self):
        # 1 mm penetration, k_n = 1e4, static: 10 N straight up
        surf = HeightField(amplitude=0.0, offset=0.0, k_n=1e4, d_n=50.0, mu=0.5)
        rep = contact_wrench(surf, at(0, 0, 0.019), np.zeros(6), tool_radius=0.02)
        assert rep.in_contact
        assert rep.wrench[:2] == (0.0, 0.0)
        assert rep.wrench[2] == pytest.approx(10.0, abs=1e-9)

    def test_coulomb_friction_magnitude(self):
        surf = HeightField(amplitude=0.0, offset=0.0, k_n=1e4, d_n=50.0, mu=0.5)
        twist = np.array([0.01, 0.0, 0.0, 0.0, 0.0, 0.0])
        rep = contact_wrench(surf, at(0, 0, 0.019), twist, tool_radius=0.02)
        f_t = np.asarray(rep.wrench[:2])
        assert np.linalg.norm(f_t) == pytest.approx(5.0, abs=1e-9)
        assert f_t[0] < 0.0  # opposes slip

    def test_no_friction_below_slip_speed(self):
        surf = HeightField(amplitude=0.0, offset=0.0, mu=0.5)
        twist = np.array([5e-6, 0, 0, 0, 0, 0])
        rep = contact_wrench(surf, at(0, 0, 0.019), twist, tool_radius=0.02)
        assert np.allclose(rep.wrench[:2], 0.0)

    def test_unilateral_and_friction_cone(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            position = at(rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.08))
            twist = np.concatenate([rng.normal(0, 0.1, 3), np.zeros(3)])
            rep = contact_wrench(PAPER, position, twist, tool_radius=0.02)
            # the contact's normal: the same float divisions, bit for bit
            f, n = np.asarray(rep.wrench[:3]), analytic_normal(PAPER, position[0], position[1])
            f_n = f @ n
            assert f_n >= -1e-12  # never attractive
            f_t = f - f_n * n
            assert np.linalg.norm(f_t) <= PAPER.mu * f_n + 1e-9

    def test_no_torque(self):
        rep = contact_wrench(FLAT, at(0, 0, 0.015), np.zeros(6), tool_radius=0.02)
        assert np.allclose(rep.wrench[3:], 0.0)

    def test_penetration_iff_contact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            y, z = rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.1)
            rep = contact_wrench(PAPER, at(0.0, y, z), np.zeros(6), 0.02)
            assert rep.in_contact == (height(PAPER, 0.0, y) + 0.02 - z > 0.0)
            assert rep.in_contact == (rep.wrench[2] > 0.0)

    def test_lipschitz_in_pose(self):
        # static tool on the sinusoid; documented bound L = k_n + d_n/dt
        dt = 1e-3
        bound = PAPER.k_n + PAPER.d_n / dt
        ys = np.linspace(-0.2, 0.2, 200)
        zs = np.linspace(0.03, 0.05, 5)
        for z in zs:
            prev = None
            for y in ys:
                rep = contact_wrench(PAPER, at(0.0, y, z), np.zeros(6), 0.02)
                f = np.asarray(rep.wrench[:3])
                if prev is not None:
                    dpose = abs(ys[1] - ys[0])
                    assert np.linalg.norm(f - prev) <= bound * dpose
                prev = f

    def test_out_of_domain_is_free_space(self):
        rep = contact_wrench(PAPER, at(0.5, 0.0, -1.0), np.zeros(6), 0.02)
        assert not rep.in_contact


class TestValidation:
    def test_bad_stiffness(self):
        with pytest.raises(ValueError):
            HeightField(k_n=0.0)
