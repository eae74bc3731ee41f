"""The tick's clamps written as comparisons against the min(max(...)) forms they replace.

Each test runs a program function and, beside it, the function as it was
written with min and max, and compares their results bit for bit with
struct.pack("<d", ...), or the exception both raise. The inputs include
NaN, -0.0, the infinities, subnormals and the largest finite float. The
comparison form equals min(max(x, lo), hi) wherever lo <= hi, which the
configuration's validation guarantees, so a band is drawn with lo <= hi.

A NaN result is packed as the one NaN, math.nan: where two NaNs of other
bits meet in one operation, CPython 3.11 returns the bits of either,
depending on whether the interpreter has specialized the instruction yet,
so the same `x * y` gives one NaN cold and the other warm. No clamp makes a
NaN; each passes one through, which the canonical NaN still shows.
"""

import math
import struct

from hypothesis import example, given
from hypothesis import strategies as st

from vauf import surface as vsurface
from vauf.controller import ControllerConfig, ControllerState, force_wrench
from vauf.monitor import MonitorConfig, rho_align_step
from vauf.surface import HeightField, contact_wrench
from vauf.tanks import TankConfig, force_tank_step, gate_beta, impedance_tank_step, valve_sigma

MAX = 1.7976931348623157e308
SPECIAL = (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX, 1.0, -1.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
BOUNDS = st.one_of(st.sampled_from([b for b in SPECIAL if not math.isnan(b)]), st.floats(allow_nan=False))
BANDS = st.tuples(BOUNDS, BOUNDS).map(sorted)
SIX = st.tuples(*[FLOATS] * 6)


def outcome(fn, *args):
    """The bits of fn's float or floats, or the type of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc)
    values = value if isinstance(value, tuple) else (value,)
    return b"".join(struct.pack("<d", math.nan if math.isnan(v) else v) for v in values)


def tank(band, ramp_eps):
    lo, hi = band
    return TankConfig(s0=lo, s_upper=hi, s_lower=lo, ramp_eps=ramp_eps)


def dot6(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4] + a[5] * b[5]


def integrate_energy(s, tank, power, dt):
    return min(max(s + power * dt, tank.s_lower), tank.s_upper)


@given(FLOATS, BANDS, FLOATS)
@example(1.1, (1.0, 2.0), 0.0)
@example(-0.0, (-0.0, 0.0), 1.0)
def test_valve_sigma(s_t, band, ramp_eps):
    cfg = tank(band, ramp_eps)
    before = outcome(lambda: min(max((s_t - cfg.s_lower) / cfg.ramp_eps, 0.0), 1.0))
    assert outcome(valve_sigma, s_t, cfg) == before


@given(FLOATS, BANDS, FLOATS)
@example(1.9, (1.0, 2.0), 0.2)
@example(0.0, (-0.0, 0.0), 1.0)
def test_gate_beta(s_t, band, ramp_eps):
    cfg = tank(band, ramp_eps)
    before = outcome(lambda: min(max((cfg.s_upper - s_t) / cfg.ramp_eps, 0.0), 1.0))
    assert outcome(gate_beta, s_t, cfg) == before


@given(FLOATS, BANDS, SIX, SIX, st.sampled_from([0, 1]), FLOATS, FLOATS, FLOATS)
@example(1.5, (1.0, 2.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (-1e4,) + (0.0,) * 5, 0, 1.0, 1.0, 1e-3)
@example(-0.0, (-0.0, 0.0), (0.0,) * 6, (-0.0,) * 6, 1, 0.0, 0.0, -0.0)
def test_force_tank_step(s, band, x_dot, f_f, lam, sigma, beta, dt):
    cfg = tank(band, 0.2)

    def before():
        p_force = dot6(x_dot, f_f)
        return integrate_energy(s, cfg, -p_force * ((beta if p_force < 0.0 else 1.0) * lam + sigma * (1 - lam)), dt)

    assert outcome(force_tank_step, s, cfg, x_dot, f_f, lam, sigma, beta, dt) == outcome(before)


@given(FLOATS, BANDS, SIX, SIX, SIX, FLOATS, FLOATS, FLOATS)
@example(31.9, (1.0, 32.0), (1.0,) * 6, (-50.0,) * 6, (0.0,) * 6, 1.0, 1.0, 1e-3)
@example(0.0, (-0.0, 0.0), (-0.0,) * 6, (0.0,) * 6, (-0.0,) * 6, 1.0, 0.0, 1.0)
def test_impedance_tank_step(s, band, x_dot, f_damp, f_var, sigma, beta, dt):
    cfg = tank(band, 0.2)

    def before():
        p_damp = -dot6(f_damp, x_dot)
        return integrate_energy(s, cfg, (beta if p_damp > 0.0 else 1.0) * p_damp - sigma * dot6(f_var, x_dot), dt)

    assert outcome(impedance_tank_step, s, cfg, x_dot, f_damp, f_var, sigma, beta, dt) == outcome(before)


@given(FLOATS, FLOATS, FLOATS, st.one_of(st.sampled_from([5e-324, 0.1, MAX, math.inf]), st.floats(min_value=5e-324)))
@example(0.999, 1.0, 1e-3, 0.1)
@example(-0.0, -0.0, 0.0, 5e-324)
def test_rho_align_step(rho_align, h, dt, rho_min):
    cfg = MonitorConfig(rho_min=rho_min)
    before = outcome(lambda: min(max(rho_align + (h * rho_align + cfg.rho_min) * dt, 0.0), 1.0))
    assert outcome(rho_align_step, rho_align, h, dt, cfg) == before


@given(FLOATS, FLOATS, FLOATS, FLOATS, st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 30.0, MAX, math.inf]), st.floats(min_value=0.0)))
@example(15.0, -20.0, 29.99, 1e-3, 30.0)
@example(15.0, 15.0, -0.0, 1e-3, 0.0)  # integral_limit 0: the band [-0.0, 0.0]
@example(15.0, 15.0, 0.0, 1e-3, -0.0)
def test_pi_clamp(f_d_z, f_ext_z, integral, dt, integral_limit):
    cfg = ControllerConfig(integral_limit=integral_limit)
    state = ControllerState(pi_integral=integral)
    before = outcome(lambda: min(max(integral - (f_ext_z - f_d_z) * dt, -cfg.integral_limit), cfg.integral_limit))
    force_wrench(f_d_z, f_ext_z, state, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), dt, cfg)
    assert outcome(lambda: state.pi_integral) == before


def contact_wrench_before(surface, tool_position, tool_twist, tool_radius):
    """contact_wrench through HeightField.in_domain, _height_slope and max(0.0, -vn)."""
    x, y, z = tool_position
    if not surface.in_domain(x, y):
        return vsurface._NO_CONTACT
    h, gy = vsurface._height_slope(surface, y)
    p_vert = h + tool_radius - z
    if p_vert <= 0.0:
        return vsurface._NO_CONTACT
    norm = math.sqrt(gy * gy + 1.0)
    n1, n2 = -gy / norm, 1.0 / norm
    pen = p_vert * n2
    v0, v1, v2 = tool_twist[0], tool_twist[1], tool_twist[2]
    vn = n1 * v1 + n2 * v2
    f_n = surface.k_n * pen + surface.d_n * max(0.0, -vn)
    t0, t1, t2 = v0, v1 - vn * n1, v2 - vn * n2
    slip = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    if slip >= vsurface.SLIP_SPEED_EPS and surface.mu > 0.0:
        c = -surface.mu * f_n
        f = (c * (t0 / slip), f_n * n1 + c * (t1 / slip), f_n * n2 + c * (t2 / slip))
    else:
        f = (0.0, f_n * n1, f_n * n2)
    return vsurface.ContactReport(True, f + (0.0, 0.0, 0.0))


PATCH = HeightField()


@given(
    st.one_of(st.sampled_from(SPECIAL), st.floats(-0.13, 0.13)),
    st.one_of(st.sampled_from(SPECIAL), st.floats(-0.255, 0.255)),
    FLOATS,
    st.tuples(FLOATS, FLOATS, FLOATS),
    st.one_of(st.sampled_from([0.0, -0.0, 50.0, MAX, math.inf]), st.floats(min_value=0.0)),
)
@example(0.0, 0.1, 1e-3, (0.0, 0.0, -0.05), 50.0)  # sinking in: the damper pushes back
@example(0.0, 0.1, 1e-3, (0.0, 0.0, 0.05), 50.0)  # lifting off: no damper force
@example(0.0, 0.1, 1e-3, (0.0, -0.0, -0.0), math.inf)
def test_contact_approach_speed(x, y, depth, velocity, d_n):
    surface = HeightField(d_n=d_n)
    try:  # depth below touching the surface, where the surface has a height
        z = PATCH.amplitude * math.sin(math.pi * y / PATCH.period + PATCH.phase) + PATCH.offset + 0.02 - depth
    except ValueError:
        z = depth
    args = (surface, (x, y, z), velocity + (0.0, 0.0, 0.0), 0.02)

    def wrench(fn):
        report = fn(*args)
        return report.wrench + (float(report.in_contact),)

    assert outcome(wrench, contact_wrench) == outcome(wrench, contact_wrench_before)
