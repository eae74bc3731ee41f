"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The reference and flat
scenario runs are shared session fixtures; everything else is computed here.
"""

import time

import numpy as np
import pytest

import vauf
from vauf.camera import CameraModel, MOUNT_ROTATION, render
from vauf.perception import NoSegmentError, PerceptionConfig, perceive, segment_pca
from vauf.runtime import run_scenario
from vauf.spatial import Pose
from vauf.surface import HeightField, analytic_normal
from vauf.tanks import passivity_audit
from vauf.telemetry import rows_to_columns, write_csv


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def random_scenario(seed):
    rng = np.random.default_rng(seed)
    surf = HeightField(
        amplitude=rng.uniform(0.005, 0.025),
        period=rng.uniform(0.13, 0.3),
        phase=rng.uniform(0, 2 * np.pi),
        mu=rng.uniform(0.1, 0.6),
    )
    cam = CameraModel(noise_sigma=rng.choice([0.0, 0.001, 0.002]))
    mon = vauf.MonitorConfig(rho_min=0.1)
    return vauf.Scenario(
        surface=surf,
        camera=cam,
        monitor=mon,
        duration=6.0,
        seed=seed,
        start_x=rng.uniform(-0.03, 0.03),
        start_y=rng.uniform(-0.05, 0.15),
        start_height=rng.uniform(0.0, 0.02),
        start_tilt_deg=rng.uniform(0, 25),
    )


def tank_bounds_ok(columns):
    tol = 1e-9
    return (
        columns["S_t_i"].min() >= 1.0 - tol
        and columns["S_t_i"].max() <= 32.0 + tol
        and columns["S_t_f"].min() >= 1.0 - tol
        and columns["S_t_f"].max() <= 2.0 + tol
    )


def test_criterion_1_tank_bounds(reference_columns):
    t0 = time.perf_counter()
    ok = tank_bounds_ok(reference_columns)
    worst = ""
    for s in range(50):
        res = run_scenario(random_scenario(1000 + s))
        cols = rows_to_columns(res.table)
        if not (res.completed and tank_bounds_ok(cols)):
            ok = False
            worst = f"scenario seed {1000 + s} violated"
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(
        "1 tank-bounds",
        ok,
        worst or f"S_t,i and S_t,f inside their bands over reference + 50 randomized runs, {elapsed:.0f} s",
    )


def test_criterion_2_passivity_audit(reference_run, negative_run):
    t0 = time.perf_counter()
    audit = passivity_audit(reference_run.table, reference_run.scenario)
    neg_audit = passivity_audit(negative_run.table, negative_run.scenario)
    elapsed = time.perf_counter() - t0
    ok = audit.ok and neg_audit.violation_count >= 1 and elapsed < 120.0
    report(
        "2 passivity-audit",
        ok,
        f"reference {audit.violation_count} violations (worst {audit.worst_violation:.2e} J), "
        f"negative control {neg_audit.violation_count} violations, {elapsed:.0f} s",
    )


def test_criterion_3_shaping_behavior(reference_run, reference_columns):
    c = reference_columns
    dt = reference_run.scenario.dt_control
    in_bounds = (
        (c["rho_align"] >= 0.0).all()
        and (c["rho_align"] <= 1.0).all()
        and (c["rho_frc"] >= 0.0).all()
        and (c["rho_frc"] <= 1.0).all()
    )
    # rho_frc back above 0.99 within 2 s of every realignment event
    events = reference_run.realignment_events
    recovery_ok = len(events) >= 1
    for te in events:
        k0 = int(round(te / dt))
        window = c["rho_frc"][k0 : k0 + int(2.0 / dt)]
        recovery_ok = recovery_ok and (window >= 0.99).any()
    # rho_align at 0.99 within 5 s of the first aligned-contact tick
    aligned_contact = (c["fext_ee_fz"] > 5.0) & (c["theta"] < 0.2)
    assert aligned_contact.any()
    k_marker = int(np.argmax(aligned_contact))
    window = c["rho_align"][k_marker : k_marker + int(5.0 / dt)]
    align_ok = (window >= 0.99).any()
    ok = in_bounds and recovery_ok and align_ok
    report(
        "3 shaping-functions",
        ok,
        f"bounds {in_bounds}, recovery within 2 s after {len(events)} event(s) {recovery_ok}, "
        f"rho_align 0.99 within 5 s of aligned contact {align_ok}",
    )


def test_criterion_4_exploration_tracking(reference_run, reference_columns):
    t0 = time.perf_counter()
    sc = reference_run.scenario
    c = reference_columns
    mask = c["rho_frc"] > 0.5
    h = sc.surface.height_unchecked(c["px"], c["py"])
    nominal_pen = sc.policy.force_z / sc.surface.k_n
    target = h + sc.tool_radius - nominal_pen
    mae = np.abs(c["pz"][mask] - target[mask]).mean()
    elapsed = time.perf_counter() - t0
    ok = mae <= 5e-3 and elapsed < 60.0
    report("4 exploration-tracking", ok, f"z MAE {mae * 1000:.2f} mm over {int(mask.sum())} contact ticks")


def test_criterion_5_force_tracking(reference_columns, flat_columns):
    flat_mask = flat_columns["t"] >= 5.0
    flat_err = np.abs(
        flat_columns["fext_ee_fz"][flat_mask]
        - flat_columns["rho_frc"][flat_mask] * flat_columns["fd_ee_z"][flat_mask]
    )
    ref_mask = reference_columns["rho_frc"] > 0.5
    ref_err = np.abs(
        reference_columns["fext_ee_fz"][ref_mask]
        - reference_columns["rho_frc"][ref_mask] * reference_columns["fd_ee_z"][ref_mask]
    )
    flat_mae = flat_err.mean()
    ref_mae = ref_err.mean()
    ok = flat_mae <= 0.5 and ref_mae <= 2.5
    report(
        "5 force-tracking",
        ok,
        f"flat steady MAE {flat_mae:.3f} N (<= 0.5), exploration MAE {ref_mae:.3f} N (<= 2.5)",
    )


SURVEY_CAMERA = CameraModel(fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=48, rows=36)
SURVEY_CONFIG = PerceptionConfig(k=10, angle_thresh=np.deg2rad(3.0), min_segment_size=30)
NOISY_CAMERA = CameraModel(
    fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=64, rows=48, noise_sigma=0.002
)
NOISY_CONFIG = PerceptionConfig(k=80, angle_thresh=np.deg2rad(4.0), min_segment_size=60)


def normal_error_deg(camera, cfg, surf, x, y, rng):
    pose = Pose(MOUNT_ROTATION, np.array([x, y, float(surf.height_unchecked(x, y)) + 0.3]))
    res = perceive(render(camera, pose, surf, rng=rng), cfg)
    n_base = pose.rotation @ res.n_s_camera
    if n_base[2] < 0:
        n_base = -n_base
    return np.rad2deg(np.arccos(np.clip(n_base @ analytic_normal(surf, x, y), -1.0, 1.0)))


def test_criterion_6_perception_accuracy():
    t0 = time.perf_counter()
    surf = HeightField()
    # noise-free 10x10 pose grid, straight-down survey views from 0.3 m; a
    # noise-free camera draws +0.0 per pixel, so the generator's state does
    # not move the grid's errors
    grid_rng = np.random.default_rng(0)
    grid_errs = [
        normal_error_deg(SURVEY_CAMERA, SURVEY_CONFIG, surf, x, y, grid_rng)
        for x in np.linspace(-0.06, 0.06, 10)
        for y in np.linspace(-0.2, 0.2, 10)
    ]
    grid_ok = max(grid_errs) < 2.0
    # 200 seeded noisy trials at 2 mm
    good = 0
    for s in range(200):
        rng = np.random.default_rng(1000 + s)
        x, y = rng.uniform(-0.06, 0.06), rng.uniform(-0.2, 0.2)
        try:
            good += normal_error_deg(NOISY_CAMERA, NOISY_CONFIG, surf, x, y, rng=rng) < 5.0
        except NoSegmentError:
            pass
    noisy_ok = good >= 0.95 * 200
    # curvature ratio: plane and spherical cap vs a brute-force oracle
    g = np.linspace(-0.1, 0.1, 40)
    xx, yy = np.meshgrid(g, g)
    plane = np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, 0.3)])
    l_s_plane = segment_pca(plane).l_s
    rng = np.random.default_rng(7)
    cos_t = rng.uniform(np.cos(0.45), 1.0, 1500)
    sin_t = np.sqrt(1 - cos_t**2)
    phi = rng.uniform(0, 2 * np.pi, 1500)
    cap = np.column_stack([0.1 * sin_t * np.cos(phi), 0.1 * sin_t * np.sin(phi), 0.3 + 0.1 * (1 - cos_t)])
    l_s_cap = segment_pca(cap).l_s
    cov = np.cov(cap.T, bias=True)
    vals = np.linalg.eigvalsh(cov)
    l_s_oracle = abs(vals[np.argmin(np.abs(vals))] / np.trace(cov))
    cap_ok = abs(l_s_cap - l_s_oracle) <= 1e-10 * l_s_oracle
    elapsed = time.perf_counter() - t0
    ok = grid_ok and noisy_ok and l_s_plane < 1e-4 and cap_ok and elapsed < 180.0
    report(
        "6 perception-accuracy",
        ok,
        f"grid max {max(grid_errs):.2f} deg, noisy {good}/200 under 5 deg, planar l_s {l_s_plane:.1e}, "
        f"cap vs oracle rel err {abs(l_s_cap - l_s_oracle) / l_s_oracle:.1e}, {elapsed:.0f} s",
    )


def test_criterion_7_example_oracles():
    # spot re-checks of frozen unit values; full enforcement is the unit suite
    checks = []
    # height of the sinusoid at its crest and at y = 0
    surf = HeightField()
    y_max = (np.pi / 2 - 0.44) * 0.19 / np.pi
    checks.append(abs(vauf.height(surf, 0.0, y_max) - 0.04) < 1e-12)
    checks.append(abs(vauf.height(surf, 0.0, 0.0) - (0.02 * np.sin(0.44) + 0.02)) < 1e-15)
    # alignment metric with the experiment weights
    cfg = vauf.MonitorConfig()
    c_val = vauf.alignment_metric(
        np.array([0, 0, -10.0, 0, 0, 0]),
        np.array([0, 0, 0.005, 0, 0, 0]),
        0.1,
        0.01,
        cfg,
    )
    checks.append(abs(c_val - 0.158) < 1e-12)
    # force shaping cosine midpoint
    checks.append(abs(vauf.rho_frc(15.0, 0.02, 0.04) - 0.5) < 1e-12)
    # valve/gate ramp midpoints and the passivity selector boundary
    tank = vauf.TankConfig(s0=2.0, s_upper=2.0, s_lower=1.0, ramp_eps=0.2)
    checks.append(vauf.valve_sigma(1.1, tank) == pytest.approx(0.5))
    checks.append(vauf.gate_beta(1.9, tank) == pytest.approx(0.5))
    checks.append(vauf.lambda_selector(np.array([1.0, 0, 0, 0, 0, 0]), np.zeros(6)) == 0)
    ok = all(checks)
    report("7 example-oracles", ok, f"{sum(checks)}/{len(checks)} spot checks (full suite enforces the rest)")


def test_criterion_8_determinism_and_performance(reference_run, reference_scenario, tmp_path):
    second = run_scenario(reference_scenario)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(reference_run.table, p1)
    write_csv(second.table, p2)
    identical = p1.read_bytes() == p2.read_bytes()
    wall = max(reference_run.wall_time, second.wall_time)
    ok = identical and wall < 60.0 and len(reference_run.table) >= 20_000
    report(
        "8 determinism-performance",
        ok,
        f"bit-identical telemetry {identical}, {len(reference_run.table)} rows, wall {wall:.1f} s (< 60)",
    )
