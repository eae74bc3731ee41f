"""Alignment monitoring and the stiffness/force shaping functions.

Feeds the monitor a scripted sequence: clean contact, a growing disturbance
that pushes the alignment metric past its margin, and recovery. Prints how
rho_align and rho_frc respond.
"""

import numpy as np

from vauf import (
    MonitorConfig,
    alignment_metric,
    normalized_coefficient,
    realignment_trigger,
    rho_align_step,
    rho_frc,
)

cfg = MonitorConfig(rho_min=0.1)
dt = 1e-3
rho = 0.0

print("phase 1: clean aligned contact (no error terms) -> rho_align climbs")
for k in range(4000):
    c = alignment_metric(np.zeros(6), np.zeros(6), 0.0, 0.0, cfg)
    rho = rho_align_step(rho, normalized_coefficient(c, cfg.c_margin), dt, cfg)
    if k % 800 == 0:
        print(f"  t={k * dt:.1f} s  C={c:.3f}  rho_align={rho:.3f}")

print("\nphase 2: the tool jams: tactile error grows, C crosses the margin")
f_ext = np.array([0.0, 0.0, 20.0, 0.0, 0.0, 0.0])  # tool-frame reaction
for k in range(3000):
    x_tilde = np.array([0.0, 0.0, 0.004 + 0.00004 * k, 0.0, 0.0, 0.0])
    c = alignment_metric(f_ext, x_tilde, 0.2, 0.02, cfg)
    rho = rho_align_step(rho, normalized_coefficient(c, cfg.c_margin), dt, cfg)
    if k % 600 == 0:
        trig = realignment_trigger(rho, 0.05)
        print(f"  t={k * dt:.1f} s  C={c:.3f}  rho_align={rho:.3f}  realign={trig}")

print("\nforce gate vs separation along the tool axis (margin delta_c = 0.04 m):")
f_d = np.array([0.0, 0.0, 15.0, 0.0, 0.0, 0.0])  # tool-frame setpoint
for z in (-0.01, 0.0, 0.01, 0.02, 0.03, 0.05):
    gate = rho_frc(f_d, np.array([0.0, 0.0, z, 0.0, 0.0, 0.0]), cfg.delta_c)
    print(f"  x_tilde_z={z:+.3f} m -> rho_frc={gate:.3f}")
