"""Virtual energy tanks: valves, refills, and the passivity audit.

Drives the force tank through an active-injection phase (it pays), a passive
phase (it refills), and shows the valve closing at the lower limit. Then runs
the audit on a synthetic log that injects energy from nowhere to show it gets
flagged.
"""

import numpy as np

from vauf import TankState, force_tank_step, gate_beta, lambda_selector, passivity_audit, valve_sigma

tank = TankState(x_t=2.0, s_upper=2.0, s_lower=1.0, ramp_eps=0.1)
dt = 1e-3

print("active force injection (tool moving with the push): the tank pays")
x_dot = np.array([0.0, 0.0, -0.05, 0.0, 0.0, 0.0])  # descending
f_push = np.array([0.0, 0.0, -15.0, 0.0, 0.0, 0.0])  # base frame, pressing down


def gates(tank):
    s = tank.energy
    return valve_sigma(s, tank.s_lower, tank.ramp_eps), gate_beta(s, tank.s_upper, tank.ramp_eps)


for k in range(1300):
    sigma, beta = gates(tank)
    tank = force_tank_step(tank, x_dot, f_push, sigma, beta, dt)
    if k % 300 == 0:
        print(f"  t={k * dt:.2f} s  S={tank.energy:.3f} J  sigma={sigma:.2f}  lam={lambda_selector(x_dot, f_push)}")

print(f"  ... depleted to S={tank.energy:.3f} J, valve sigma={valve_sigma(tank.energy, 1.0, 0.1):.2f}")

print("\npassive phase (tool moving against the push): the tank refills")
for k in range(1300):
    sigma, beta = gates(tank)
    tank = force_tank_step(tank, -x_dot, f_push, sigma, beta, dt)
    if k % 300 == 0:
        print(f"  t={k * dt:.2f} s  S={tank.energy:.3f} J  beta={beta:.2f}  lam={lambda_selector(-x_dot, f_push)}")
print(f"  ... refilled to S={tank.energy:.3f} J (capped at {tank.s_upper} J, beta -> "
      f"{gate_beta(tank.energy, tank.s_upper, tank.ramp_eps):.2f})")

print("\npassivity audit on a synthetic log where kinetic energy appears from nowhere:")
n, m = 400, np.array([5.0, 5, 5, 0.3, 0.3, 0.3])
cols = {c: np.zeros(n) for c in ("qx", "qy", "qz", "vy", "vz", "wx", "wy", "wz")}
cols["t"] = np.arange(n) * dt
cols["qw"] = np.ones(n)
cols["vx"] = np.linspace(0.0, 1.0, n)  # accelerating with zero external force
for c in ("fx", "fy", "fz", "tx", "ty", "tz"):
    cols[f"fext_ee_{c}"] = np.zeros(n)
cols["S_t_i"] = np.full(n, 24.5)
cols["S_t_f"] = np.full(n, 2.0)
rep = passivity_audit(cols, m, dt, 24.5, 2.0)
print(f"  violations: {rep.violation_count}, worst excess {rep.worst_violation:.2e} J at t={rep.worst_time:.3f} s")
