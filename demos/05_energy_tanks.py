"""Virtual energy tanks: valves, refills, and the passivity audit.

Drives the force tank through an active-injection phase (it pays), a passive
phase (it refills), and shows the valve closing at the lower limit. Then runs
the audit on a synthetic log that injects energy from nowhere to show it gets
flagged.
"""

import numpy as np

from vauf import (
    COLUMNS,
    Scenario,
    TankConfig,
    force_tank_step,
    gate_beta,
    lambda_selector,
    passivity_audit,
    rows_to_columns,
    valve_sigma,
)

tank = TankConfig(s0=2.0, s_upper=2.0, s_lower=1.0, ramp_eps=0.1)
s = tank.s0  # J, the tank energy the loop carries
dt = 1e-3

print("active force injection (tool moving with the push): the tank pays")
x_dot = np.array([0.0, 0.0, -0.05, 0.0, 0.0, 0.0])  # descending
f_push = np.array([0.0, 0.0, -15.0, 0.0, 0.0, 0.0])  # base frame, pressing down
lam = lambda_selector(x_dot, f_push)
for k in range(1300):
    sigma, beta = valve_sigma(s, tank), gate_beta(s, tank)
    s = force_tank_step(s, tank, x_dot, f_push, lam, sigma, beta, dt)
    if k % 300 == 0:
        print(f"  t={k * dt:.2f} s  S={s:.3f} J  sigma={sigma:.2f}  lam={lam}")

print(f"  ... depleted to S={s:.3f} J, valve sigma={valve_sigma(s, tank):.2f}")

print("\npassive phase (tool moving against the push): the tank refills")
lam = lambda_selector(-x_dot, f_push)
for k in range(1300):
    sigma, beta = valve_sigma(s, tank), gate_beta(s, tank)
    s = force_tank_step(s, tank, -x_dot, f_push, lam, sigma, beta, dt)
    if k % 300 == 0:
        print(f"  t={k * dt:.2f} s  S={s:.3f} J  beta={beta:.2f}  lam={lam}")
print(f"  ... refilled to S={s:.3f} J (capped at {tank.s_upper} J, beta -> {gate_beta(s, tank):.2f})")

print("\npassivity audit on a synthetic log where kinetic energy appears from nowhere:")
n = 400
log = np.zeros((n, len(COLUMNS)))  # a telemetry table; unset columns stay 0
cols = rows_to_columns(log)  # named views into it
cols["t"][:] = np.arange(n) * dt
cols["qw"][:] = 1.0
cols["vx"][:] = np.linspace(0.0, 1.0, n)  # accelerating with zero external force
cols["S_t_i"][:] = 24.5
cols["S_t_f"][:] = 2.0
rep = passivity_audit(log, Scenario())  # the default run: mass, 1 ms tick and tank start energies
print(f"  violations: {rep.violation_count}, worst excess {rep.worst_violation:.2e} J at t={rep.worst_time:.3f} s")
