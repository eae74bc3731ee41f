"""Height-field surfaces and the penalty contact model.

Walks the sinusoidal patch, queries heights and analytic normals, then
presses a spherical tool into the surface and slides it sideways to show the
normal spring force and the Coulomb friction cone.
"""

import numpy as np

from vauf import HeightField, analytic_normal, contact_wrench, height

surf = HeightField()  # sinusoid: 0.02*sin(pi*y/0.19 + 0.44) + 0.02 on a 0.26 x 0.51 patch

print("surface profile along y (x = 0):")
for y in np.linspace(-0.2, 0.2, 9):
    n = analytic_normal(surf, 0.0, y)
    print(f"  y={y:+.3f}  h={height(surf, 0.0, y):.4f} m   normal=({n[0]:+.2f}, {n[1]:+.2f}, {n[2]:+.2f})")

print("\npressing a 2 cm tool into the surface at the origin:")
h0 = height(surf, 0.0, 0.0)
for pen_mm in (0.5, 1.0, 2.0):
    centre = np.array([0.0, 0.0, h0 + 0.02 - pen_mm * 1e-3])  # contact needs only the tool centre
    rep = contact_wrench(surf, centre, np.zeros(6), tool_radius=0.02)
    print(f"  {pen_mm:.1f} mm penetration -> normal force {np.linalg.norm(rep.wrench[:3]):6.2f} N")

print("\nsliding at 5 cm/s under the same penetration (mu = 0.5):")
centre = np.array([0.0, 0.0, h0 + 0.02 - 1.5e-3])
twist = np.array([0.05, 0.0, 0.0, 0.0, 0.0, 0.0])
rep = contact_wrench(surf, centre, twist, tool_radius=0.02)
f, n = np.array(rep.wrench[:3]), analytic_normal(surf, 0.0, 0.0)  # the contact returns float tuples
f_n = f @ n
f_t = f - f_n * n
print(f"  normal {f_n:.2f} N, tangential {np.linalg.norm(f_t):.2f} N (= mu * normal), opposing the slip")
