"""Rebuild plane curves from their turning radius R(theta).

A curve with tangent angle theta and signed turning radius R(theta) is
fixed, up to placement, by three quadratures:

    x(t) = integral R cos(theta),  y(t) = integral R sin(theta),
    s(t) = integral R.

This script reconstructs three classical profiles by quadrature, checks
each against its closed form, and draws them into one SVG.  The stock
curves carry their closed form, which ``reconstruct`` would take; a curve
built from the jet alone takes the quadrature.
"""

import math
import os

import numpy as np

from caustics.inclination import (
    AngleInterval,
    InclinationCurve,
    circle,
    cycloid,
    log_spiral,
    reconstruct,
)
from caustics.svg import write_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)


# A unit circle: R identically 1, starting at the origin
# heading along +x.  The reconstruction must give x = sin, y = 1 - cos.
window = AngleInterval(0.0, 2.0 * math.pi, 257)
ring = reconstruct(InclinationCurve(circle(1.0).jet), window)
t = ring.theta
pts = ring.points
err = np.max(np.hypot(pts[:, 0] - np.sin(t), pts[:, 1] - (1.0 - np.cos(t))))
print(f"circle     max position error {err:.2e}   arclength {ring.arclength[-1]:.12f}")

# One cycloid arch: R = sin(theta) on [0, pi] traces half of
# (sin^2(t)/2, t/2 - sin(2t)/4) and has total arc length exactly 2.
arch = reconstruct(InclinationCurve(cycloid(1.0).jet), AngleInterval(0.0, math.pi, 257))
t = arch.theta
pts_arch = arch.points
closed = np.column_stack([np.sin(t) ** 2 / 2.0, t / 2.0 - np.sin(2.0 * t) / 4.0])
err = np.max(np.hypot(*(pts_arch - closed).T))
print(f"cycloid    max position error {err:.2e}   arclength {arch.arclength[-1]:.12f}")

# A logarithmic spiral: R = e^theta winds outward with its arc length
# growing like e^theta - 1.
coil = reconstruct(InclinationCurve(log_spiral(1.0, 1.0).jet),
                   AngleInterval(0.0, 2.0 * math.pi, 257))
print(f"log spiral arclength {coil.arclength[-1]:.6f} "
      f"(closed form {math.expm1(2.0 * math.pi):.6f})")

write_scene(
    os.path.join(OUT, "curves.svg"),
    mirror=[pts, pts_arch, coil.points],
)
print(f"wrote {os.path.join(OUT, 'curves.svg')}")
