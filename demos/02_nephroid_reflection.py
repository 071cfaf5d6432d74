"""The coffee-cup caustic, three ways.

Horizontal light reflected inside a circular mirror concentrates on half
a nephroid.  The tilted-coframe formula gives that caustic in closed
form (R1 = (3/4) cos theta for the unit circle); intersecting
neighbouring reflected rays recovers the same curve numerically.  The
script measures the gap between the two and draws mirror, rays and
caustic together.
"""

import math
import os

import numpy as np

from caustics.caustic import TiltField, caustic_curve
from caustics.inclination import AngleInterval, circle
from caustics.oracle import envelope_gap, rays_from_tilt
from caustics.svg import write_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

mirror = circle(1.0)
window = AngleInterval(0.01, math.pi - 0.01, 801)
tilt = TiltField.reflection()

# Closed form: one caustic vertex per mirror sample, plus the radius law.
closed = caustic_curve(mirror, tilt, window)
radius_defect = np.max(np.abs(closed.caustic_radius - 0.75 * np.cos(closed.source.theta)))
print(f"caustic radius vs (3/4)cos(theta): {radius_defect:.2e}")

# Numeric envelope: emit the reflected rays and intersect neighbours.
# Each intersection is compared with the closed form at its own ray pair's
# parameter, the caustic's cusp included.
gap, envelope = envelope_gap(mirror, tilt, window)
print(f"envelope vs closed form (node by node): {gap:.2e}")

# The cusp sits where the closed-form caustic radius changes sign.
flips = np.flatnonzero(np.diff(np.sign(closed.caustic_radius)))
cusps = 0.5 * (closed.points[flips] + closed.points[flips + 1])

# Scene: the mirror arc, a sparse fan of reflected rays, both caustics.
family = rays_from_tilt(mirror, tilt, window)
bases, directions = family.bases[::40], family.directions[::40]
fan = list(np.stack([bases, bases + 1.2 * directions], axis=1))
write_scene(
    os.path.join(OUT, "nephroid.svg"),
    mirror=[family.bases],
    caustic=[closed.points, envelope.points],
    rays=fan,
    cusps=cusps,
)
print(f"wrote {os.path.join(OUT, 'nephroid.svg')}")
