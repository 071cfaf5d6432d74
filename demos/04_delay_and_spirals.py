"""Cuspidal spirals and their self-similar cusp chains.

R = exp(c theta) sin(gamma theta) changes sign every pi/gamma, so the
curve is a chain of cusps winding around a centre.  Because scaling by
exp(c pi / gamma) maps the chain onto itself shifted by one cusp, the
cusp-to-centre distances form a geometric progression.  The script
verifies both facts and renders the spiral with its cusp chain.
"""

import math
import os

import numpy as np

from caustics.inclination import AngleInterval, reconstruct
from caustics.skew import puiseux_curve, puiseux_diagnostics
from caustics.svg import write_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

c, gamma = 0.2, 3.0
window = AngleInterval(-0.1, 4.0 * math.pi + 0.1, 1025)
report = puiseux_diagnostics(c, gamma, window)

placement = max(
    abs(z - round(z * gamma / math.pi) * math.pi / gamma) for z in report.cusp_thetas
)
print(f"{len(report.cusp_thetas)} cusps, placed on multiples of pi/gamma "
      f"to {placement:.1e}")
print(f"expected distance ratio exp(c pi / gamma) = {report.expected_ratio:.9f}")
print("measured ratios:",
      " ".join(f"{r:.9f}" for r in report.ratios[:5]), "...")
print(f"worst deviation {report.max_ratio_deviation:.1e}")

# The doubly degenerate pair (c, gamma) = (0, 1) is the plain cycloid:
# no centre, all chords equal.
flat = puiseux_diagnostics(0.0, 1.0, AngleInterval(-0.1, 4.0 * math.pi + 0.1, 1025))
print(f"(c, gamma) = (0, 1): centre {flat.center}, "
      f"chord ratios all {flat.ratios[0]:.6f}")

curve = puiseux_curve(c, gamma)
chain = report.cusp_points
write_scene(
    os.path.join(OUT, "puiseux.svg"),
    mirror=[reconstruct(curve, window).points],
    cusps=np.vstack([chain, report.center]),
    cuspline=[chain],
)
print(f"wrote {os.path.join(OUT, 'puiseux.svg')}")
