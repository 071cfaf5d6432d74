"""Curves whose skew caustic is a scaled copy of themselves.

Fix a constant tilt phi0 and ask for curves satisfying

    cos(phi0) R'(theta) + sin(phi0) R(theta) = a R(arg)

for three readings of the argument: the same point (arg = theta), the
mirrored position (arg = alpha - theta), and a delayed one
(arg = theta - alpha).  Each reading pins down a family in closed form;
this script builds one member of each and confirms the defining
equation numerically.
"""

import math
import os

import numpy as np

from caustics.inclination import AngleInterval, reconstruct
from caustics.skew import (
    SkewFamilySpec,
    build_family,
    delay_curve,
    delay_roots,
    implied_alpha,
    skew_equation_residual,
)
from caustics.svg import write_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)
window = AngleInterval(-math.pi, math.pi, 257)

# Point by point: the solutions are logarithmic spirals, degenerating to
# a circle exactly when a = sin(phi0).
phi0, a = 0.4, 0.9
spiral = build_family(SkewFamilySpec("point_by_point", phi0, a))
res = skew_equation_residual(spiral, phi0, a, "point_by_point", window)
print(f"point-by-point  {spiral.label:<40} residual {res:.2e}")
ring = build_family(SkewFamilySpec("point_by_point", phi0, math.sin(phi0)))
flatness = float(np.ptp(ring.jet(window.grid())[0]))
print(f"degeneration at a = sin(phi0): constant radius (spread {flatness:.1e})")

# Inverse position: harmonic radii A cos(w theta) + B sin(w theta); the
# mirror offset alpha is forced by the amplitudes.  At a = +-sin(phi0)
# the frequency drops to zero and the curve is a circle involute.
phi0, a, amp = 0.5, 1.1, (0.8, 0.3)
spec = SkewFamilySpec("inverse_position", phi0, a, coefficients=(amp,))
wave = build_family(spec)
alpha = implied_alpha(amp[0], amp[1], a, phi0)
res = skew_equation_residual(wave, phi0, a, "inverse_position", window, alpha=alpha)
print(f"inverse         {wave.label:<40} residual {res:.2e} (alpha {alpha:+.6f})")
flat = build_family(SkewFamilySpec("inverse_position", phi0, math.sin(phi0)))
print(f"degeneration at a = sin(phi0): {flat.label}")

# Delay: exponential rates come from Lambert-W branches.  Branch 0 gives
# the slowest-growing member.
phi0, a, alpha = 0.3, 0.9, 0.8
spec = SkewFamilySpec("delay", phi0, a, alpha=alpha,
                      root_indices=(0,), coefficients=((1.0, 0.0),))
roots = delay_roots(a, alpha, phi0, indices=(0, -1, 1))
for root in roots:
    print(f"delay branch {root.branch:+d}: lambda = {root.value:.12g}")
growth = delay_curve(spec, roots[:1])
res = skew_equation_residual(growth, phi0, a, "delay", window, alpha=alpha)
print(f"delay           {growth.label:<40} residual {res:.2e}")

scene = {
    "mirror": [
        reconstruct(curve, window).points
        for curve in (spiral, ring, wave, growth)
    ]
}
write_scene(os.path.join(OUT, "skew_families.svg"), **scene)
print(f"wrote {os.path.join(OUT, 'skew_families.svg')}")
