"""Mirror profiles whose reflection caustic is a half-size copy.

Ask for a mirror R(theta) whose reflection caustic equals (1/2) R(2theta)
up to a dilation factor a:

    sin(theta) R'(theta) = 4 a R(2theta) - 3 cos(theta) R(theta).

Writing R = sin(theta) Q and expanding Q = sum a_n theta^n turns this
into a two-term recursion whose admissible factors are a = (k+4)/2^(k+3).
k = 0 gives the cycloid (Q identically 1); k = 1 and k = 2 give genuinely
new profiles, continued beyond theta = pi/2 by repeated angle doubling.
The mirror_report diagnostics show why only the cycloid member makes a
feasible vertical mirror.
"""

import math
import os

import numpy as np

from caustics.caustic import TiltField, caustic_curve
from caustics.inclination import AngleInterval
from caustics.pantograph import (
    PantographSolution,
    continue_R,
    mirror_equation_residual,
    mirror_report,
    similarity_factor,
    solution_curve,
    solve_series,
)
from caustics.svg import write_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

for k, name in ((0, "cycloid"), (1, "m = 2"), (2, "m = 3")):
    solution = PantographSolution(solve_series(k, n_max=30))
    report = mirror_report(solution)
    residual = mirror_equation_residual(solution, AngleInterval(0.01, 2 * math.pi, 257))
    print(f"--- {name}: a = {similarity_factor(k)}")
    print(f"    equation residual {residual:.2e}")
    print(f"    profile zeros near {', '.join(f'{z:.6f}' for z in report.zeros[:3])}")
    print(f"    cusp chain off its best line by {report.collinearity_residual:.3e}")
    print(f"    arc ratio across one arch in [{report.rho_min:.4f}, {report.rho_max:.4f}]")
    print(f"    vertical profile: {report.is_vertical}; "
          f"self-occluding: {report.has_occlusion}")

    window = AngleInterval(0.0, 4.0 * math.pi, 1025)
    # The reflection caustic from the mirror's own R and R'; theta = 0 is
    # its cusp (R = 0), a NaN row that the scene does not draw.
    caustic = caustic_curve(solution_curve(solution), TiltField.reflection(), window)
    write_scene(
        os.path.join(OUT, f"mirror_k{k}.svg"),
        mirror=[caustic.source.points],
        caustic=[caustic.points],
        cusps=report.mirror_cusp_points,
        cuspline=[report.collinearity_points],
    )

# The angle-doubled radius identity behind the construction, checked on
# the continued m = 2 solution: (1/4)(3 cos R + sin R') = a R(2 theta).
solution = PantographSolution(solve_series(1, n_max=30))
t = np.linspace(0.05, 2.0 * math.pi, 401)
r, rp = continue_R(solution, t)
r2, _ = continue_R(solution, 2.0 * t)
lhs = 0.25 * (3.0 * np.cos(t) * r + np.sin(t) * rp)
defect = np.max(np.abs(lhs - float(similarity_factor(1)) * r2))
print(f"doubling identity defect (m = 2): {defect:.2e}")
print(f"wrote three scenes under {OUT}")
