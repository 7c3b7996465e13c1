"""Closed-form welding of the linear driver sigma(t) = c t.

In the chart u = theta - sigma the boundary angle flow separates, and a start
angle u0 on the plus side of the singularity is absorbed at

    tau(u0) = (2/R) [sin(phi) u0/2 - cos(phi) ln(cos(u0/2 - phi) / cos(phi))],

with phi = atan(c) and R = sqrt(1 + c^2), which is the integral of
du / (cot(u/2) + c) from 0 to u0.  The minus side is the mirror image: it uses
-c, and its start angles are negated.  Pairs are start angles at time 0,
where sigma(0) = 0, so u0 is the angle itself.

This module uses only numpy and the standard library, so that it stays
independent of the program it scores.
"""

from __future__ import annotations

import math

import numpy as np

HORIZON = 1.0           # every generated driver and welding ends at t = 1
MAX_HALVINGS = 200      # a safety cap: the bisection stops at 4 ulp after about 55


def hitting_time(u0, c: float):
    """Absorption time of the plus-side start angle(s) u0 under sigma = c t."""
    phi = math.atan(c)
    r = math.hypot(1.0, c)
    u0 = np.asarray(u0, dtype=float)
    return (2.0 / r) * (math.sin(phi) * 0.5 * u0
                        - math.cos(phi) * np.log(np.cos(0.5 * u0 - phi) / math.cos(phi)))


def plus_angle(t, c: float):
    """Plus-side start angle(s) absorbed at time(s) t >= 0, by bisection.

    tau increases from 0 at u0 = 0 to infinity at u0 = pi + 2 atan(c).
    """
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.full_like(t, math.pi + 2.0 * math.atan(c))
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = hitting_time(mid, c) <= t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 4.0 * np.spacing(hi)):
            break
    return 0.5 * (lo + hi)


def welding(c: float, n: int):
    """(times, theta_plus, theta_minus) on the uniform grid k HORIZON / n, k = 0 .. n."""
    times = HORIZON * np.arange(n + 1) / n
    plus = plus_angle(times, c)
    minus = -plus_angle(times, -c)
    plus[0] = minus[0] = 0.0
    return times, plus, minus


def welding_csv(c: float, n: int) -> str:
    """The closed-form welding in the program's welding CSV format."""
    times, plus, minus = welding(c, n)
    lines = ["t,theta_plus,theta_minus"]
    lines += ["%.17g,%.17g,%.17g" % row for row in zip(times, plus, minus)]
    return "\n".join(lines) + "\n"
