"""Print oracles.SQRT_ABSORBED_ANGLES from a 40-digit evaluation of the cell maps.

Run from the repository root with mpmath installed (it is not a test
dependency; the suite reads only the printed literals):

    PYTHONPATH=src python tests/cell_map_table.py

The driver is the graded sigma = 0.4 sqrt(t) of tests/conftest.py, taken at
its float nodes.  Each cell of slope c maps the co-moving angle w to the
root of F_c(x) = F_c(w) + dt, F_c(w) = (c w - 2 ln|cos(w/2) + c sin(w/2)|)
/ (1 + c^2), found by bisection between w and the fixed point
pi + 2 atan c; so nothing but F_c is shared with loewner._cell_map.
"""

import mpmath as mp
import numpy as np

from slitweld.loewner import DrivingTerm

TIMES = (0.003, 0.1, 0.5, 1.0)   # oracles.SQRT_TIMES

mp.mp.dps = 50


def cell_map(w, dt, c):
    def excess(x):   # F_c(x) - F_c(w) - dt
        return (c * (x - w) - 2 * (mp.log(abs(mp.cos(x / 2) + c * mp.sin(x / 2)))
                                   - mp.log(abs(mp.cos(w / 2) + c * mp.sin(w / 2))))
                ) / (1 + c * c) - dt

    below, above = w, mp.pi + 2 * mp.atan(c)   # excess < 0 at below, +inf at above
    while abs(above - below) > mp.mpf(10) ** -45:
        mid = (below + above) / 2
        if excess(mid) < 0:
            below = mid
        else:
            above = mid
    return (below + above) / 2


def absorbed_angles(d, t, sign):
    g = [mp.mpf(x) for x in d.grid.tolist()]
    s = [mp.mpf(x) for x in d.sigma.tolist()]
    t = mp.mpf(t)
    w = mp.mpf(0)
    for i in range(len(g) - 2, -1, -1):
        if g[i] >= t:
            continue
        c = sign * (s[i + 1] - s[i]) / (g[i + 1] - g[i])
        w = cell_map(w, min(t, g[i + 1]) - g[i], c)
    return sign * w


def main():
    d = DrivingTerm.from_function(lambda t: 0.4 * np.sqrt(t), 1.0, 256, power=2)
    for sign in (1, -1):
        row = [mp.nstr(absorbed_angles(d, t, sign), 40) for t in TIMES]
        print("    (" + ", ".join(row) + "),")


if __name__ == "__main__":
    main()
