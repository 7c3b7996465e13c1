"""Print oracles.SQRT_TRACE_TIPS and WINDING_TRACE_TIPS from a 40-digit
integration of the tip flow.

Run from the repository root with mpmath installed (it is not a test
dependency; the suite reads only the printed literals):

    PYTHONPATH=src python tests/tip_map_table.py

The driver is the graded sigma = 0.4 sqrt(t) of tests/conftest.py, taken at
its float nodes, and the tip at time t is born at the float T - t, as
loewner.trace_point takes it.  In p = 1 - g / xi(s), a cell of slope c and
a = 1 - ic gives p dp/ds = (1 - p)(2 - a p), a polynomial right-hand side,
so the flow is stepped by its Taylor series, whose coefficients follow from
a recurrence; the birth step runs in r = sqrt(s - s0), where p = 2r + ... is
analytic.  Each cell's end value is then polished by Newton on the exact
cell map G(p1) - G(p0) = (1 + c^2) dt, G(p) = -a ln(1 - p) + 2 ln(1 - a p/2),
whose root the Taylor steps select; so nothing but G is shared with
loewner._tip_map.

The second table is the one-cell driver of slope -100 on [0, 1], on which
a tip winds about 100 radians.  As in loewner, every cell is cut into
ceil(|delta sigma|) pieces and each piece is polished on its own, so the
principal logarithms of G stay on the branch the flow takes; a 70-digit,
order-60 run with no polish agrees to 50 digits.
"""

import mpmath as mp
import numpy as np

from slitweld.loewner import DrivingTerm

TIMES = (0.003, 0.1, 0.5, 1.0)   # oracles.SQRT_TIMES, for both tables
ORDER = 24                       # Taylor terms per step

mp.mp.dps = 50


def taylor_step(p, a, h):
    """p after time h from p != 0, by Taylor series, halving h until they converge."""
    c = [p]
    for k in range(ORDER):
        # coefficient k of p p' = 2 - (2 + a) p + a p^2, solved for c[k + 1]
        rhs = (2 if k == 0 else 0) - (2 + a) * c[k]
        rhs += a * mp.fsum(c[j] * c[k - j] for j in range(k + 1))
        rhs -= mp.fsum(c[j] * (k + 1 - j) * c[k + 1 - j] for j in range(1, k + 1))
        c.append(rhs / (c[0] * (k + 1)))
    if abs(c[-1]) * h ** ORDER > mp.mpf(10) ** -20:
        return taylor_step(taylor_step(p, a, h / 2), a, h / 2)
    return mp.polyval(c[::-1], h)


def birth_step(a, age):
    """p at the given age from birth at p = 0, by its series in r = sqrt(age)."""
    c = [mp.mpf(0), mp.mpf(2)]
    for k in range(2, ORDER):
        # coefficient k of p dp/dr = 2r (2 - (2 + a) p + a p^2), solved for c[k]
        rhs = 2 * (-(2 + a) * c[k - 1] + a * mp.fsum(c[j] * c[k - 1 - j] for j in range(k)))
        rhs -= mp.fsum(c[j] * (k + 1 - j) * c[k + 1 - j] for j in range(2, k))
        c.append(rhs / (2 * (k + 1)))
    r = mp.sqrt(age)
    if abs(c[-1]) * r ** (ORDER - 1) > mp.mpf(10) ** -20:
        return taylor_step(birth_step(a, age / 4), a, age * 3 / 4)
    return mp.polyval(c[::-1], r)


def cell_map(p0, p, a, dt):
    """Polish p, the cell's end value from p0 after dt, on the exact cell map."""
    def excess(x):
        return (-a * mp.log((1 - x) / (1 - p0)) + 2 * mp.log((2 - a * x) / (2 - a * p0))
                - (1 + (a.imag) ** 2) * dt)

    return mp.findroot(excess, p, tol=mp.mpf(10) ** -90)


def trace_tip(d, t):
    g = [mp.mpf(x) for x in d.grid.tolist()]
    s = [mp.mpf(x) for x in d.sigma.tolist()]
    at = mp.mpf(d.T - t)
    p = None
    for i in range(len(g) - 1):
        if g[i + 1] <= at:
            continue
        a = 1 - 1j * (s[i + 1] - s[i]) / (g[i + 1] - g[i])
        n = max(1, int(mp.ceil(abs(s[i + 1] - s[i]))))
        for j in range(1, n + 1):
            end = g[i + 1] if j == n else g[i] + (g[i + 1] - g[i]) * j / n
            if end <= at:
                continue
            dt, at = end - at, end
            guess = birth_step(a, dt) if p is None else taylor_step(p, a, dt)
            p = cell_map(0 if p is None else p, guess, a, dt)
    return mp.expj(s[-1]) * (1 - p)


def main():
    tables = (
        ("SQRT_TRACE_TIPS", DrivingTerm.from_function(lambda t: 0.4 * np.sqrt(t), 1.0, 256,
                                                      power=2)),
        ("WINDING_TRACE_TIPS", DrivingTerm([0.0, 1.0], [0.0, -100.0])),
    )
    for name, d in tables:
        print(f"{name} = (")
        for t in TIMES:
            tip = trace_tip(d, t)
            print(f"    ({mp.nstr(tip.real, 40)}, {mp.nstr(tip.imag, 40)}),")
        print(")")


if __name__ == "__main__":
    main()
