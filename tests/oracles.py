"""Independent oracles for the test suite.

Everything here is computed without touching library internals: closed forms
for the centered radial slit, Fourier-side seminorm identities, brute-force
quadrature with a different scheme, finite-difference Wirtinger quotients,
and a scipy integrator for the flow equations.  Written first, then frozen;
tests import expected values from here instead of inventing them.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from slitweld.arcfun import ArcFunction
from slitweld.errors import ValidationError
from slitweld.loewner import boundary_flow

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- radial slit

def radial_alpha(T: float) -> float:
    """Endpoint angle of the plus-side preimage arc for the constant driver."""
    return 2.0 * math.acos(math.exp(-0.5 * T))


def radial_hitting_time(theta: float) -> float:
    """tau(theta) for the constant driver at 1: -2 log cos(theta / 2)."""
    return -2.0 * math.log(math.cos(0.5 * theta))


def radial_theta_of_time(t: float) -> float:
    """Inverse of radial_hitting_time on the plus side."""
    return 2.0 * math.acos(math.exp(-0.5 * t))

def radial_tip(T: float) -> float:
    """gamma(T) for the constant driver: the inner end of the radial slit.

    Inverts T = log((1+t)^2 / (4t)) on t in (0, 1): with s = sqrt(1 - e^{-T})
    this gives t = (1-s)/(1+s).  Beware s = e^{-T/2} only at T = log 2, where
    e^{-T} = 1/2; an earlier draft used that and agreed only at the anchor.
    """
    s = math.sqrt(1.0 - math.exp(-T))
    return (1.0 - s) / (1.0 + s)


def radial_T_of_tslit(t_slit: float) -> float:
    return math.log((1.0 + t_slit) ** 2 / (4.0 * t_slit))


# -------------------------------------------------------------- linear driver

def linear_hitting_time(u0: float, c: float) -> float:
    """tau(u0) for sigma = c t, plus side; the minus side uses -c and -u0.

    In the chart u = theta - sigma the angle flow separates, du/dt =
    -(cot(u/2) + c), so tau is the integral of du / (cot(u/2) + c) over
    [0, u0]: with phi = atan c and R = sqrt(1 + c^2),
    tau(u0) = (2/R) [sin phi u0/2 - cos phi ln(cos(u0/2 - phi) / cos phi)].
    """
    phi = math.atan(c)
    r = math.hypot(1.0, c)
    return (2.0 / r) * (math.sin(phi) * 0.5 * u0
                        - math.cos(phi) * math.log(math.cos(0.5 * u0 - phi) / math.cos(phi)))


def linear_theta_of_time(t: float, c: float, side: str = "plus") -> float:
    """Start angle absorbed at time t > 0 under sigma = c t, signed by side.

    tau increases from 0 at u0 = 0 to infinity at u0 = pi + 2 atan(c), so
    brentq brackets the root between the two.
    """
    cs = c if side == "plus" else -c
    top = math.pi + 2.0 * math.atan(cs)
    u0 = brentq(lambda u: linear_hitting_time(u, cs) - t, 0.0, top * (1.0 - 1e-12),
                xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    return u0 if side == "plus" else -u0


# ------------------------------------------------------- Fourier-side identity

def trig_poly(rng, degree: int):
    """Random real trig polynomial and its squared half-order seminorm.

    u(theta) = sum a_n cos(n theta) + b_n sin(n theta); on the Fourier side the
    two_pi-normalized squared seminorm is sum_n n (a_n^2 + b_n^2) / 2 * 2
    = sum over signed modes |n| |c_n|^2 with c_{+-n} = (a_n -+ i b_n)/2.
    """
    a = rng.uniform(-1.0, 1.0, degree + 1)
    b = rng.uniform(-1.0, 1.0, degree + 1)
    b[0] = 0.0

    def u(theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full_like(theta, a[0])
        for n in range(1, degree + 1):
            out = out + a[n] * np.cos(n * theta) + b[n] * np.sin(n * theta)
        return out

    seminorm_sq = 0.5 * sum(n * (a[n] ** 2 + b[n] ** 2) for n in range(1, degree + 1))
    return u, float(seminorm_sq)


def brute_h_half_sq(u, n: int = 1200) -> float:
    """Trapezoid-grid double sum of the chordal energy on the full circle.

    Deliberately a different scheme from the library (node grid with the exact
    diagonal dropped, trapezoid weights), for cross-checks at the few-percent
    level; two_pi normalization.
    """
    th = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = np.asarray(u(th), dtype=float)
    diff = vals[:, None] - vals[None, :]
    chord = 4.0 * np.sin(0.5 * (th[:, None] - th[None, :])) ** 2
    np.fill_diagonal(chord, 1.0)
    integrand = diff * diff / chord
    np.fill_diagonal(integrand, 0.0)
    h = TWO_PI / n
    return float(np.sum(integrand) * h * h / TWO_PI ** 2)


# ------------------------------------------------------ dense chordal levels

def _dense_cells(th1, u1, th2, u2, mask):
    """(u1_i - u2_j)^2 / (4 sin^2((th1_i - th2_j)/2)), zero where mask is 0."""
    diff = u1[:, None] - u2[None, :]
    kern = 4.0 * np.sin(0.5 * (th1[:, None] - th2[None, :])) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mask > 0.0, diff * diff / kern, 0.0)


def dense_chordal_level(u, start1: float, span1: float, start2: float, span2: float,
                        m: int, same: bool) -> float:
    """One m-point midpoint level of the raw chordal energy of u over two arcs.

    Builds the whole (m, m) cell array at once, with the colliding midpoints
    of a same-arc sum masked out: the dense formula that the library's
    chordal kernel sums, kept here as its reference.
    """
    h1, h2 = span1 / m, span2 / m
    th1 = start1 + (np.arange(m) + 0.5) * h1
    th2 = start2 + (np.arange(m) + 0.5) * h2
    u1 = np.asarray(u(th1), dtype=float)
    u2 = u1 if same else np.asarray(u(th2), dtype=float)
    mask = np.ones((m, m))
    if same:
        np.fill_diagonal(mask, 0.0)
    return float(np.sum(_dense_cells(th1, u1, th2, u2, mask)) * h1 * h2)


def blocked_chordal_sum(th1, u1, th2, u2, same: bool) -> float:
    """Sum of (u1_i - u2_j)^2 / |e^{i th1_i} - e^{i th2_j}|^2 over all cells.

    Walks the cell array in row blocks of about 2^16 cells, so memory
    is O(m): the kernel the library's FFT products replaced, kept as their
    reference at levels too large for dense_chordal_level.  With same, th1
    and th2 are one grid and the diagonal cells are dropped.  The chord comes
    from the half-angle identity sin((a - b)/2) = sin(a/2) cos(b/2)
    - cos(a/2) sin(b/2), with the sines and cosines taken once per midpoint.
    """
    s1, c1 = np.sin(0.5 * th1), np.cos(0.5 * th1)
    s2, c2 = np.sin(0.5 * th2), np.cos(0.5 * th2)
    rows = max(1, (1 << 16) // th2.size)
    total = 0.0
    for lo in range(0, th1.size, rows):
        hi = min(lo + rows, th1.size)
        half_chord = np.multiply.outer(s1[lo:hi], c2)
        half_chord -= np.multiply.outer(c1[lo:hi], s2)
        q = np.subtract.outer(u1[lo:hi], u2)
        if same:
            r = np.arange(hi - lo)
            half_chord[r, lo + r] = 1.0   # q is 0 there, so the cell drops out
        q /= half_chord
        q *= q
        total += float(q.sum())
    return 0.25 * total


def dense_wp_level(log_chi_deriv, mm: int) -> float:
    """One mm-point level of the wp cross integral, cell by cell.

    log |chi'| on the arc from 1 to i against 0 on the arc from -i to 1.
    """
    h = 0.5 * math.pi / mm
    th1 = (np.arange(mm) + 0.5) * h
    th2 = -0.5 * math.pi + (np.arange(mm) + 0.5) * h
    cells = _dense_cells(th1, np.asarray(log_chi_deriv(th1), dtype=float),
                         th2, np.zeros(mm), np.ones((mm, mm))) * (h * h)
    return float(np.sum(cells))


# ------------------------------------------------------ dense mean oscillation

def dense_vmo_curve(u, samples: int = 2048) -> list:
    """regularity.vmo_curve by the dense pass at every scale.

    Each window's deviations from its mean are taken cell by cell, in row
    blocks of about 2^16 samples: the pass that the library's sums over
    monotone runs replaced on long windows, kept as their reference for
    values and for memory.  u is an ArcFunction (windows stay on its arc) or
    a callable of angles (windows wrap around the circle).
    """
    if isinstance(u, ArcFunction):
        f, span, start, periodic = u.eval_angle, u.arc.length, u.arc.start.angle, False
    else:
        f, span, start, periodic = u, TWO_PI, 0.0, True
    h = span / samples
    vals = np.asarray(f(start + (np.arange(samples) + 0.5) * h), dtype=float)
    curve = []
    scale = span
    while scale / h >= 8:
        wlen = int(np.clip(round(scale / h), 2, samples))
        curve.append([scale, _dense_mean_oscillation(vals, wlen, periodic)])
        scale *= 0.5
    return curve


def _dense_mean_oscillation(vals, wlen: int, periodic: bool) -> float:
    if periodic:
        vals = np.concatenate((vals, vals[: wlen - 1]))
    windows = sliding_window_view(vals, wlen)
    means = windows.mean(axis=1)
    osc = np.empty_like(means)
    rows = max(1, (1 << 16) // wlen)
    buf = np.empty((min(rows, means.size), wlen))
    for lo in range(0, means.size, rows):
        dev = buf[:min(rows, means.size - lo)]
        np.subtract(windows[lo:lo + rows], means[lo:lo + rows, None], out=dev)
        osc[lo:lo + rows] = np.abs(dev, out=dev).mean(axis=1)
    return float(osc.max())


# ------------------------------------------------ psi's six arc-pair energies

def six_sum_j_decomposition(psi, m: int, agree_tol: float) -> dict:
    """constructions.psi_j_decomposition summed pair by pair on psi itself.

    log |psi'| is sampled on each of the three arcs and all six pairs are
    summed, with no use of psi's symmetry: the reference for the three sums
    the library takes from the welding.
    """
    from slitweld.circle import arc
    from slitweld.regularity import _level, _midpoints, _richardson

    arcs = {"A": arc(0.0, math.pi), "B": arc(-0.5 * math.pi, 0.0),
            "C": arc(math.pi, -0.5 * math.pi)}
    pairs = {"J1": "AA", "J2": "BB", "J3": "CC", "J4": "CB", "J5": "BA", "J6": "CA"}
    levels = {name: [] for name in pairs}
    for mm in (m, 2 * m, 4 * m):
        u = {k: psi.log_deriv_angle(_midpoints(a, mm)[0]) for k, a in arcs.items()}
        for name, (i, j) in pairs.items():
            levels[name].append(_level(arcs[i], u[i], arcs[j], u[j], i == j))
    out = {name: _richardson(tuple(lv), agree_tol, True, f"psi's {name}")[0]
           for name, lv in levels.items()}
    out["weighted_sum"] = (out["J1"] + out["J2"] + out["J3"]
                           + 2.0 * (out["J4"] + out["J5"] + out["J6"]))
    return out


# ------------------------------------------------- harmonic extension, Horner

def horner_extension(ext, z: complex):
    """(value, dA/dz, dB/dzbar) of a constructions._HarmonicExtension at z.

    The value is A(z) + B(conj z) with A(z) = sum of _pos[k] z^k and
    B(zb) = sum of _neg[k - 1] zb^k, k >= 1; each series and its derivative
    is taken by Horner's rule, one coefficient at a time: the scalar loops
    that the extension's power sums replaced, kept as their reference.
    """
    pos, neg = ext._pos, ext._neg
    zb = z.conjugate()
    a = 0j
    for cft in pos[::-1]:
        a = a * z + cft
    b = 0j
    for cft in neg[::-1]:
        b = b * zb + cft
    da = 0j
    for k in range(len(pos) - 1, 0, -1):
        da = da * z + k * pos[k]
    db = 0j
    for k in range(len(neg), 0, -1):
        db = db * zb + k * neg[k - 1]
    return a + b * zb, da, db


# -------------------------------------------------------- piece owner, by mask

def mask_piece_owner(psi, theta):
    """Index of the first piece of a PiecewiseCircleMap that holds each angle.

    Each piece tests every angle against its own start and length, closed at
    both ends with 1e-12 of slack; an angle no piece holds goes to piece 0:
    the pieces x angles pass that the map's one search replaced, kept as its
    reference.
    """
    starts = np.array([p.arc.start.angle for p in psi.pieces])
    lengths = np.array([p.arc.length for p in psi.pieces])
    rel = np.mod(np.asarray(theta, dtype=float)[None, :] - starts[:, None], TWO_PI)
    return np.argmax(rel <= lengths[:, None] + 1e-12, axis=0)


# ---------------------------------------------------------- Wirtinger by FD

def fd_wirtinger(f, z: complex, h: float = 1e-6):
    """(f_z, f_zbar) by central differences along the two real axes."""
    fx = (f(z + h) - f(z - h)) / (2.0 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def fd_mu(f, z: complex, h: float = 1e-6) -> complex:
    fz, fzb = fd_wirtinger(f, z, h)
    return fzb / fz


# --------------------------------------------------- scipy flow cross-checks

def scipy_upward(sigma_fn, z0: complex, t: float, rtol=1e-11, atol=1e-13) -> complex:
    """Independent integration of g' = -g (xi + g) / (xi - g)."""

    def rhs(s, y):
        g = complex(y[0], y[1])
        xi = cmath.exp(1j * sigma_fn(s))
        v = -g * (xi + g) / (xi - g)
        return [v.real, v.imag]

    sol = solve_ivp(rhs, (0.0, t), [z0.real, z0.imag], rtol=rtol, atol=atol,
                    dense_output=False, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"scipy integration failed: {sol.message}")
    return complex(sol.y[0, -1], sol.y[1, -1])


def scipy_boundary_angle(sigma_fn, theta0: float, t: float,
                         rtol=1e-11, atol=1e-13) -> float:
    """Angle flow d theta/dt = cot((sigma - theta)/2) in the lifted chart."""

    def rhs(s, y):
        return [1.0 / math.tan(0.5 * (sigma_fn(s) - y[0]))]

    sol = solve_ivp(rhs, (0.0, t), [theta0], rtol=rtol, atol=atol, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"scipy integration failed: {sol.message}")
    return float(sol.y[0, -1])


def scipy_absorbed_angle(d, t: float, sign: float, rtol=1e-12, atol=1e-14) -> float:
    """Start angle absorbed at time t on the plus (sign 1) or minus (-1) side.

    Integrates the angle flow backward from the singularity at t to time 0
    with DOP853, one run per driver cell, reading only d.grid and d.sigma.
    On a cell of slope c, w = |theta - sigma| obeys dw/dr = cot(w/2) + sign c
    in reversed time r; the runs use v = w^2, so dv/dr = 2 w (cot(w/2) +
    sign c), which tends to 4 at the singularity.  The birth cell runs in
    rho = sqrt(r), where v = 4 rho^2 + O(rho^3) is smooth.
    """
    grid, sigma = np.asarray(d.grid, dtype=float), np.asarray(d.sigma, dtype=float)
    cell = int(np.searchsorted(grid, t)) - 1
    v = 0.0
    for i in range(cell, -1, -1):
        c = sign * (sigma[i + 1] - sigma[i]) / (grid[i + 1] - grid[i])

        def dv(r, y, c=c):
            w = math.sqrt(max(y[0], 0.0))
            return [4.0 if w == 0.0 else 2.0 * w * (1.0 / math.tan(0.5 * w) + c)]

        if i == cell:
            span, rhs = math.sqrt(t - grid[i]), (lambda x, y: [2.0 * x * dv(x * x, y)[0]])
        else:
            span, rhs = grid[i + 1] - grid[i], dv
        sol = solve_ivp(rhs, (0.0, span), [v], rtol=rtol, atol=atol, method="DOP853")
        if not sol.success:
            raise RuntimeError(f"scipy integration failed: {sol.message}")
        v = float(sol.y[0, -1])
    return sign * math.sqrt(v)


def scipy_trace_tip(d, t: float, rtol=1e-13, atol=1e-15) -> complex:
    """Trace tip gamma(t): the upward flow from the singularity at T - t to T.

    Integrates with DOP853, one run per driver cell, reading only d.grid and
    d.sigma.  With p = 1 - g / xi(s), on a cell of slope c the chart q = p^2
    obeys dq/ds = 2 (1 - p)(2 - (1 - ic) p), which is 4 at the singularity,
    where q = 0; inside the disk Re p > 0, so p is the principal root of q.
    The birth cell runs in rho = sqrt(s - s0), where q = 4 rho^2 + O(rho^3)
    is smooth.  The tip is xi(T) (1 - p(T)).
    """
    grid, sigma = np.asarray(d.grid, dtype=float), np.asarray(d.sigma, dtype=float)
    s0 = grid[-1] - t
    cell = int(np.searchsorted(grid, s0, side="right")) - 1
    q = 0j
    for i in range(cell, grid.size - 1):
        a = 1.0 - 1j * (sigma[i + 1] - sigma[i]) / (grid[i + 1] - grid[i])

        def dq(r, y, a=a):
            p = np.sqrt(y[0])
            return [2.0 * (1.0 - p) * (2.0 - a * p)]

        if i == cell:
            span, rhs = math.sqrt(grid[i + 1] - s0), (lambda x, y: [2.0 * x * dq(x * x, y)[0]])
        else:
            span, rhs = grid[i + 1] - grid[i], dq
        sol = solve_ivp(rhs, (0.0, span), [q], rtol=rtol, atol=atol, method="DOP853")
        if not sol.success:
            raise RuntimeError(f"scipy integration failed: {sol.message}")
        q = complex(sol.y[0, -1])
    return cmath.exp(1j * sigma[-1]) * (1.0 - cmath.sqrt(q))


# ---------------------------------------------------- forward boundary flow

def hitting_time(d, theta0: float):
    """(tau, side) for a boundary start angle, or None if it survives to T.

    Reads the end state of the library's forward boundary_flow from theta0,
    which extraction never uses, so it checks the absorbed angles that
    extraction finds by sweeping backward from the singularity.  side is
    "plus" when the trajectory reaches the singularity from the
    counterclockwise side (preimage of the slit's plus side), else "minus".
    """
    t, theta, hit = boundary_flow(d, theta0, d.T)
    if not hit:
        return None
    u = math.fmod(theta - d.sigma_at(t), TWO_PI)
    if u < 0.0:
        u += TWO_PI
    return t, "plus" if u <= math.pi else "minus"


# ------------------------------------------------------- DP5(4) tableau

# Dormand-Prince 5(4) tableau, copied from the library as a frozen reference
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
DP_E = (  # b5 - b4, for the embedded error estimate
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


# ------------------------------------------------------- graded driver angles

# Start angles absorbed at SQRT_TIMES under the graded sigma = 0.4 sqrt(t) of
# conftest.d_sqrt (256 cells, power 2), rows plus and minus side: the cell
# maps of loewner._absorbed_angles evaluated to 40 digits with mpmath, by
# tests/cell_map_table.py, which reruns them.
SQRT_TIMES = (0.003, 0.1, 0.5, 1.0)
SQRT_ABSORBED_ANGLES = (
    (0.1269498871860716989792169267419055196507, 0.7273113783784968372784351924286404800039,
     1.574166033049106163007094888337510904269, 2.135900667123059808917541134311885028688),
    (-0.0926004326448040595837791281645427732584, -0.530051526914177218139212120456427786728,
     -1.14456043691548399185220013880090900792, -1.549426678535402882448932427582962587749),
)

# Trace tips (real, imaginary) at SQRT_TIMES under the same driver, each born
# at the float T - t: a 50-digit Taylor integration of the tip flow, polished
# on the exact cell maps, by tests/tip_map_table.py, which reruns it.
SQRT_TRACE_TIPS = (
    (0.825611341106041741379062388969513559263, 0.3486727860169321286228981717959329791554),
    (0.4895883060994361814796038644599187275742, 0.1991048429572711322986518656030778148567),
    (0.21762544401633318322862274280910649338, 0.07229618528959102606170760814772439021702),
    (0.1136433001398681230375802473234735630664, 0.02020044474444800999131099424949111206585),
)

# Trace tips at SQRT_TIMES under the one-cell driver of slope -100 on [0, 1],
# on which a tip winds about 100 radians, from the same integration with
# every cell cut into ceil(|delta sigma|) pieces, as loewner cuts it.
WINDING_TRACE_TIPS = (
    (0.6698853818326640678948003316538318714616, 0.6647194155664137595766252202879151869917),
    (-0.4647371311479835832536882916893248971008, -0.7492157966190979657006591666811996130654),
    (0.5813583615008338667846630408361759725493, 0.1187026194546471436848720620594170376203),
    (0.3579478964794442036870692522379195831568, -0.02597456400381022958848258979203428458557),
)


# ------------------------------------------------------------- random drivers

def random_lip_half_nodes(rng, n: int = 64, T: float = 1.0, const: float = 0.5):
    """Piecewise-linear driver nodes with |d sigma| <= const sqrt(dt) per gap."""
    grid = np.linspace(0.0, T, n + 1)
    dt = np.diff(grid)
    steps = rng.uniform(-1.0, 1.0, n) * const * np.sqrt(dt)
    sigma = np.concatenate([[0.0], np.cumsum(steps)])
    return grid, sigma


def lip_half_gap_loop(d) -> float:
    """regularity.lip_half_norm over every node gap, one pass per gap.

    The loop that the library's row blocks replaced, kept as their reference:
    each pair is the same floating-point expression, so the maxima are equal.
    """
    t, s = d.grid, d.sigma
    best = 0.0
    for g in range(1, t.size):
        chord = 2.0 * np.abs(np.sin(0.5 * (s[g:] - s[:-g])))
        best = max(best, float(np.max(chord / np.sqrt(t[g:] - t[:-g]))))
    return best


# ----------------------------------------------------------- sector shear mu

def sector_mu_abs(argp: float, upper: bool) -> float:
    """|mu| of the piecewise angular shear with corner ray at argument argp.

    The shear multiplies arguments by a1 = (pi/2)/argp below the ray and by
    a2 = (pi/2)/(pi - argp) above it; for w = r e^{i phi} -> r e^{i a phi} the
    dilatation magnitude is |1 - a| / (1 + a).
    """
    a = (0.5 * math.pi / argp) if not upper else (0.5 * math.pi / (math.pi - argp))
    return abs(1.0 - a) / (1.0 + a)


# ------------------------------------------------------ dilatation closed form

def const_mu_subdisk_integral(k: float, r: float) -> float:
    """Closed form of the squared-dilatation Poincare integral for |mu| = k
    constant on |z| < r inside the unit disk:
    k^2 * 2 pi * [1/(2(1-s^2))]_0^r = k^2 pi (1/(1-r^2) - 1)."""
    return k * k * math.pi * (1.0 / (1.0 - r * r) - 1.0)


# ------------------------------------------------------------- JSON layout

def reference_json_dumps(obj) -> str:
    """The library's JSON layout, formatted one value at a time.

    Indent 2, insertion-ordered keys, floats as %.17g with NaN and
    +-Infinity spelled out; serialize.json_dumps must give the same bytes.
    """
    def value(obj, level: int) -> str:
        pad = "  " * level
        pad_in = "  " * (level + 1)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            x = float(obj)
            if math.isnan(x):
                return "NaN"
            if math.isinf(x):
                return "Infinity" if x > 0 else "-Infinity"
            return "%.17g" % x
        if isinstance(obj, complex):
            return value({"re": obj.real, "im": obj.imag}, level)
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            items = [value(v, level + 1) for v in obj]
            return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = [f"{json.dumps(str(k))}: {value(v, level + 1)}" for k, v in obj.items()]
            return "{\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "}"
        raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")

    return value(obj, 0) + "\n"
