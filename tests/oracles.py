"""Independent oracles for the test suite.

Everything here is computed without touching library internals: closed forms
for the centered radial slit, Fourier-side seminorm identities, brute-force
quadrature with a different scheme, finite-difference Wirtinger quotients,
and a scipy integrator for the flow equations.  Written first, then frozen;
tests import expected values from here instead of inventing them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from slitweld.errors import DiagnosticsError, IntegrationError

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
    of a same-arc sum masked out: the dense formula the library's row-blocked
    kernel replaced, kept here as its reference.
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


def dense_wp_level(log_chi_deriv, m_base: int, mm: int):
    """(total, alpha-cell mass) of one mm-point level of the wp cross integral.

    log |chi'| on the arc from 1 to i against 0 on the arc from -i to 1; the
    alpha cells are those within one base-level cell (pi / (2 m_base)) of i
    in the first angle or of -i in the second.
    """
    h = 0.5 * math.pi / mm
    th1 = (np.arange(mm) + 0.5) * h
    th2 = -0.5 * math.pi + (np.arange(mm) + 0.5) * h
    cells = _dense_cells(th1, np.asarray(log_chi_deriv(th1), dtype=float),
                         th2, np.zeros(mm), np.ones((mm, mm))) * (h * h)
    delta = 0.5 * math.pi / m_base
    near1 = th1 > 0.5 * math.pi - delta
    near2 = th2 < -0.5 * math.pi + delta
    alpha = (np.sum(cells[near1, :]) + np.sum(cells[:, near2])
             - np.sum(cells[np.ix_(near1, near2)]))
    return float(np.sum(cells)), float(alpha)


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


# ------------------------------------------------- generic DP5(4) reference

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


def reference_dp54(f, t0, t1, y0, params, cap=None, stop=None, record=None, h=None,
                   steps=0, clock=None):
    """The library's adaptive DP5(4) stepper as a generic tableau loop.

    Same arguments and (t, y, stopped, h, err, steps) result as
    loewner._dp54; kept as the loop it was written as, so a rewritten stepper
    can be checked against it for bit-identical output.
    """
    span = t1 - t0
    if span <= 0.0:
        return t0, y0, False, h, 0.0, steps
    t, y = t0, y0
    h_min = 1e-15 * max(1.0, abs(span))
    k1 = f(t, y)
    if h is None:
        h = min(span / 16.0, 0.1)
    err_sum = 0.0
    at = (lambda s: s) if clock is None else clock
    while t < t1 - 1e-14 * max(1.0, t1):
        if steps >= params.max_steps:
            raise IntegrationError(f"step budget {params.max_steps} exhausted at t={at(t):.6g}")
        limit = t1 - t
        h_max = limit
        if cap is not None:
            h_max = min(h_max, cap(t, y))
        if h_max < h_min:
            raise DiagnosticsError(
                f"step collapsed below {h_min:.3g} at t={at(t):.6g}; driver too rough")
        h = min(h, h_max)
        snap = h >= limit - 1e-14 * max(1.0, limit)
        if snap:
            h = limit

        k = [k1, None, None, None, None, None, None]
        for i in range(1, 7):
            yi = y
            a = DP_A[i]
            for j in range(i):
                if a[j] != 0.0:
                    yi = yi + (h * a[j]) * k[j]
            k[i] = f(t + DP_C[i] * h, yi)
        y5 = y
        for j in range(7):
            if DP_B5[j] != 0.0:
                y5 = y5 + (h * DP_B5[j]) * k[j]
        err = 0.0
        for j in range(7):
            if DP_E[j] != 0.0:
                err += DP_E[j] * k[j]
        err = abs(h * err)
        tol = params.atol + params.rtol * max(abs(y), abs(y5))
        steps += 1
        if err <= tol:
            t = t1 if snap else t + h
            y = y5
            k1 = k[6]  # FSAL
            err_sum += err
            if record is not None:
                record(t, y)
            if stop is not None and stop(t, y):
                return t, y, True, h, err_sum, steps
            factor = 4.0 if err == 0.0 else min(4.0, 0.9 * (tol / err) ** 0.2)
            h = h * factor
        else:
            h = h * max(0.2, 0.9 * (tol / err) ** 0.2)
            k1 = k[0]
    return t, y, False, h, err_sum, steps


# ------------------------------------------------------------- random drivers

def random_lip_half_nodes(rng, n: int = 64, T: float = 1.0, const: float = 0.5):
    """Piecewise-linear driver nodes with |d sigma| <= const sqrt(dt) per gap."""
    grid = np.linspace(0.0, T, n + 1)
    dt = np.diff(grid)
    steps = rng.uniform(-1.0, 1.0, n) * const * np.sqrt(dt)
    sigma = np.concatenate([[0.0], np.cumsum(steps)])
    return grid, sigma


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
