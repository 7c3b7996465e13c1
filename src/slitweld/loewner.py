"""Radial Loewner flows for growing slits in the unit disk.

The driving term is a continuous angle path sigma on [0, T] with sigma(0) = 0,
ingested as piecewise-linear samples.  The upward flow moves interior points of
the disk toward 0 and boundary points toward the singularity exp(i sigma(t));
the downward flow is its horizon-T companion driven by sigma(T - s).  At the
horizon the two flows are inverse to each other, which is the only time this
holds.

Every flow walks the driver cells between its start and end time, one
adaptive Dormand-Prince 5(4) run per cell: sigma is linear on a cell, so the
right-hand side is smooth there and the run reads sigma from the cell's node
value and slope.  The step size and the per-flow step budget carry from cell
to cell.  Besides the usual error control, the interior and boundary flows
cap the step by _C_STEP * Delta^2, where Delta is the distance to the current
singularity, and boundary trajectories terminate when they come within
_EPS_HIT of the driver angle.

Flows born at the singularity are autonomous on a cell once they move with
sigma, and both kinds use that.  The angle absorbed at time t runs backward
from the singularity in the chart w = |theta - sigma|, where a cell of slope
c gives dw/dr = cot(w/2) + c in reversed time r.  That separates: with
F_c(w) = (2/R^2)[c w/2 - ln|cos(w/2) + c sin(w/2)|], R^2 = 1 + c^2, a cell
of length Delta maps w to F_c^-1(F_c(w) + Delta), the exact linear-driver
solution of Kager, Nienhuis and Kadanoff (J. Stat. Phys. 2004) taken cell by
cell.  So the angles of every absorption time, on both sides, are swept from
the top cell down as one array, one Newton solve per cell.  The trace tips
run upward from the singularity in the chart q = (1 - g / xi)^2, whose field
depends only on the cell's slope, so all tips born in one cell share one
DP5(4) run there, in the time chart rho = sqrt(r) where it is smooth; each
tip then continues alone through the later cells.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circle import CirclePoint, TWO_PI
from .errors import (
    DiagnosticsError,
    HitSingularityError,
    IntegrationError,
    TraceError,
    ValidationError,
)

__all__ = [
    "FlowParams",
    "DEFAULT_FLOW_PARAMS",
    "DrivingTerm",
    "TraceSample",
    "upward_flow",
    "downward_flow",
    "boundary_flow",
    "slit_preimage_endpoints",
    "trace_point",
    "trace_curve",
]


@dataclass(frozen=True)
class FlowParams:
    """Integrator controls shared by every flow."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 4096        # per-flow step budget


DEFAULT_FLOW_PARAMS = FlowParams()

# tighter error control for derivative and round-trip checks
PRECISE_FLOW_PARAMS = FlowParams(rtol=1e-12, atol=1e-14, max_steps=100000)

_C_STEP = 0.1                # step cap dt <= _C_STEP * Delta^2
_EPS_HIT = 1e-6              # boundary hit threshold, radians
_SING_EPS = 1e-9             # downward-flow abort distance to the singularity
_TRACE_RESIDUAL_TOL = 1e-3   # trace_point raises TraceError above this residual


class DrivingTerm:
    """Piecewise-linear angle samples sigma on [0, T], sigma(0) = 0."""

    def __init__(self, grid, sigma):
        grid = np.asarray(grid, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if grid.ndim != 1 or sigma.shape != grid.shape or grid.size < 2:
            raise ValidationError("driver needs matching 1-d grid and sigma arrays, length >= 2")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(sigma))):
            raise ValidationError("driver samples must be finite")
        if grid[0] != 0.0:
            raise ValidationError("driver grid index 0 must be 0")
        if sigma[0] != 0.0:
            raise ValidationError("driver sigma index 0 must be 0: we assume xi(0) = 1, so "
                                  "the driving angle starts at 0")
        bad = np.flatnonzero(np.diff(grid) <= 0.0)
        if bad.size:
            raise ValidationError(f"driver grid is not strictly increasing at index {bad[0] + 1}")
        self.grid = grid
        self.sigma = sigma
        self.T = float(grid[-1])
        # plain lists are faster for the scalar hot path
        self._g = grid.tolist()
        self._s = sigma.tolist()
        self._slope = (np.diff(sigma) / np.diff(grid)).tolist()

    @classmethod
    def from_function(cls, f, T: float, n: int, power: float = 1.0) -> "DrivingTerm":
        """Sample a callable angle path on a (optionally graded) n-cell grid.

        power > 1 concentrates nodes near t = 0, which suits square-root-like
        drivers.  The samples are shifted so that sigma(0) = 0 exactly.
        """
        if T <= 0.0 or n < 1:
            raise ValidationError("need T > 0 and at least one cell")
        t = T * (np.arange(n + 1) / n) ** power
        t[0], t[-1] = 0.0, T
        vals = np.array([float(f(tk)) for tk in t])
        return cls(t, vals - vals[0])

    def sigma_at(self, t: float) -> float:
        """Linear interpolation, clamped to [0, T]."""
        if t <= 0.0:
            return self._s[0]
        if t >= self.T:
            return self._s[-1]
        i = bisect.bisect_right(self._g, t) - 1
        return self._s[i] + self._slope[i] * (t - self._g[i])

    def xi_at(self, t: float) -> complex:
        """The singularity exp(i sigma(t)) of the upward flow."""
        return cmath.exp(1j * self.sigma_at(t))

    def breaks_in(self, t0: float, t1: float):
        """Interior grid kinks of the right-hand side on the interval (t0, t1)."""
        return self._g[bisect.bisect_right(self._g, t0):bisect.bisect_left(self._g, t1)]


@dataclass(frozen=True)
class TraceSample:
    t: float
    tip: complex
    residual: float           # summed embedded error estimates, carried to the tip


# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_E = (  # b5 - b4, for the embedded error estimate
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)

# the tableau entries by name, for the written-out step; the last row of _A
# equals _B, so the seventh stage is evaluated at the fifth-order solution
_C1, _C2, _C3, _C4, _C5, _C6, _C7 = _C
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = _A[1:6]
_B1, _B2, _B3, _B4, _B5, _B6, _B7 = _B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E


def _dp54(f, t0, t1, y0, params: FlowParams, cap=None, stop=None, record=None, h=None,
          steps=0, clock=None):
    """Adaptive DP5(4) from t0 to t1.

    cap(t, y) returns an extra bound on the step; stop(t, y) terminates
    integration when true (hit detection); h is the first trial step, by
    default span/16 and at most 0.1; steps is the count the flow has used of
    params.max_steps; clock(t) is the flow's time, for error messages.
    Returns (t, y, stopped, h, err, steps): h is the step the controller
    proposes next, so a following run can start from it, and err sums the
    embedded error estimates of the accepted steps.

    The step is the tableau written out term by term, left to right with
    its zero coefficients skipped; the seventh stage, taken at the
    fifth-order solution, is the first stage of the next step.
    """
    span = t1 - t0
    if span <= 0.0:
        return t0, y0, False, h, 0.0, steps
    t, y = t0, y0
    # the conditional expressions below pick what min and max would, without
    # a builtin call per step
    atol, rtol, max_steps = params.atol, params.rtol, params.max_steps
    t_last = t1 - 1e-14 * (t1 if t1 > 1.0 else 1.0)
    h_min = 1e-15 * (span if span > 1.0 else 1.0)
    k1 = f(t, y)
    if h is None:
        h = min(span / 16.0, 0.1)
    err_sum = 0.0
    while t < t_last:
        if steps >= max_steps:
            t = t if clock is None else clock(t)
            raise IntegrationError(f"step budget {max_steps} exhausted at t={t:.6g}")
        limit = t1 - t
        h_max = limit
        if cap is not None:
            h_max = min(h_max, cap(t, y))
        if h_max < h_min:
            t = t if clock is None else clock(t)
            raise DiagnosticsError(
                f"step collapsed below {h_min:.3g} at t={t:.6g}; driver too rough")
        if h_max < h:
            h = h_max
        snap = h >= limit - 1e-14 * (limit if limit > 1.0 else 1.0)
        if snap:
            h = limit

        k2 = f(t + _C2 * h, y + (h * _A21) * k1)
        k3 = f(t + _C3 * h, y + (h * _A31) * k1 + (h * _A32) * k2)
        k4 = f(t + _C4 * h, y + (h * _A41) * k1 + (h * _A42) * k2 + (h * _A43) * k3)
        k5 = f(t + _C5 * h, y + (h * _A51) * k1 + (h * _A52) * k2 + (h * _A53) * k3
               + (h * _A54) * k4)
        k6 = f(t + _C6 * h, y + (h * _A61) * k1 + (h * _A62) * k2 + (h * _A63) * k3
               + (h * _A64) * k4 + (h * _A65) * k5)
        y5 = (y + (h * _B1) * k1 + (h * _B3) * k3 + (h * _B4) * k4 + (h * _B5) * k5
              + (h * _B6) * k6)
        k7 = f(t + _C7 * h, y5)
        err = abs(h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7))
        a0, a5 = abs(y), abs(y5)
        tol = atol + rtol * (a5 if a5 > a0 else a0)
        steps += 1
        if err <= tol:
            t = t1 if snap else t + h
            y = y5
            k1 = k7
            err_sum += err
            if record is not None:
                record(t, y)
            if stop is not None and stop(t, y):
                return t, y, True, h, err_sum, steps
            factor = 4.0 if err == 0.0 else 0.9 * (tol / err) ** 0.2
            h = h * (factor if factor < 4.0 else 4.0)
        else:
            h = h * max(0.2, 0.9 * (tol / err) ** 0.2)
    return t, y, False, h, err_sum, steps


def _walk(d: DrivingTerm, start: float, end: float, y, field, params: FlowParams,
          guard=None, record=None):
    """Integrate y from driver time start to end, one _dp54 run per driver cell.

    Time runs forward when end > start and backward otherwise.  On a cell
    entered at a, sigma = sigma_a + rate r with r = |s - a|; field(sigma_a,
    rate) is dy/dr there and guard(sigma_a, rate), if given, the (cap, stop)
    pair.  The step size and the step budget carry across cells.  Returns
    (r, y, stopped) in the flow's time r = |s - start|, as record(r, y) gets
    it.
    """
    forward = end > start
    if forward:
        nodes = [start] + d.breaks_in(start, end) + [end]
        cell, step, side = bisect.bisect_right(d._g, start) - 1, 1, 0
    else:
        nodes = [start] + d.breaks_in(end, start)[::-1] + [end]
        cell, step, side = bisect.bisect_left(d._g, start) - 1, -1, 1
    h, steps = None, 0

    def clock(t):   # the flow's time; r0 is read when called, at the current cell
        return r0 + t

    rec = None if record is None else (lambda t, z: record(r0 + t, z))
    for a, b in zip(nodes, nodes[1:]):
        slope = d._slope[cell]
        # cell + side: the cell's node on the side of a
        sigma = d._s[cell + side] + slope * (a - d._g[cell + side])
        rate = slope if forward else -slope
        cell += step
        r0 = a - start if forward else start - a
        cap, stop = (None, None) if guard is None else guard(sigma, rate)
        t, y, stopped, h, _, steps = _dp54(field(sigma, rate), 0.0, abs(b - a), y, params,
                                           cap, stop, rec, h, steps, clock)
        if stopped:
            return r0 + t, y, True
    return abs(end - start), y, False


def _validate_time(d: DrivingTerm, t: float) -> float:
    if not (0.0 <= t <= d.T + 1e-12):
        raise ValidationError(f"time {t:.6g} outside the driver horizon [0, {d.T:.6g}]")
    return min(t, d.T)


def upward_flow(d: DrivingTerm, z: complex, t: float,
                params: FlowParams = DEFAULT_FLOW_PARAMS) -> complex:
    """g_t(z) for interior z: solves g' = -g (xi + g)/(xi - g), g_0 = z.

    Fixes 0 exactly; g_t'(0) = exp(-t).  Interior trajectories contract toward
    the origin and stay clear of the boundary singularity.
    """
    return _disk_flow(d, z, t, params, up=True)


def downward_flow(d: DrivingTerm, z: complex, t: float,
                  params: FlowParams = DEFAULT_FLOW_PARAMS) -> complex:
    """f_t(z) driven by sigma(T - s): solves f' = f (lam + f)/(lam - f), f_0 = z.

    Fixes 0 exactly; f_t'(0) = exp(t).  Points on the growing slit run into the
    singularity, which raises HitSingularityError.
    """
    return _disk_flow(d, z, t, params, up=False)


def _disk_flow(d: DrivingTerm, z: complex, t: float, params: FlowParams, up: bool):
    """Upward flow forward from driver time 0, or downward flow back from T.

    Both solve g' = -g (xi + g)/(xi - g) in driver time, so the downward field
    flips sign in the flow's time.  Steps are capped by _C_STEP |xi - g|^2; the
    downward flow stops once |xi - g| < _SING_EPS.
    """
    t = _validate_time(d, t)
    if abs(z) >= 1.0:
        raise ValidationError("Loewner flow needs a point strictly inside the disk")
    if z == 0:
        return 0j
    if t == 0.0:
        return complex(z)
    c_step, sing_eps = _C_STEP, _SING_EPS   # read once per flow, not per step

    def field(sigma, rate):
        def rhs(r, y):
            xi = cmath.exp(1j * (sigma + rate * r))
            return (-y if up else y) * (xi + y) / (xi - y)

        return rhs

    def guard(sigma, rate):
        def cap(r, y):
            delta = abs(cmath.exp(1j * (sigma + rate * r)) - y)
            return max(c_step * delta * delta, 1e-14)

        def stop(r, y):
            return abs(cmath.exp(1j * (sigma + rate * r)) - y) < sing_eps

        return cap, (None if up else stop)

    start, end = (0.0, t) if up else (d.T, d.T - t)
    s_end, y, hit = _walk(d, start, end, complex(z), field, params, guard)
    if hit:
        raise HitSingularityError(s_end)
    return y


def boundary_flow(d: DrivingTerm, theta0: float, t_end: float,
                  params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Angle path theta(t) of a boundary point until it hits or reaches t_end.

    Returns (times, angles, hit).  The path runs in the lifted chart
    sigma < theta < sigma + 2pi, and hit is True when it came within _EPS_HIT
    of the singularity; reduce with canonical_angle for circle positions.
    """
    t_end = _validate_time(d, t_end)
    sigma0 = d.sigma_at(0.0)
    u0 = math.fmod(theta0 - sigma0, TWO_PI)
    if u0 < 0.0:
        u0 += TWO_PI
    if u0 < _EPS_HIT or TWO_PI - u0 < _EPS_HIT:
        return np.array([0.0]), np.array([theta0]), True
    c_step, eps_hit = _C_STEP, _EPS_HIT   # read once per flow, not per step

    def field(sigma, rate):
        def rhs(r, th):
            return 1.0 / math.tan(0.5 * (sigma + rate * r - th))

        return rhs

    def guard(sigma, rate):
        def cap(r, th):
            u = th - (sigma + rate * r)
            delta = min(u, TWO_PI - u)
            return max(c_step * delta * delta, 1e-16)

        def stop(r, th):
            u = th - (sigma + rate * r)
            return min(u, TWO_PI - u) <= eps_hit

        return cap, stop

    ts, ths = [0.0], [theta0]

    def rec(s, th):   # every accepted step, the one that hits included
        ts.append(s)
        ths.append(th)

    hit = _walk(d, 0.0, t_end, sigma0 + u0, field, params, guard, rec)[2]
    return np.array(ts), np.array(ths), hit


_NEWTON_MAX = 60        # Newton iterations a cell map may take
_NEWTON_TOL = 1e-14     # a cell map stops at an error bound or bracket below _NEWTON_TOL * max(1, w)
_SERIES_ANGLE = 0.2     # below it the cell map predicts from the inverse series at w = 0


def _cell_time(w, c):
    """(F_c(w), cot(w/2) + c) for the angle flow dw/dr = cot(w/2) + c of a cell.

    F_c(w) = (2/R^2)[c w/2 - ln|cos(w/2) + c sin(w/2)|], R^2 = 1 + c^2, is
    the reversed time the flow takes from 0 to w below the fixed point
    w* = pi + 2 atan c, and an antiderivative of 1 / (cot(w/2) + c) on either
    side of it.  The logarithm's argument is 1 + x with x = sin(w/2) (c -
    tan(w/4)), so the logarithm is log1p(x) below w*, exact near w = 0, and
    log1p(-2 - x) above it; the rate is (1 + x) / sin(w/2).
    """
    half = np.sin(0.5 * w)
    x = half * (c - np.tan(0.25 * w))
    log = np.log1p(np.where(x > -1.0, x, -2.0 - x))
    return (c * w - 2.0 * log) / (1.0 + c * c), (1.0 + x) / half


def _cell_map(w, dt, c):
    """Angles w after reversed time dt on a cell of slope c: F_c^-1(F_c(w) + dt).

    w is a (2, k) array and c a (2, 1) column.  Each w moves monotonically
    toward the fixed point w* and never reaches it, so the root lies in
    [w, w*) or (w*, w].  Newton starts from a third-order predictor: below
    _SERIES_ANGLE, births included, the inverse series
    w = 2 sqrt(r) + (2c/3) r + (c^2/18 - 1/6) r^(3/2) at r = F_c(w) + dt;
    above it a Taylor step of dw/dr = v = cot(w/2) + c, with v' = -(1 + u^2)/2
    and v'' = u (1 + u^2)/2 for u = cot(w/2) = v - c.  F_c is convex on each
    side of w*, so Newton then moves monotonically toward the root inside the
    bracket.  It stops once the step, or Newton's quadratic estimate
    e = -v' step^2 / (2v) of the error left after it, is below tolerance,
    and subtracts e where it used the estimate, which brings the result to
    rounding at no extra evaluation.  Only after an iterate leaves the
    bracket does the loop narrow the bracket as it goes: an iterate on a
    bracket end is kept, one outside is replaced by the point halfway between
    the ends in log distance to w*, which reaches a root exponentially close
    to w* in a few steps.
    """
    c = c.repeat(w.shape[1], axis=1)   # full columns: broadcasting costs more per call
    wstar = 2.0 * np.arctan2(1.0, -c)   # pi + 2 atan c, without cancellation at c << -1
    time, rate = _cell_time(w, c)
    target = time + dt

    small = w < _SERIES_ANGLE
    some = small.any()
    if some:
        root = np.sqrt(target)
        x = root * (2.0 + root * ((2.0 / 3.0) * c + root * ((c * c - 3.0) / 18.0)))
    if not small.all():
        u = rate - c
        a = 1.0 + u * u   # -2 v'
        taylor = w + dt * rate * (1.0 - 0.25 * dt * a * (1.0 - dt / 6.0 * (a + 2.0 * u * rate)))
        x = np.where(small, x, taylor) if some else taylor

    def leaves(x):   # some x lies outside [w, w*] or [w*, w]
        return not ((x - w) * (wstar - x) >= 0.0).all()

    def bracket():   # (side, lo, hi) of [w, w*) or (w*, w]
        side = np.where(w > wstar, 1.0, -1.0)
        return (side, np.where(side > 0.0, np.nextafter(wstar, math.inf), w),
                np.where(side > 0.0, w, np.nextafter(wstar, -math.inf)))

    def inside(x):   # x, or where it left the bracket the midpoint in log distance to w*
        out = ~((x >= lo) & (x <= hi))
        if not out.any():
            return x
        return np.where(out, wstar + side * np.sqrt((lo - wstar) * (hi - wstar)), x)

    guarded = leaves(x)
    if guarded:
        side, lo, hi = bracket()
        x = inside(x)
    for _ in range(_NEWTON_MAX):
        time, rate = _cell_time(x, c)
        step = (target - time) * rate
        after = x + step
        if not guarded and leaves(after):
            guarded = True
            side, lo, hi = bracket()
        if guarded:
            lo = np.where(step > 0.0, x, lo)
            hi = np.where(step < 0.0, x, hi)
            after = inside(after)
        x = after
        # Newton's error bound or the step is below tolerance, or the bracket
        # is (a root exponentially close to w* may lie beyond the last float
        # before it)
        tol = _NEWTON_TOL * np.maximum(1.0, x)
        u = rate - c
        err = step * step * (1.0 + u * u) / (4.0 * rate)   # x - root ~ -v' step^2 / (2v)
        quad = np.abs(err) <= tol
        done = quad | (np.abs(step) <= tol)
        if done.all() or (guarded and (done | (hi - lo <= tol)).all()):
            return np.where(quad, x - err, x)
    raise DiagnosticsError(f"angle cell map did not converge in {_NEWTON_MAX} Newton steps")


def _absorbed_angles(d: DrivingTerm, times) -> np.ndarray:
    """Start angles absorbed at the increasing times: rows plus side, minus side.

    Sweeps the driver cells from the top down.  On a cell, every angle
    absorbed above its lower node moves by the exact cell map in the chart
    w = |theta - sigma|, with c = sign * dsigma/ds; an angle absorbed inside
    the cell starts there at w = 0.  At s = 0, sigma = 0, so theta = sign * w.
    """
    times = np.asarray(times, dtype=float)
    slope = np.asarray(d._slope)
    c = np.stack([slope, -slope])
    first = np.searchsorted(times, d.grid[:-1], side="right")   # first time above each node
    w = np.zeros((2, times.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(int(np.searchsorted(d.grid, times[-1])) - 1, -1, -1):
            k = first[i]
            dt = np.minimum(times[k:], d.grid[i + 1]) - d.grid[i]
            w[:, k:] = _cell_map(w[:, k:], dt, c[:, i:i + 1])
    if not np.all(np.isfinite(w)):
        raise DiagnosticsError("the angle sweep produced a non-finite angle")
    w[1] = -w[1]
    return w


def slit_preimage_endpoints(d: DrivingTerm):
    """Endpoints (alpha_minus, alpha_plus) of the slit preimage arc.

    They are the two start angles absorbed at the horizon T, from one sweep
    of the exact cell maps down from the singularity at T.
    """
    ap, am = _absorbed_angles(d, [d.T])[:, 0].tolist()
    return CirclePoint(am), CirclePoint(ap)


def _tip_field(slope: float):
    """Upward flow from the singularity, in the chart q = (1 - g / xi(s))^2.

    With p = sqrt(q) = 1 - g / xi(s), dq/ds = 2 (1 - p) (2 - p + i slope p),
    finite at q = 0.  The flow stays inside the disk, so Re p > 0 and the
    principal square root is the right branch; the chart turns with xi(s), so
    the field depends on the cell's slope alone.
    """
    def rhs(r, q):
        p = cmath.sqrt(q)
        return 2.0 * (1.0 - p) * (2.0 - p + 1j * slope * p)

    return rhs


def _trace_samples(d: DrivingTerm, times, params: FlowParams):
    """Trace samples at the given times in (0, T], in their order.

    The tip at t is the upward flow from the singularity at s = T - t to T.
    Its birth cell, from s to the cell's upper node, runs in rho = sqrt(r)
    with r the time since s, where the flow is smooth, and every tip born in
    one cell follows the same q(rho) there: one _dp54 run per birth cell
    snaps to each tip's rho in increasing order.  A tip is charged the steps
    of that run up to its own rho, less the one step that snapped to each
    earlier tip, so a crowded cell does not exhaust the budget of a tip whose
    own flow needs few steps.  Each tip then continues alone through the
    later cells, from the run's step size and its charge.
    """
    g, n = d._g, len(d._slope)
    births = {}
    for j, t in enumerate(times):
        s = d.T - t
        cell = bisect.bisect_right(g, s) - 1
        births.setdefault(cell, []).append((g[cell + 1] - s, j, s))
    xi_end = d.xi_at(d.T)
    out = [None] * len(times)
    for cell, tips in births.items():
        birth = _tip_field(d._slope[cell])

        def f(x, z):   # r = rho^2, so dq/drho = 2 rho dq/dr
            return 2.0 * x * birth(x * x, z)

        rho, q, h, err, steps = 0.0, 0.0, None, 0.0, 0
        for span, j, s in sorted(tips):
            target = math.sqrt(span)
            if target > rho:
                if rho > 0.0:
                    steps -= 1   # the step that snapped to the previous tip was its own
                _, q, _, h, e, steps = _dp54(f, rho, target, q, params, h=h, steps=steps,
                                             clock=lambda x: x * x)
                err += e
                rho = target
            q_tip, h_tip, err_tip, steps_tip = q, h * (2.0 * rho), err, steps
            for k in range(cell + 1, n):
                r0 = g[k] - s
                _, q_tip, _, h_tip, e, steps_tip = _dp54(
                    _tip_field(d._slope[k]), 0.0, g[k + 1] - g[k], q_tip, params, h=h_tip,
                    steps=steps_tip, clock=lambda x: r0 + x)
                err_tip += e
            p = cmath.sqrt(q_tip)
            out[j] = TraceSample(times[j], xi_end * (1.0 - p), err_tip / (2.0 * abs(p)))
    for sample in out:
        if sample.residual > _TRACE_RESIDUAL_TOL:
            raise TraceError(sample.residual)
    return out


def trace_point(d: DrivingTerm, t: float,
                params: FlowParams = DEFAULT_FLOW_PARAMS) -> TraceSample:
    """Trace tip gamma(t): the upward flow from the singularity at T - t to T.

    The flow runs in the rotating chart q = (1 - g / xi(s))^2, which is smooth
    at its start, and the tip is xi(T) (1 - sqrt(q(T))).  The residual is the
    summed embedded error estimate carried to the tip, |dq| / (2 |sqrt(q)|):
    an estimate of the tip's error, not a bound on it.
    """
    if not 0.0 < t <= d.T:
        raise ValidationError("trace time must lie in (0, T]")
    return _trace_samples(d, [t], params)[0]


def trace_curve(d: DrivingTerm, count: int,
                params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Trace samples at count times uniform in (0, T], as trace_point gives them.

    Tips born in one driver cell share their run in that cell.
    """
    if count < 1:
        raise ValidationError("need at least one trace sample")
    return _trace_samples(d, [d.T * k / count for k in range(1, count + 1)], params)
