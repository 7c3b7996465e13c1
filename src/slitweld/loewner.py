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
cap the step by c_step * Delta^2, where Delta is the distance to the current
singularity, and boundary trajectories terminate when they come within
eps_hit of the driver angle.

Flows born at the singularity need no cap: the angles absorbed at a given
time run backward from it in the chart v = (theta - sigma)^2, the trace tips
run upward from it in the chart q = (1 - g / xi)^2, and both are smooth
there once the birth cell runs in the time chart r = rho^2.
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
    "HittingProfile",
    "TraceSample",
    "upward_flow",
    "downward_flow",
    "boundary_flow",
    "hitting_time",
    "slit_preimage_endpoints",
    "hitting_profile",
    "trace_point",
    "trace_curve",
]


@dataclass(frozen=True)
class FlowParams:
    """Integrator controls shared by every flow."""

    rtol: float = 1e-10
    atol: float = 1e-12
    c_step: float = 0.1          # step cap dt <= c_step * Delta^2
    eps_hit: float = 1e-6        # boundary hit threshold, radians
    max_steps: int = 4096        # per-flow step budget
    sing_eps: float = 1e-9       # downward-flow abort distance to the singularity


DEFAULT_FLOW_PARAMS = FlowParams()

# tighter error control for derivative and round-trip checks
PRECISE_FLOW_PARAMS = FlowParams(rtol=1e-12, atol=1e-14, max_steps=100000)


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
class HittingProfile:
    """Sampled hitting times along one side of the slit preimage arc."""

    side: str                 # "plus" or "minus"
    angles: np.ndarray        # starting angles, signed, strictly away from 0
    times: np.ndarray         # hitting times tau(angle)


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
          guard=None, record=None, born=False):
    """Integrate y from driver time start to end, one _dp54 run per driver cell.

    Time runs forward when end > start and backward otherwise.  On a cell
    entered at a, sigma = sigma_a + rate r with r = |s - a|; field(sigma_a,
    rate) is dy/dr there and guard(sigma_a, rate), if given, the (cap, stop)
    pair.  The step size and the step budget carry across cells.  A born
    flow starts at the singularity and grows like 2 sqrt(r), so its first
    cell runs in rho = sqrt(r), where it is smooth.  Returns (r, y, stopped,
    err) in the flow's time r = |s - start|, as record(r, y) gets it; err
    sums the embedded error estimates of all steps.
    """
    forward = end > start
    if forward:
        nodes = [start] + d.breaks_in(start, end) + [end]
        cell, step, side = bisect.bisect_right(d._g, start) - 1, 1, 0
    else:
        nodes = [start] + d.breaks_in(end, start)[::-1] + [end]
        cell, step, side = bisect.bisect_left(d._g, start) - 1, -1, 1
    h, err, steps = None, 0.0, 0

    def clock(t):   # the flow's time; r0 is read when called, at the current cell
        return r0 + t

    rec = None if record is None else (lambda t, z: record(r0 + t, z))
    for a, b in zip(nodes, nodes[1:]):
        slope = d._slope[cell]
        # born charts move with sigma, so skip it; cell + side: node on the side of a
        sigma = 0.0 if born else d._s[cell + side] + slope * (a - d._g[cell + side])
        rate = slope if forward else -slope
        rhs = field(sigma, rate)
        cell += step
        span = abs(b - a)
        if born and a == start:   # r = rho^2, so dy/drho = 2 rho dy/dr
            rho = math.sqrt(span)
            _, y, _, h, e, steps = _dp54(lambda x, z: 2.0 * x * rhs(x * x, z), 0.0, rho, y,
                                         params, steps=steps, clock=lambda x: x * x)
            h *= 2.0 * rho   # the next rho step, as a step in r
        else:
            r0 = a - start if forward else start - a
            cap, stop = (None, None) if guard is None else guard(sigma, rate)
            t, y, stopped, h, e, steps = _dp54(rhs, 0.0, span, y, params, cap, stop, rec, h,
                                               steps, clock)
            if stopped:
                return r0 + t, y, True, err + e
        err += e
    return abs(end - start), y, False, err


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
    flips sign in the flow's time.  Steps are capped by c_step |xi - g|^2; the
    downward flow stops once |xi - g| < sing_eps.
    """
    t = _validate_time(d, t)
    if abs(z) >= 1.0:
        raise ValidationError("Loewner flow needs a point strictly inside the disk")
    if z == 0:
        return 0j
    if t == 0.0:
        return complex(z)
    c_step, sing_eps = params.c_step, params.sing_eps

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
    s_end, y, hit, _ = _walk(d, start, end, complex(z), field, params, guard)
    if hit:
        raise HitSingularityError(s_end)
    return y


def _boundary_run(d: DrivingTerm, theta0: float, t_end: float, params: FlowParams,
                  record=None):
    """Integrate one boundary angle in the lifted chart sigma < theta < sigma + 2pi.

    Returns (hit, t, theta) where hit is True when the trajectory came within
    eps_hit of the singularity.
    """
    sigma0 = d.sigma_at(0.0)
    u0 = math.fmod(theta0 - sigma0, TWO_PI)
    if u0 < 0.0:
        u0 += TWO_PI
    if u0 < params.eps_hit or TWO_PI - u0 < params.eps_hit:
        return True, 0.0, theta0
    c_step, eps_hit = params.c_step, params.eps_hit

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

    t, th, hit, _ = _walk(d, 0.0, t_end, sigma0 + u0, field, params, guard, record)
    return hit, t, th


def boundary_flow(d: DrivingTerm, theta0: float, t_end: float | None = None,
                  params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Angle path theta(t) of a boundary point until it hits or reaches t_end.

    Returns (times, angles, hit).  The path is reported in the lifted chart;
    reduce with canonical_angle for circle positions.
    """
    t_end = _validate_time(d, d.T if t_end is None else t_end)
    ts = [0.0]
    ths = [theta0]

    def rec(s, th):
        ts.append(s)
        ths.append(th)

    hit, t, th = _boundary_run(d, theta0, t_end, params, record=rec)
    if hit and ts[-1] != t:
        ts.append(t)
        ths.append(th)
    return np.array(ts), np.array(ths), hit


def hitting_time(d: DrivingTerm, theta0: float,
                 params: FlowParams = DEFAULT_FLOW_PARAMS):
    """(tau, side) for a boundary start angle, or None if it survives to T.

    side is "plus" when the trajectory reaches the singularity from the
    counterclockwise side (preimage of the slit's plus side), else "minus".
    """
    hit, t, th = _boundary_run(d, theta0, d.T, params)
    if not hit:
        return None
    u = math.fmod(th - d.sigma_at(t), TWO_PI)
    if u < 0.0:
        u += TWO_PI
    side = "plus" if u <= math.pi else "minus"
    return t, side


def _angle_field(sigma: float, rate: float):
    """Angle flow in reversed time r, in the chart v = (theta - sigma)^2.

    dv/dr = 2 w cot(w/2) - 2 w rate with w = sqrt(v) and rate = dsigma/dr,
    finite at v = 0 because w cot(w/2) -> 2; rate carries the side's sign.
    The chart moves with sigma, so the field does not depend on it.
    """
    def rhs(r, v):
        if v <= 0.0:
            return 4.0
        w = math.sqrt(v)
        return 2.0 * w * (1.0 / math.tan(0.5 * w) - rate)

    return rhs


def _tip_field(sigma: float, slope: float):
    """Upward flow from the singularity, in the chart q = (1 - g / xi(s))^2.

    With p = sqrt(q) = 1 - g / xi(s), dq/ds = 2 (1 - p) (2 - p + i slope p),
    finite at q = 0.  The flow stays inside the disk, so Re p > 0 and the
    principal square root is the right branch; the chart turns with xi(s).
    """
    def rhs(r, q):
        p = cmath.sqrt(q)
        return 2.0 * (1.0 - p) * (2.0 - p + 1j * slope * p)

    return rhs


def _absorbed_angle(d: DrivingTerm, t: float, sign: float, params: FlowParams) -> float:
    """Start angle absorbed at time t, on the plus side (sign 1) or minus side (-1).

    Integrates the angle flow backward from the singularity at time t down to
    s = 0, in the chart v = u^2 of u = theta - sigma.  Returns sign * sqrt(v)
    at s = 0, where sigma(0) = 0.
    """
    v = _walk(d, t, 0.0, 0.0, lambda sigma, rate: _angle_field(sigma, sign * rate), params,
              born=True)[1]
    return sign * math.sqrt(v)


def slit_preimage_endpoints(d: DrivingTerm,
                            params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Endpoints (alpha_minus, alpha_plus) of the slit preimage arc.

    They are the two start angles absorbed at the horizon T, each found by one
    backward flow from the singularity at T.
    """
    return (CirclePoint(_absorbed_angle(d, d.T, -1.0, params)),
            CirclePoint(_absorbed_angle(d, d.T, 1.0, params)))


def hitting_profile(d: DrivingTerm, n: int = 32,
                    params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Sampled hitting-time profiles (plus side, minus side).

    The times are k T / n for k = 1 .. n and each angle is the start angle
    absorbed at that time, so the last one is the arc endpoint; strict
    monotonicity of the angles is enforced.
    """
    if n < 2:
        raise ValidationError("need at least 2 profile samples")
    times = d.T * (np.arange(1, n + 1) / n)
    profiles = []
    for side, sign in (("plus", 1.0), ("minus", -1.0)):
        angles = np.array([_absorbed_angle(d, float(t), sign, params) for t in times])
        if np.any(np.diff(sign * angles) <= 0.0):
            raise DiagnosticsError(f"hitting angles not strictly monotone on the {side} side")
        profiles.append(HittingProfile(side, angles, times))
    return tuple(profiles)


def trace_point(d: DrivingTerm, t: float,
                params: FlowParams = DEFAULT_FLOW_PARAMS,
                residual_tol: float = 1e-3) -> TraceSample:
    """Trace tip gamma(t): the upward flow from the singularity at T - t to T.

    The flow runs in the rotating chart q = (1 - g / xi(s))^2, which is smooth
    at its start, and the tip is xi(T) (1 - sqrt(q(T))).  The residual is the
    summed embedded error estimate carried to the tip, |dq| / (2 |sqrt(q)|).
    """
    if not 0.0 < t <= d.T:
        raise ValidationError("trace time must lie in (0, T]")
    _, q, _, err = _walk(d, d.T - t, d.T, 0.0, _tip_field, params, born=True)
    p = cmath.sqrt(q)
    residual = err / (2.0 * abs(p))
    if residual > residual_tol:
        raise TraceError(residual)
    return TraceSample(t, d.xi_at(d.T) * (1.0 - p), residual)


def trace_curve(d: DrivingTerm, count: int,
                params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Trace samples at count times uniform in (0, T]."""
    if count < 1:
        raise ValidationError("need at least one trace sample")
    return [trace_point(d, d.T * k / count, params) for k in range(1, count + 1)]
