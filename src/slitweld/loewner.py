"""Radial Loewner flows for growing slits in the unit disk.

The driving term is a continuous angle path sigma on [0, T] with sigma(0) = 0,
ingested as piecewise-linear samples.  The upward flow moves interior points of
the disk toward 0 and boundary points toward the singularity exp(i sigma(t));
the downward flow is its horizon-T companion driven by sigma(T - s).  At the
horizon the two flows are inverse to each other, which is the only time this
holds.

All flows use one adaptive Dormand-Prince 5(4) stepper.  Besides the usual
error control the step size is capped by c_step * Delta^2 where Delta is the
distance to the current singularity, steps land exactly on the driver grid
nodes (the right-hand side has kinks there), and boundary trajectories
terminate when they come within eps_hit of the driver angle.

Flows born at the singularity need no cap: the angles absorbed at a given
time run backward from it in the chart v = (theta - sigma)^2, the trace tips
run upward from it in the chart q = (1 - g / xi)^2, and both are smooth
there.  One helper integrates either across the driver cells, in the time
chart r = rho^2 on the birth cell, carrying the step size from cell to cell.
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
            raise ValidationError("driver grid must start at 0")
        if sigma[0] != 0.0:
            raise ValidationError("driver must satisfy sigma(0) = 0")
        if np.any(np.diff(grid) <= 0.0):
            raise ValidationError("driver grid must be strictly increasing")
        if grid[-1] <= 0.0:
            raise ValidationError("driver horizon T must be positive")
        self.grid = grid
        self.sigma = sigma
        self.T = float(grid[-1])
        # plain lists are faster for the scalar hot path
        self._g = grid.tolist()
        self._s = sigma.tolist()
        self._slope = (np.diff(sigma) / np.diff(grid)).tolist()

    @classmethod
    def constant(cls, T: float) -> "DrivingTerm":
        """The zero driver: singularity fixed at angle 0, radial slit."""
        if not (isinstance(T, (int, float)) and math.isfinite(T) and T > 0.0):
            raise ValidationError("horizon T must be a positive finite number")
        return cls([0.0, float(T)], [0.0, 0.0])

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

    def sigma_at_array(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid, self.sigma)

    def xi_at(self, t: float) -> complex:
        """The singularity exp(i sigma(t)) of the upward flow."""
        return cmath.exp(1j * self.sigma_at(t))

    def lambda_at(self, s: float) -> complex:
        """Downward driving value exp(i sigma(T - s))."""
        return cmath.exp(1j * self.sigma_at(self.T - s))

    def breaks_in(self, t0: float, t1: float, reversed_time: bool = False):
        """Interior grid kinks of the right-hand side on the interval (t0, t1).

        With reversed_time the lookup argument is T - s, so the kinks sit at
        s = T - grid node.
        """
        if reversed_time:
            pts = [self.T - g for g in reversed(self._g)]
        else:
            pts = self._g
        return [p for p in pts if t0 < p < t1]


@dataclass(frozen=True)
class HittingProfile:
    """Sampled hitting times along one side of the slit preimage arc."""

    side: str                 # "plus" or "minus"
    angles: np.ndarray        # starting angles, signed, strictly away from 0
    times: np.ndarray         # hitting times tau(angle)
    alpha: float              # endpoint estimate of the preimage arc on this side


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
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_E = (  # b5 - b4, for the embedded error estimate
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def _dp54(f, t0, t1, y0, params: FlowParams, cap=None, breaks=None, stop=None,
          record=None, h=None):
    """Adaptive DP5(4) from t0 to t1.

    cap(t, y) returns an extra bound on the step; breaks is a sorted list of
    times the stepper must land on exactly; stop(t, y) terminates integration
    when true (hit detection); h is the first trial step, by default span/16
    and at most 0.1.  Returns (t, y, stopped, h, err): h is the step the
    controller proposes next, so a following run can start from it, and err
    sums the embedded error estimates of the accepted steps.
    """
    span = t1 - t0
    if span <= 0.0:
        return t0, y0, False, h, 0.0
    t, y = t0, y0
    brk = list(breaks) if breaks else []
    ib = 0
    h_min = 1e-15 * max(1.0, abs(span))
    k1 = f(t, y)
    if h is None:
        h = min(span / 16.0, 0.1)
    err_sum = 0.0
    if cap is not None:
        h = min(h, cap(t, y))
    nsteps = 0
    while t < t1 - 1e-14 * max(1.0, t1):
        if nsteps >= params.max_steps:
            raise IntegrationError(f"step budget {params.max_steps} exhausted at t={t:.6g}")
        while ib < len(brk) and brk[ib] <= t + 1e-14 * max(1.0, abs(t)):
            ib += 1
        limit = brk[ib] - t if ib < len(brk) else t1 - t
        h_max = limit
        if cap is not None:
            h_max = min(h_max, cap(t, y))
        if h_max < h_min:
            raise DiagnosticsError(
                f"step collapsed below {h_min:.3g} at t={t:.6g}; driver too rough")
        h = min(h, h_max)
        snap = h >= limit - 1e-14 * max(1.0, limit)
        if snap:
            h = limit

        k = [k1, None, None, None, None, None, None]
        for i in range(1, 7):
            yi = y
            a = _A[i]
            for j in range(i):
                if a[j] != 0.0:
                    yi = yi + (h * a[j]) * k[j]
            k[i] = f(t + _C[i] * h, yi)
        y5 = y
        for j in range(7):
            if _B5[j] != 0.0:
                y5 = y5 + (h * _B5[j]) * k[j]
        err = 0.0
        for j in range(7):
            if _E[j] != 0.0:
                err += _E[j] * k[j]
        err = abs(h * err)
        tol = params.atol + params.rtol * max(abs(y), abs(y5))
        nsteps += 1
        if err <= tol:
            t = brk[ib] if (snap and ib < len(brk)) else (t1 if snap else t + h)
            y = y5
            k1 = k[6]  # FSAL
            err_sum += err
            if record is not None:
                record(t, y)
            if stop is not None and stop(t, y):
                return t, y, True, h, err_sum
            factor = 4.0 if err == 0.0 else min(4.0, 0.9 * (tol / err) ** 0.2)
            h = h * factor
        else:
            h = h * max(0.2, 0.9 * (tol / err) ** 0.2)
            k1 = k[0]
    return t, y, False, h, err_sum


def _validate_time(d: DrivingTerm, t: float):
    if not (0.0 <= t <= d.T + 1e-12):
        raise ValidationError(f"time {t:.6g} outside the driver horizon [0, {d.T:.6g}]")


def upward_flow(d: DrivingTerm, z: complex, t: float,
                params: FlowParams = DEFAULT_FLOW_PARAMS) -> complex:
    """g_t(z) for interior z: solves g' = -g (xi + g)/(xi - g), g_0 = z.

    Fixes 0 exactly; g_t'(0) = exp(-t).  Interior trajectories contract toward
    the origin and stay clear of the boundary singularity.
    """
    _validate_time(d, t)
    if abs(z) >= 1.0:
        raise ValidationError("upward flow needs a point strictly inside the disk")
    if z == 0:
        return 0j
    if t == 0.0:
        return complex(z)

    def rhs(s, y):
        xi = d.xi_at(s)
        return -y * (xi + y) / (xi - y)

    def cap(s, y):
        delta = abs(d.xi_at(s) - y)
        return max(params.c_step * delta * delta, 1e-14)

    return _dp54(rhs, 0.0, t, complex(z), params, cap=cap,
                 breaks=d.breaks_in(0.0, t))[1]


def downward_flow(d: DrivingTerm, z: complex, t: float,
                  params: FlowParams = DEFAULT_FLOW_PARAMS) -> complex:
    """f_t(z) driven by sigma(T - s): solves f' = f (lam + f)/(lam - f), f_0 = z.

    Fixes 0 exactly; f_t'(0) = exp(t).  Points on the growing slit run into the
    singularity, which raises HitSingularityError.
    """
    _validate_time(d, t)
    if abs(z) >= 1.0:
        raise ValidationError("downward flow needs a point strictly inside the disk")
    if z == 0:
        return 0j
    if t == 0.0:
        return complex(z)

    def rhs(s, y):
        lam = d.lambda_at(s)
        return y * (lam + y) / (lam - y)

    def cap(s, y):
        delta = abs(d.lambda_at(s) - y)
        return max(params.c_step * delta * delta, 1e-14)

    def stop(s, y):
        return abs(d.lambda_at(s) - y) < params.sing_eps

    s_end, y, hit = _dp54(rhs, 0.0, t, complex(z), params, cap=cap,
                          breaks=d.breaks_in(0.0, t, reversed_time=True), stop=stop)[:3]
    if hit:
        raise HitSingularityError(s_end)
    return y


def _boundary_rhs(d: DrivingTerm):
    sigma_at = d.sigma_at

    def rhs(s, th):
        return 1.0 / math.tan(0.5 * (sigma_at(s) - th))

    return rhs


def _boundary_run(d: DrivingTerm, theta0: float, t_end: float, params: FlowParams,
                  record=None):
    """Integrate one boundary angle in the lifted chart sigma < theta < sigma + 2pi.

    Returns (hit, t, theta) where hit is True when the trajectory came within
    eps_hit of the singularity.
    """
    u0 = math.fmod(theta0 - d.sigma_at(0.0), TWO_PI)
    if u0 < 0.0:
        u0 += TWO_PI
    if u0 < params.eps_hit or TWO_PI - u0 < params.eps_hit:
        return True, 0.0, theta0
    th0 = d.sigma_at(0.0) + u0
    rhs = _boundary_rhs(d)
    sigma_at = d.sigma_at

    def gap(s, th):
        u = th - sigma_at(s)
        return min(u, TWO_PI - u)

    def cap(s, th):
        delta = gap(s, th)
        return max(params.c_step * delta * delta, 1e-16)

    def stop(s, th):
        return gap(s, th) <= params.eps_hit

    t, th, hit = _dp54(rhs, 0.0, t_end, th0, params, cap=cap,
                       breaks=d.breaks_in(0.0, t_end), stop=stop, record=record)[:3]
    return hit, t, th


def boundary_flow(d: DrivingTerm, theta0: float, t_end: float | None = None,
                  params: FlowParams = DEFAULT_FLOW_PARAMS):
    """Angle path theta(t) of a boundary point until it hits or reaches t_end.

    Returns (times, angles, hit).  The path is reported in the lifted chart;
    reduce with canonical_angle for circle positions.
    """
    if t_end is None:
        t_end = d.T
    _validate_time(d, t_end)
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


def _born_flow(d: DrivingTerm, birth: float, end: float, field, params: FlowParams):
    """Integrate a chart y from y = 0 at the singularity at time birth to time end.

    field(slope) is the right-hand side dy/dr, with r = |s - birth|, on a
    driver cell where sigma has that slope; it must be finite at y = 0.
    Time runs forward when end > birth and backward otherwise; either way
    each driver cell is one _dp54 run, which starts from the step size the
    previous cell ended with.  Every flow born at the singularity grows like
    2 sqrt(r), so the birth cell runs in rho = sqrt(r), where it is smooth.
    Returns (y, err), err summing the embedded error estimates of all steps.
    """
    if end > birth:
        nodes = [birth] + d.breaks_in(birth, end) + [end]
    else:
        nodes = [birth] + d.breaks_in(end, birth)[::-1] + [end]
    y, h, err = 0.0, None, 0.0
    for a, b in zip(nodes, nodes[1:]):
        rhs = field(d._slope[bisect.bisect_right(d._g, 0.5 * (a + b)) - 1])
        span = abs(b - a)
        if a == birth:   # r = rho^2, so dy/drho = 2 rho dy/dr
            rho = math.sqrt(span)
            _, y, _, h, e = _dp54(lambda x, z: 2.0 * x * rhs(x * x, z), 0.0, rho, y, params)
            h *= 2.0 * rho   # the next rho step, as a step in r
        else:
            _, y, _, h, e = _dp54(rhs, 0.0, span, y, params, h=h)
        err += e
    return y, err


def _angle_field(slope: float):
    """Angle flow in reversed time, in the chart v = (theta - sigma)^2.

    dv/dr = 2 w cot(w/2) + 2 w slope with w = sqrt(v), finite at v = 0
    because w cot(w/2) -> 2; slope carries the side's sign.
    """
    def rhs(r, v):
        if v <= 0.0:
            return 4.0
        w = math.sqrt(v)
        return 2.0 * w * (1.0 / math.tan(0.5 * w) + slope)

    return rhs


def _tip_field(slope: float):
    """Upward flow from the singularity, in the chart q = (1 - g / xi(s))^2.

    With p = sqrt(q) = 1 - g / xi(s), dq/ds = 2 (1 - p) (2 - p + i slope p),
    finite at q = 0.  The flow stays inside the disk, so Re p > 0 and the
    principal square root is the right branch.
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
    v, _ = _born_flow(d, t, 0.0, lambda slope: _angle_field(sign * slope), params)
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
        profiles.append(HittingProfile(side, angles, times, float(angles[-1])))
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
    q, err = _born_flow(d, d.T - t, d.T, _tip_field, params)
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
