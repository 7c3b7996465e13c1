"""Radial Loewner flows for growing slits in the unit disk.

The driving term is a continuous angle path sigma on [0, T] with sigma(0) = 0,
ingested as piecewise-linear samples.  The upward flow moves interior points of
the disk toward 0 and boundary points toward the singularity exp(i sigma(t));
the downward flow is its horizon-T companion driven by sigma(T - s).  At the
horizon the two flows are inverse to each other, which is the only time this
holds.

The interior and boundary flows walk the driver cells between their start
and end time, one adaptive Dormand-Prince 5(4) run per cell: sigma is linear
on a cell, so the right-hand side is smooth there and the run reads sigma
from the cell's node value and slope.  The step size and the per-flow step
budget carry from cell to cell.  Besides the usual error control, these
flows cap the step by _C_STEP * Delta^2, where Delta is the distance to the
current singularity, and boundary trajectories terminate when they come
within _EPS_HIT of the driver angle.

Flows born at the singularity are autonomous on a cell once they move with
sigma, and both kinds use that.  The angle absorbed at time t runs backward
from the singularity in the chart w = |theta - sigma|, where a cell of slope
c gives dw/dr = cot(w/2) + c in reversed time r.  That separates: with
F_c(w) = (2/R^2)[c w/2 - ln|cos(w/2) + c sin(w/2)|], R^2 = 1 + c^2, a cell
of length Delta maps w to F_c^-1(F_c(w) + Delta), the exact linear-driver
solution of Kager, Nienhuis and Kadanoff (J. Stat. Phys. 2004) taken cell by
cell.  So the angles of every absorption time, on both sides, are swept from
the top cell down as one array, one Newton solve per cell.  The trace tips
run upward from the singularity, where p = 1 - g / xi(s) is 0 and a cell of
slope c gives dp/ds = (1 - p)(2 - (1 - ic) p) / p.  That separates as well,
so the tips of every time are swept from the bottom cell up as one array,
again one Newton solve per cell, in the unwrapped chart L = ln(1 - p).
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
_TRACE_RESIDUAL_TOL = 1e-3   # a trace tip raises TraceError above this residual


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
        with np.errstate(over="ignore"):
            rise = np.diff(sigma)
            slope = rise / np.diff(grid)
        for what, v in (("increment", rise), ("slope", slope)):
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise ValidationError(f"driver sigma {what} on cell {bad[0]} is not finite")
        self.grid = grid
        self.sigma = sigma
        self.T = float(grid[-1])
        # plain lists are faster for the scalar hot path
        self._g = grid.tolist()
        self._s = sigma.tolist()
        self._slope = slope.tolist()

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

    def breaks_in(self, t0: float, t1: float):
        """Interior grid kinks of the right-hand side on the interval (t0, t1)."""
        return self._g[bisect.bisect_right(self._g, t0):bisect.bisect_left(self._g, t1)]


@dataclass(frozen=True)
class TraceSample:
    t: float
    tip: complex
    residual: float           # Newton error bounds and rounding, carried to the tip


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


def _dp54(f, span, y, params: FlowParams, cap, stop, h, steps, clock):
    """Adaptive DP5(4) over the flow time [0, span].

    cap(t, y) bounds the step; stop(t, y), if given, terminates integration
    when true (hit detection); h is the first trial step, None for span/16
    and at most 0.1; steps is the count the flow has used of
    params.max_steps; clock(t) is the flow's time, for error messages.
    Returns (t, y, stopped, h, steps): h is the step the controller proposes
    next, so a following run can start from it.

    Every sum skips the tableau's zero coefficients.  The last row of _A equals
    _B, so the seventh stage is evaluated at the fifth-order solution and is
    the first stage of the next step.
    """
    t = 0.0
    t_last = span - 1e-14 * max(1.0, span)
    h_min = 1e-15 * max(1.0, span)
    k1 = f(t, y)
    if h is None:
        h = min(span / 16.0, 0.1)
    while t < t_last:
        if steps >= params.max_steps:
            raise IntegrationError(f"step budget {params.max_steps} exhausted at t={clock(t):.6g}")
        limit = span - t
        h_max = min(limit, cap(t, y))
        if h_max < h_min:
            raise DiagnosticsError(
                f"step collapsed below {h_min:.3g} at t={clock(t):.6g}; driver too rough")
        h = min(h, h_max)
        snap = h >= limit - 1e-14 * max(1.0, limit)
        if snap:
            h = limit

        k = [k1]
        for c, row in zip(_C[1:], _A[1:]):
            y5 = y
            for a, kj in zip(row, k):
                if a:
                    y5 = y5 + (h * a) * kj
            k.append(f(t + c * h, y5))
        err = abs(h * sum(e * kj for e, kj in zip(_E, k) if e))
        tol = params.atol + params.rtol * max(abs(y), abs(y5))
        steps += 1
        if err <= tol:
            t = span if snap else t + h
            y, k1 = y5, k[6]
            if stop is not None and stop(t, y):
                return t, y, True, h, steps
            h *= 4.0 if err == 0.0 else min(4.0, 0.9 * (tol / err) ** 0.2)
        else:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
    return t, y, False, h, steps


def _walk(d: DrivingTerm, start: float, end: float, y, field, guard, params: FlowParams):
    """Integrate y from driver time start to end, one _dp54 run per driver cell.

    Time runs forward when end > start and backward otherwise.  On a cell
    entered at a, sigma = sigma_a + rate r with r = |s - a|; field(sigma_a,
    rate) is dy/dr there and guard(sigma_a, rate) the (cap, stop) pair.  The
    step size and the step budget carry across cells.  Returns (r, y,
    stopped) at the last step, in the flow's time r = |s - start|.
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

    for a, b in zip(nodes, nodes[1:]):
        slope = d._slope[cell]
        # cell + side: the cell's node on the side of a
        sigma = d._s[cell + side] + slope * (a - d._g[cell + side])
        rate = slope if forward else -slope
        cell += step
        r0 = a - start if forward else start - a
        t, y, stopped, h, steps = _dp54(field(sigma, rate), abs(b - a), y, params,
                                           *guard(sigma, rate), h, steps, clock)
        if stopped:
            break
    return r0 + t, y, stopped


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
    if not abs(z) < 1.0:
        raise ValidationError("Loewner flow needs a finite point strictly inside the disk")
    if z == 0:
        return 0j
    if t == 0.0:
        return complex(z)

    def field(sigma, rate):
        def rhs(r, y):
            xi = cmath.exp(1j * (sigma + rate * r))
            return (-y if up else y) * (xi + y) / (xi - y)

        return rhs

    def guard(sigma, rate):
        def cap(r, y):
            delta = abs(cmath.exp(1j * (sigma + rate * r)) - y)
            return max(_C_STEP * delta * delta, 1e-14)

        def stop(r, y):
            return abs(cmath.exp(1j * (sigma + rate * r)) - y) < _SING_EPS

        return cap, (None if up else stop)

    start, end = (0.0, t) if up else (d.T, d.T - t)
    s_end, y, hit = _walk(d, start, end, complex(z), field, guard, params)
    if hit:
        raise HitSingularityError(s_end)
    return y


def boundary_flow(d: DrivingTerm, theta0: float, t_end: float,
                  params: FlowParams = DEFAULT_FLOW_PARAMS):
    """End state (t, theta, hit) of a boundary point's angle flow from theta0.

    The flow runs until it hits or reaches t_end, in the lifted chart sigma
    < theta < sigma + 2pi; hit is True when it came within _EPS_HIT of the
    singularity, at time t.  Reduce theta with canonical_angle for a circle
    position.
    """
    t_end = _validate_time(d, t_end)
    if not math.isfinite(theta0):
        raise ValidationError("boundary flow needs a finite start angle")
    # always 0; selftest's only sigma_at call, which bench/test_bench.py needs (driver_evals > 0)
    sigma0 = d.sigma_at(0.0)
    u0 = math.fmod(theta0 - sigma0, TWO_PI)
    if u0 < 0.0:
        u0 += TWO_PI
    if u0 < _EPS_HIT or TWO_PI - u0 < _EPS_HIT:
        return 0.0, theta0, True

    def field(sigma, rate):
        def rhs(r, th):
            return 1.0 / math.tan(0.5 * (sigma + rate * r - th))

        return rhs

    def guard(sigma, rate):
        def cap(r, th):
            u = th - (sigma + rate * r)
            delta = min(u, TWO_PI - u)
            return max(_C_STEP * delta * delta, 1e-16)

        def stop(r, th):
            u = th - (sigma + rate * r)
            return min(u, TWO_PI - u) <= _EPS_HIT

        return cap, stop

    return _walk(d, 0.0, t_end, sigma0 + u0, field, guard, params)


_NEWTON_MAX = 60        # Newton iterations a cell map may take
_NEWTON_TOL = 1e-14     # a cell map stops at an error bound or bracket below _NEWTON_TOL * max(1, w)
_SERIES_ANGLE = 0.2     # young angles below it are predicted by the inverse series at w = 0
_RATE_FLOOR = 1e-14     # an angle rate below _RATE_FLOOR * (1 + c^2) is rounding: w sits on w*


def _cell_time(w, c, r2):
    """(F_c(w), cot(w/2) + c) for the angle flow dw/dr = cot(w/2) + c of a cell.

    F_c(w) = (2/R^2)[c w/2 - ln|cos(w/2) + c sin(w/2)|], R^2 = r2 = 1 + c^2,
    is the reversed time the flow takes from 0 to w below the fixed point
    w* = pi + 2 atan c, and an antiderivative of 1 / (cot(w/2) + c) on either
    side of it.  The logarithm's argument is 1 + x with x = sin(w/2) (c -
    tan(w/4)), so the logarithm is log1p(x) below w*, exact near w = 0, and
    log1p(-2 - x) above it; the rate is (1 + x) / sin(w/2).
    """
    half = np.sin(0.5 * w)
    x = half * (c - np.tan(0.25 * w))
    below = x > -1.0
    log = np.log1p(x if np.count_nonzero(below) == below.size else np.where(below, x, -2.0 - x))
    return (c * w - 2.0 * log) / r2, (1.0 + x) / half


def _predict(w, dt, c, target, rate):
    """Third-order predictor of the cell map from w, rate = cot(w/2) + c.

    An angle below _SERIES_ANGLE and below w* (rate > 0) that the cell
    carries more than halfway again from 0, F_c(w) < 2 dt, births included,
    takes the inverse series w = 2 sqrt(r) + (2c/3) r + (c^2/18 - 1/6)
    r^(3/2) at r = target = F_c(w) + dt.  Every other angle takes a Taylor
    step of q = w^2, whose rate dq/dr = 2 w v stays smooth as w -> 0, with
    v = cot(w/2) + c, v' = -(1 + u^2)/2 and v'' = u (1 + u^2)/2 for u =
    cot(w/2) = v - c.
    """
    small = (w < _SERIES_ANGLE) & (rate > 0.0) & (target < 3.0 * dt)
    some = np.count_nonzero(small)
    if some:
        root = np.sqrt(target)
        x = root * (2.0 + root * ((2.0 / 3.0) * c + root * ((c * c - 3.0) / 18.0)))
        if some == small.size:
            return x
    u = rate - c
    a = 1.0 + u * u   # -2 v'
    # q' = 2 w v, q'' = (2v - w a) v, q''' = a v (w (u v + a/2) - 3v)
    taylor = np.sqrt(w * w + dt * rate * (2.0 * w + dt * (
        rate - 0.5 * w * a + dt / 6.0 * a * (w * (u * rate + 0.5 * a) - 3.0 * rate))))
    if some:
        np.copyto(taylor, x, where=small)
    return taylor


def _cell_map(w, dt, c, r2, wstar, settle):
    """Angles w after reversed time dt on a cell of slope c: F_c^-1(F_c(w) + dt).

    w, dt, c and the fixed points wstar = pi + 2 atan c are (k, 2) arrays,
    a row per time and both sides; r2 = 1 + c^2 and settle (below) are the
    cell's.  Each w moves monotonically toward w* and never reaches it, so
    the root lies in [w, w*) or (w*, w].  Newton starts from _predict.  F_c
    is convex on each side of w*, so Newton then moves monotonically toward
    the root inside the bracket.  The result is the last Newton iterate less
    its quadratic error e = k2 step^2, k2 = F''/(2F') = (1 + u^2)/(4v) with
    v = cot(w/2) + c and u = v - c, which makes it Chebyshev's step.  The
    map stops once the error left after that, (2 k2^2 + |k3|) |step|^3 at
    most to leading order with k3 = F'''/(6F') = (1 + u^2)(1 - u c)/(12
    v^2), is below tolerance where the rate v is not rounding: an iterate
    within rounding of w* has a tiny step however far the root is.  F_c
    grows like -(2/R^2) ln|w - w*| near w*, so on a cell where the angles
    settle onto w* a Newton step away from w* by more than half the gap x -
    w* is taken in log distance instead: x -> w* + (x - w*) exp(step / (x -
    w*)).  Only after an iterate leaves the bracket, or its rate is
    rounding, does the loop narrow the bracket as it goes, by the sign of
    F_c(root) - F_c(x) at each iterate inside it; an iterate outside, or
    whose rate is rounding, is replaced by the point halfway between the
    ends in log distance to w*, which reaches a root exponentially close to
    w* in a few steps, and an element whose bracket is below tolerance is
    done.
    """
    time, rate = _cell_time(w, c, r2)
    target = time + dt
    x = _predict(w, dt, c, target, rate)

    def outside(x):   # some x lies outside [w, w*] or [w*, w]
        return np.count_nonzero((x - w) * (wstar - x) >= 0.0) < x.size

    def bracket():   # (side, lo, hi) of [w, w*) or (w*, w]
        side = np.where(w > wstar, 1.0, -1.0)
        return (side, np.where(side > 0.0, np.nextafter(wstar, math.inf), w),
                np.where(side > 0.0, w, np.nextafter(wstar, -math.inf)))

    def midpoint():   # of the bracket, in log distance to w*
        return wstar + side * np.sqrt((lo - wstar) * (hi - wstar))

    guarded = outside(x)
    if guarded:
        side, lo, hi = bracket()
        x = np.where((x >= lo) & (x <= hi), x, midpoint())
    floor = _RATE_FLOOR * r2
    for _ in range(_NEWTON_MAX):
        time, rate = _cell_time(x, c, r2)
        miss = target - time
        step = miss * rate
        after = x + step
        if settle:   # a step away from w* by more than half the gap, in log distance
            gap = x - wstar
            away = step / gap
            after = np.where(away > 0.5, wstar + gap * np.exp(away), after)
        sure = np.abs(rate) > floor   # off w*, where a small step means nothing
        if not guarded and (np.count_nonzero(sure) < sure.size or outside(after)):
            guarded = True
            side, lo, hi = bracket()
        if guarded:   # F_c(x) below the target: the root lies between x and w*
            within = (x >= lo) & (x <= hi)
            lo = np.where(within & (miss * side < 0.0), x, lo)
            hi = np.where(within & (miss * side > 0.0), x, hi)
            sure &= (after >= lo) & (after <= hi)
            after = np.where(sure, after, midpoint())
        x = after
        scale = np.maximum(1.0, x)
        u = rate - c
        a = 1.0 + u * u
        err = 0.25 * a * step * miss   # x - root ~ k2 step^2, step = v miss
        # the error left after subtracting err, (2 k2^2 + |k3|) |step|^3, times 3
        fine = sure & (np.abs(err * miss) * (1.5 * a + np.abs(1.0 - u * c))
                       <= (3.0 * _NEWTON_TOL) * scale)
        # the bracket may collapse first: a root exponentially close to w* may
        # lie beyond the last float before it
        done = (fine | (hi - lo <= _NEWTON_TOL * scale)) if guarded else fine
        if np.count_nonzero(done) == done.size:
            np.subtract(x, err, out=x, where=fine)
            return x
    raise DiagnosticsError(f"angle cell map did not converge in {_NEWTON_MAX} Newton steps")


def _absorbed_angles(d: DrivingTerm, times) -> np.ndarray:
    """Start angles absorbed at the increasing times: rows plus side, minus side.

    Sweeps the driver cells from the top down.  On a cell, every angle
    absorbed above its lower node moves by the exact cell map in the chart
    w = |theta - sigma|, with c = sign * dsigma/ds; an angle absorbed inside
    the cell starts there at w = 0.  At s = 0, sigma = 0, so theta = sign * w.
    """
    times = np.asarray(times, dtype=float)
    grid, slope = d.grid, np.asarray(d._slope)
    r2 = 1.0 + slope * slope
    c = np.stack([slope, -slope], axis=1)
    wstar = 2.0 * np.arctan2(1.0, -c)   # pi + 2 atan c, without cancellation at c << -1
    # angles settle onto w* where (1 + c^2) dt / 2 > 1, and Newton crawls
    # there; dt grows with the time, so its largest is the last time's
    settle = (r2 * (np.minimum(times[-1], grid[1:]) - grid[:-1]) > 2.0).tolist()
    r2 = r2.tolist()
    first = np.searchsorted(times, grid[:-1], side="right").tolist()   # first time above each node
    # a row per time, both sides; the cell's c, w* and dt in full rows, so
    # that every operand of a cell map is contiguous: broadcasting and
    # strided views cost more per call
    w = np.zeros((times.size, 2))
    cols, stars, spans = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(int(np.searchsorted(grid, times[-1])) - 1, -1, -1):
            k = first[i]
            cols[k:], stars[k:] = c[i], wstar[i]
            spans[k:] = (np.minimum(times[k:], grid[i + 1]) - grid[i])[:, None]
            w[k:] = _cell_map(w[k:], spans[k:], cols[k:], r2[i], stars[k:], settle[i])
    if np.count_nonzero(np.isfinite(w)) < w.size:
        raise DiagnosticsError("the angle sweep produced a non-finite angle")
    w[:, 1] = -w[:, 1]
    return np.ascontiguousarray(w.T)


def slit_preimage_endpoints(d: DrivingTerm):
    """Endpoints (alpha_minus, alpha_plus) of the slit preimage arc.

    They are the two start angles absorbed at the horizon T, from one sweep
    of the exact cell maps down from the singularity at T.
    """
    ap, am = _absorbed_angles(d, [d.T])[:, 0].tolist()
    return CirclePoint(am), CirclePoint(ap)


_TIP_BIRTH = 0.01   # a tip is predicted by its birth series until _TIP_BIRTH / (1 + |c|) old
_ROUNDING = 1e-15   # relative rounding of one evaluation of a tip map's residual


def _log1p(z):
    """log(1 + z) for complex z, to rounding also where |z| is small."""
    x, y = z.real, z.imag
    out = np.empty_like(z)
    np.multiply(0.5, np.log1p(x * (2.0 + x) + y * y), out=out.real)
    np.arctan2(y, 1.0 + x, out=out.imag)
    return out


def _newton(x, residual, tol):
    """Newton from x, each element alone; returns (root, |e|, F' at the root).

    residual(x) gives (F, F', k = F''/(2F'), j = 2|k|^2 + |F'''/(6F')|).
    The step subtracts Newton's quadratic error k step^2 too where |k step|
    <= 1/2 (Chebyshev's cubic step), and e = j |step|^3 bounds the error
    left after it to leading order; elsewhere e exceeds |k step^2|.  An
    element stops once e <= tol and is then held, so it does not depend on
    the other elements.  x is updated in place.
    """
    done = np.zeros(x.shape, dtype=bool)
    est, slope = np.zeros(x.shape), np.zeros(x.shape, dtype=complex)
    for _ in range(_NEWTON_MAX):
        f, df, curve, cube = residual(x)
        step = f / df
        bend = curve * step
        live = ~done
        np.subtract(x, step + np.where(np.abs(bend) <= 0.5, bend * step, 0.0), out=x,
                    where=live)
        e = cube * np.abs(step) ** 3
        np.copyto(est, e, where=live)
        np.copyto(slope, df, where=live)
        done |= e <= tol
        if np.count_nonzero(done) == done.size:
            return x, est, slope
    raise DiagnosticsError(f"trace cell map did not converge in {_NEWTON_MAX} Newton steps")


def _tip_map(ell, err, dt, young, youth, a, r2):
    """Tips L = ln(1 - p) moved by dt on a cell of slope c; returns (L, bounds).

    a = 1 - ic, r2 = 1 + c^2.  The cell adds r2 dt to G(p) = -a L + 2 ln h,
    h = 1 - a p/2 = 1 + (a/2)(e^L - 1), so Newton solves F(L) = 2 ln(h/h0) -
    a (L - L0) - r2 dt = 0, with h/h0 = 1 + (a/2) e^L0 (e^(L - L0) - 1)/h0
    to keep L accurate as p -> 0.  Every tip is predicted in the chart r =
    (G(p)/r2)^(1/2), which the cell moves from r0 to (r0^2 + dt)^(1/2) and
    in which L is analytic at p = 0, where a series in s converges only over
    about the tip's age: a Taylor step of third order in r, with dL/dr = 2r
    dL/ds and dL/ds = 2h/(e^L - 1).  G is taken with Im L0 in [-pi, pi]: a
    tip that has wound may come back near p = 0, which on any other sheet
    of L is a singular point of L(r).  Tips from index young on are young
    (a newborn one has L0 = 0 and r0 = 0): they first take the
    inverse series p = 2r + b r^2 + e r^3 + g r^4 of r^2 = G(p)/r2 at r^2 =
    G(p0)/r2 + youth, and L by the series of ln(1 - p) to the same order,
    then the Taylor step in r for the rest of dt.  A bound adds the last
    Newton estimate and the rounding of F over |F'| to the bound so far
    times dL/dL0 = F'(L0)/F'(L).
    """
    m = 0.5 * a
    em0 = np.expm1(ell)
    me0 = m * em0
    e0, h0 = 1.0 + em0, 1.0 + me0
    x = ell.copy()
    # a tip starts from itself, or a young one from its series point at youth
    em, span = em0.copy(), dt.copy()
    # r^2 = G(p0)/r2 with Im L0 in [-pi, pi]; the flow sees L only through e^L
    sheet = ell - 1j * TWO_PI * np.round(ell.imag / TWO_PI)
    rho2 = (2.0 * _log1p(me0) - a * sheet) / r2
    if young < em.size:
        r = np.sqrt(rho2[young:] + youth)
        b = -(4.0 + 2.0 * a) / 3.0
        e = -0.25 * b * b - (2.0 + a) * b - (2.0 + a + m * a)
        g = (8.0 * a * b - 2.0 * (2.0 + a) * e - 5.0 * b * e) / 10.0
        p = r * (2.0 + r * (b + r * (e + r * g)))
        x[young:] = -r * (2.0 + r * ((b + 2.0) + r * ((e + 2.0 * b + 8.0 / 3.0) + r * (
            g + 0.5 * b * b + 2.0 * e + 4.0 * b + 4.0))))
        em[young:], rho2[young:] = -p, r * r
        span[young:] -= youth
    # third order in r from r0 to r1 = (r0^2 + span)^(1/2), on the branch of
    # r0: adding span > 0 to r0^2 crosses no branch cut of the square root.
    # dL/dr = 2r f with f = dL/ds = 2h/(e^L - 1) = 2t + a, t = 1/(e^L - 1),
    # and in L, f' = -2t (t + 1) and f f'' + f'^2 = -f' (t (6t + 4 + 2a) + a)
    rho = np.sqrt(rho2)
    dr = span / (np.sqrt(rho2 + span) + rho)
    t = 1.0 / em
    f1 = -2.0 * t * (t + 1.0)
    q = 2.0 * rho2
    third = (2.0 / 3.0) * dr * rho * f1 * (3.0 - q * (t * (6.0 * t + (4.0 + 2.0 * a)) + a))
    x += dr * (2.0 * t + a) * (2.0 * rho + dr * (1.0 + q * f1 + third))
    rdt, mh0, h02 = r2 * dt, m / h0, 2.0 * h0

    def residual(x):
        dx = x - ell
        w = e0 * np.expm1(dx)   # e^L - e^L0
        h2, em = h02 + a * w, em0 + w   # 2h = 2h0 + a w
        eh = (1.0 + em) / h2
        k = eh / em
        # F'''/(6F') = k (1 - 2a e^L / h2) / 3
        return (2.0 * _log1p(mh0 * w) - a * dx - rdt, r2 * em / h2, k,
                np.abs(k) * (2.0 * np.abs(k) + np.abs(1.0 - 2.0 * a * eh) / 3.0))

    # the stop and the rounding of L scale by |Re L| only: Im L, the unwrapped
    # winding, grows with no bound on a steep cell, and _trace_samples counts
    # its rounding once, at the tip; the tip's error is |tip| times L's
    x, est, df = _newton(x, residual, _NEWTON_TOL * np.maximum(1.0, np.abs(ell.real)))
    rounding = np.abs(x.real) + (np.abs(a * (x - ell)) + rdt) / np.abs(df)
    return x, err * np.abs(r2 * em0 / (h02 * df)) + est + _ROUNDING * rounding


def _tip_pieces(d: DrivingTerm):
    """Pieces the tip sweep cuts each driver cell into: ceil(|delta sigma|), at
    least 1, so |c| Delta <= 1 on each.  Floats, so that the work bound of
    cli sums them before a steep cell could overflow an integer."""
    return np.maximum(1.0, np.ceil(np.abs(np.diff(d.sigma))))


def _trace_samples(d: DrivingTerm, times):
    """Trace samples at the given times in (0, T], in their order.

    The tip at t is the upward flow from the singularity at s0 = T - t to T.
    In the chart p = 1 - g/xi(s) a cell of slope c gives dp/ds = (1 - p)(2 -
    a p)/p, a = 1 - ic, which separates: the cell adds (1 + c^2) Delta to
    G(p) = -a ln(1 - p) + 2 ln(1 - a p/2).  So one sweep of the cells from
    the bottom up moves every tip alive in a cell by one vector Newton solve
    (_tip_map).  A cell is cut into its _tip_pieces, and a tip is young
    while under kappa = _TIP_BIRTH / (1 + |c|) old at a piece's start.  The residual bounds the tip's error, with
    the rounding of Im L counted once.  A tip outside the closed disk, Re L >
    0, is a wrong root and raises DiagnosticsError.
    """
    births = d.T - np.asarray(times, dtype=float)
    order = np.argsort(births, kind="stable")
    s0 = births[order]
    ell, err = np.zeros(s0.size, dtype=complex), np.zeros(s0.size)
    # every piece of the cells that ends above the first birth, with the
    # tips alive and young on it
    per_cell = _tip_pieces(d).astype(int)
    cell = np.repeat(np.arange(d.grid.size - 1), per_cell)
    j = np.arange(cell.size) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    n, g0, g1 = per_cell[cell], d.grid[cell], d.grid[cell + 1]
    his = np.where(j + 1 == n, g1, g0 + (g1 - g0) * (j + 1) / n)
    keep = his > s0[0]
    cell, los, his = cell[keep], (g0 + (g1 - g0) * j / n)[keep], his[keep]
    c = np.asarray(d._slope)[cell]
    kappas = _TIP_BIRTH / (1.0 + np.abs(c))
    young = s0.searchsorted(los - kappas, side="right")
    pieces = zip(los.tolist(), his.tolist(), kappas.tolist(), s0.searchsorted(his).tolist(),
                 young.tolist(), (1.0 - 1j * c).tolist(), (1.0 + c * c).tolist())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo, hi, kappa, alive, young, a, r2 in pieces:
            start = np.maximum(lo, s0[:alive])
            dt = hi - start
            youth = np.minimum(dt[young:], s0[young:alive] + kappa - start[young:])
            ell[:alive], err[:alive] = _tip_map(ell[:alive], err[:alive], dt, young, youth, a, r2)
    if np.any(ell.real > 0.0):
        raise DiagnosticsError("trace tip map landed outside the disk")
    undo = np.argsort(order)
    tips = cmath.exp(1j * d._s[-1]) * np.exp(ell[undo])
    residual = np.abs(tips) * (err[undo] + _ROUNDING * (1.0 + np.abs(ell.imag[undo])))
    over = np.flatnonzero(residual > _TRACE_RESIDUAL_TOL)
    if over.size:
        raise TraceError(float(residual[over[0]]))
    return [TraceSample(t, complex(z), float(r)) for t, z, r in zip(times, tips, residual)]


def trace_curve(d: DrivingTerm, count: int):
    """Trace samples at count times uniform in (0, T], from one sweep of the
    driver cells."""
    if count < 1:
        raise ValidationError("need at least one trace sample")
    return _trace_samples(d, [d.T * k / count for k in range(1, count + 1)])
