"""Conformal welding extraction from a driving term.

A slit grown for time T has two boundary preimage arcs meeting at 1; points
absorbed at the same time are welded.  The welding is stored as matched lifted
angles (theta_plus increasing from 0, theta_minus decreasing from 0) on a
shared absorption-time grid.  The endpoint normalizer tau is affine in the
chart x = -cot(theta/2), and the conjugated welding tau^-1 o phi o tau that
analyze and construct sample is evaluated in that chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcfun import ArcFunction, ArcHomeomorphism
from .circle import TWO_PI, CirclePoint, MobiusCircleMap, OrientedArc
from .errors import ExtractionError, ValidationError
from .loewner import DrivingTerm, _absorbed_angles, slit_preimage_endpoints

__all__ = [
    "Welding",
    "extract_welding",
    "welding_log_derivative",
    "welding_as_homeomorphism",
    "build_tau",
    "pair_residuals",
    "slit_preimage_endpoints",   # re-exported: bench/test_bench.py reads it here
]


@dataclass
class Welding:
    """Matched boundary angles welded by a growing slit.

    times[0] = 0 pairs the common base point (angle 0 on both sides); the last
    pair gives the slit preimage endpoints alpha_plus and alpha_minus.
    """

    times: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.theta_plus = np.asarray(self.theta_plus, dtype=float)
        self.theta_minus = np.asarray(self.theta_minus, dtype=float)
        if not (self.times.shape == self.theta_plus.shape == self.theta_minus.shape):
            raise ValidationError("welding columns must have matching lengths")
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValidationError("welding needs at least two pairs")
        for arr, name in ((self.times, "times"), (self.theta_plus, "theta_plus"),
                          (self.theta_minus, "theta_minus")):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"welding {name} must be finite")
        if self.times[0] != 0.0 or self.theta_plus[0] != 0.0 or self.theta_minus[0] != 0.0:
            raise ValidationError("welding must start at the base pair (0, 0, 0)")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("welding times must be strictly increasing")
        if np.any(np.diff(self.theta_plus) <= 0.0):
            raise ValidationError("theta_plus must be strictly increasing")
        if np.any(np.diff(self.theta_minus) >= 0.0):
            raise ValidationError("theta_minus must be strictly decreasing")
        if self.theta_plus[-1] - self.theta_minus[-1] >= TWO_PI:
            raise ValidationError("welded arcs must not cover the full circle")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def alpha_plus(self) -> CirclePoint:
        return CirclePoint(float(self.theta_plus[-1]))

    @property
    def alpha_minus(self) -> CirclePoint:
        return CirclePoint(float(self.theta_minus[-1]))

    @property
    def arc_plus(self) -> OrientedArc:
        """Plus-side preimage arc, from the base point 1 to alpha_plus."""
        return OrientedArc(CirclePoint(0.0), self.alpha_plus)

    @property
    def arc_minus(self) -> OrientedArc:
        """Minus-side preimage arc, from alpha_minus to the base point 1."""
        return OrientedArc(self.alpha_minus, CirclePoint(0.0))


def welding_log_derivative(w: Welding) -> ArcFunction:
    """log |phi'| of the welding phi on the plus arc, from matched-pair slopes.

    Interior nodes use centered differences; the two endpoint nodes fall back
    to one-sided slopes, so analyze drops the two endpoint cells
    (cli._trimmed_plus_arc).
    """
    tp, tm = w.theta_plus, w.theta_minus
    if tp.size < 3:
        raise ValidationError("need at least three pairs for a derivative")
    vals = np.empty(tp.size)
    vals[1:-1] = np.log(np.abs((tm[2:] - tm[:-2]) / (tp[2:] - tp[:-2])))
    vals[0] = math.log(abs((tm[1] - tm[0]) / (tp[1] - tp[0])))
    vals[-1] = math.log(abs((tm[-1] - tm[-2]) / (tp[-1] - tp[-2])))
    return ArcFunction(w.arc_plus, tp.copy(), vals)


def welding_as_homeomorphism(w: Welding) -> ArcHomeomorphism:
    """The welding as a sense-reversing homeomorphism arc_plus -> arc_minus."""
    images = w.theta_minus - w.theta_minus[-1]   # offsets from alpha_minus
    return ArcHomeomorphism(w.arc_plus, w.arc_minus, w.theta_plus.copy(), images)


def _tau_chart(alpha_minus: CirclePoint, alpha_plus: CirclePoint) -> tuple[float, float]:
    """(a, b) of tau as x -> a x + b in the chart x = -cot(theta/2).

    The chart sends 1, -i, i to infinity, 1, -1, so tau(-i) = alpha_minus and
    tau(i) = alpha_plus give a = (x- - x+)/2 and b = (x- + x+)/2.
    """
    x_minus, x_plus = (-1.0 / math.tan(0.5 * p.angle) for p in (alpha_minus, alpha_plus))
    return 0.5 * (x_minus - x_plus), 0.5 * (x_minus + x_plus)


def build_tau(alpha_minus: CirclePoint, alpha_plus: CirclePoint) -> MobiusCircleMap:
    """Disk automorphism with tau(-i) = alpha_minus, tau(1) = 1, tau(i) = alpha_plus.

    tau is x -> a x + b in the chart of _tau_chart; its pole is the preimage
    of x = i.  Endpoints at 1, coincident or out of counterclockwise order
    (a <= 0) are rejected, and so is a map that misses them by 1e-12.
    """
    if alpha_minus.angle == 0.0 or alpha_plus.angle == 0.0:
        raise ValidationError("welded endpoints must differ from the base point 1")
    a, b = _tau_chart(alpha_minus, alpha_plus)
    pole = complex(-b, 1.0 - a) / complex(-b, 1.0 + a)
    if not abs(pole) < 1.0 - 1e-13:
        raise ValidationError("endpoints do not determine a disk automorphism")
    tau = MobiusCircleMap(-2.0 * math.atan2(-pole.imag, 1.0 - pole.real), pole)   # tau(1) = 1
    miss = tau(np.exp(0.5j * math.pi * np.array([-1.0, 0.0, 1.0]))) - np.exp(
        1j * np.array([alpha_minus.angle, 0.0, alpha_plus.angle]))
    if not np.max(np.abs(miss)) <= 1e-12:
        raise ValidationError("Mobius interpolation failed anchor verification")
    return tau


def _conjugated_welding(w: Welding):
    """Angle map and log-derivative of chi = tau^-1 o phi o tau on the arc from
    1 to i, with tau = build_tau(w.alpha_minus, w.alpha_plus).

    Both are evaluated in tau's chart with half angles: for s = sin(theta/2),
    c = cos(theta/2) and q = a c - b s, tau(theta) = 2 atan2(s, q) on the lifted
    plus arc and |tau'| = a / (s^2 + q^2); tau^-1 of a welded angle m, with
    s', c' of m/2 and q' = c' + b s', is 2 atan2(a s', q') in (-pi/2, 0] with
    |(tau^-1)'| = a / (a^2 s'^2 + q'^2).  Half angles are 4 pi-periodic, so
    theta is first reduced to [0, 2 pi).
    """
    build_tau(w.alpha_minus, w.alpha_plus)   # the endpoint checks
    a, b = _tau_chart(w.alpha_minus, w.alpha_plus)
    phi_ld = welding_log_derivative(w)

    def chart(th):
        half = 0.5 * np.mod(np.asarray(th, dtype=float), TWO_PI)
        s, c = np.sin(half), np.cos(half)
        q = a * c - b * s
        tau = 2.0 * np.arctan2(s, q)
        m = np.interp(np.interp(tau, w.theta_plus, w.times), w.times, w.theta_minus)
        s1, c1 = np.sin(0.5 * m), np.cos(0.5 * m)
        return s, q, tau, a * s1, c1 + b * s1

    def chi(th):
        _, _, _, as1, q1 = chart(th)
        return 2.0 * np.arctan2(as1, q1)

    def chi_ld(th):
        s, q, tau, as1, q1 = chart(th)
        return np.log(a * a / ((s * s + q * q) * (as1 * as1 + q1 * q1))) + phi_ld.eval_angle(tau)

    return chi, chi_ld


def extract_welding(d: DrivingTerm, n: int = 256) -> Welding:
    """Extract the welding of the slit grown by d on a uniform time grid.

    The two start angles absorbed at t_k = k T / n, k = 1 .. n, come from
    one sweep of the exact per-cell angle maps down from the top driver cell,
    both sides as one array; the last pair is the slit preimage endpoints.
    Arcs that cover the circle fail the Welding invariants.
    """
    if n < 8:
        raise ValidationError("welding resolution must be at least 8")
    times = [0.0] + [k * d.T / n for k in range(1, n)] + [d.T]
    plus, minus = _absorbed_angles(d, times[1:])
    try:
        return Welding(np.array(times), np.concatenate([[0.0], plus]),
                       np.concatenate([[0.0], minus]))
    except ValidationError as exc:
        raise ExtractionError(f"extracted pairs violate welding invariants: {exc}") from exc


def pair_residuals(d: DrivingTerm, w: Welding) -> np.ndarray:
    """Angle gaps between each welded pair after the base pair and the driver's own.

    One sweep of the exact cell maps gives the two start angles d absorbs
    at each welding time; the residual of a pair is the larger of its two
    angle gaps, so the welding of d reads at rounding and a welding of
    another driver reads its distance from d's.
    """
    if abs(w.T - d.T) > 1e-12 * max(1.0, d.T):
        raise ValidationError(f"welding horizon {w.T!r} differs from the driver's {d.T!r}")
    plus, minus = _absorbed_angles(d, np.minimum(w.times[1:], d.T))
    return np.maximum(np.abs(plus - w.theta_plus[1:]), np.abs(minus - w.theta_minus[1:]))
