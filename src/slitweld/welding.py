"""Conformal welding extraction from a driving term.

A slit grown for time T has two boundary preimage arcs meeting at 1; points
absorbed at the same time are welded.  The welding is stored as matched lifted
angles (theta_plus increasing from 0, theta_minus decreasing from 0) on a
shared absorption-time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcfun import ArcFunction, ArcHomeomorphism
from .circle import TWO_PI, CirclePoint, MobiusCircleMap, OrientedArc, mobius_from_triple
from .errors import ExtractionError, ValidationError
from .loewner import (DEFAULT_FLOW_PARAMS, DrivingTerm, FlowParams, _absorbed_angle,
                      slit_preimage_endpoints, upward_flow)

__all__ = [
    "Welding",
    "extract_welding",
    "welding_log_derivative",
    "welding_as_homeomorphism",
    "build_tau",
    "radial_slit_welding",
    "pair_residuals",
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

    def apply_angle(self, theta):
        """Partner angle(s), canonical; accepts scalars or arrays."""
        theta = np.asarray(theta, dtype=float)
        delta = np.mod(theta, TWO_PI)
        tol = 1e-9
        on_plus = delta <= self.theta_plus[-1] + tol
        on_minus = delta - TWO_PI >= self.theta_minus[-1] - tol
        if not np.all(on_plus | on_minus):
            raise ValidationError("angle outside the welded arcs")
        out = np.empty_like(delta)
        if np.any(on_plus):
            dp = np.clip(delta[on_plus], 0.0, self.theta_plus[-1])
            t = np.interp(dp, self.theta_plus, self.times)
            out[on_plus] = np.interp(t, self.times, self.theta_minus)
        rest = ~on_plus
        if np.any(rest):
            dm = np.clip(delta[rest] - TWO_PI, self.theta_minus[-1], 0.0)
            t = np.interp(-dm, -self.theta_minus, self.times)
            out[rest] = np.interp(t, self.times, self.theta_plus)
        out = np.mod(out + math.pi, TWO_PI) - math.pi
        return out if out.ndim else float(out)


def welding_log_derivative(w: Welding) -> ArcFunction:
    """log |phi'| of the welding phi on the plus arc, from matched-pair slopes.

    Interior nodes use centered differences; the two endpoint nodes fall back
    to one-sided slopes and are marked low-confidence.
    """
    tp, tm = w.theta_plus, w.theta_minus
    if tp.size < 3:
        raise ValidationError("need at least three pairs for a derivative")
    vals = np.empty(tp.size)
    vals[1:-1] = np.log(np.abs((tm[2:] - tm[:-2]) / (tp[2:] - tp[:-2])))
    vals[0] = math.log(abs((tm[1] - tm[0]) / (tp[1] - tp[0])))
    vals[-1] = math.log(abs((tm[-1] - tm[-2]) / (tp[-1] - tp[-2])))
    mask = np.zeros(tp.size, dtype=bool)
    mask[0] = mask[-1] = True
    return ArcFunction(w.arc_plus, tp.copy(), vals, low_confidence=mask)


def welding_as_homeomorphism(w: Welding) -> ArcHomeomorphism:
    """The welding as a sense-reversing homeomorphism arc_plus -> arc_minus."""
    images = w.theta_minus - w.theta_minus[-1]   # offsets from alpha_minus
    return ArcHomeomorphism(w.arc_plus, w.arc_minus, w.theta_plus.copy(), images)


def build_tau(alpha_minus: CirclePoint, alpha_plus: CirclePoint) -> MobiusCircleMap:
    """Disk automorphism with tau(-i) = alpha_minus, tau(1) = 1, tau(i) = alpha_plus."""
    return mobius_from_triple(
        (CirclePoint(-0.5 * math.pi), CirclePoint(0.0), CirclePoint(0.5 * math.pi)),
        (alpha_minus, CirclePoint(0.0), alpha_plus))


def _conjugated_welding(w: Welding, tau: MobiusCircleMap):
    """Angle map and log-derivative of tau^-1 o phi o tau on the arc from 1 to i."""
    tau_inv = tau.inverse()
    phi_ld = welding_log_derivative(w)

    def chi(th):
        return tau_inv.apply_angle(w.apply_angle(tau.apply_angle(th)))

    def chi_ld(th):
        a = tau.apply_angle(th)
        b = w.apply_angle(a)
        return tau.log_deriv_angle(th) + phi_ld.eval_angle(a) + tau_inv.log_deriv_angle(b)

    return chi, chi_ld


def extract_welding(d: DrivingTerm, n: int = 256,
                    params: FlowParams = DEFAULT_FLOW_PARAMS) -> Welding:
    """Extract the welding of the slit grown by d on a uniform time grid.

    The two start angles absorbed at t_k = k T / n, k = 1 .. n-1, each come
    from one backward flow from the singularity at t_k; the arc endpoints from
    slit_preimage_endpoints close the grid at T.
    """
    if n < 8:
        raise ValidationError("welding resolution must be at least 8")
    am, ap = slit_preimage_endpoints(d, params)
    ap_lift = math.fmod(ap.angle, TWO_PI)
    if ap_lift <= 0.0:
        ap_lift += TWO_PI
    am_lift = math.fmod(am.angle, TWO_PI)
    if am_lift >= 0.0:
        am_lift -= TWO_PI
    if ap_lift - am_lift >= TWO_PI:
        raise ExtractionError("preimage arcs cover the circle; horizon too large")

    inner = [k * d.T / n for k in range(1, n)]
    times = [0.0] + inner + [d.T]
    plus = [0.0] + [_absorbed_angle(d, t, 1.0, params) for t in inner] + [ap_lift]
    minus = [0.0] + [_absorbed_angle(d, t, -1.0, params) for t in inner] + [am_lift]

    try:
        return Welding(np.array(times), np.array(plus), np.array(minus))
    except ValidationError as exc:
        raise ExtractionError(f"extracted pairs violate welding invariants: {exc}") from exc


def radial_slit_welding(t_slit: float, n: int = 256) -> Welding:
    """Closed-form welding of the radial slit [t_slit, 1].

    The boundary angle absorbed at time tau solves tau = -2 log cos(theta/2),
    so theta(tau) = 2 arccos(e^{-tau/2}) on the horizon log((1+t)^2/(4t)).
    The preimage arcs are conjugate, so theta_minus = -theta_plus exactly.
    """
    if not 0.0 < t_slit < 1.0:
        raise ValidationError("slit base must lie strictly between 0 and 1")
    if n < 2:
        raise ValidationError("need at least two pairs")
    t = float(t_slit)
    T_w = math.log((1.0 + t) ** 2 / (4.0 * t))
    tau = np.linspace(0.0, T_w, n + 1)
    theta = 2.0 * np.arccos(np.exp(-0.5 * tau))
    return Welding(tau, theta, -theta)


def pair_residuals(d: DrivingTerm, w: Welding, count: int = 8,
                   radius: float = 1.0 - 1e-4,
                   params: FlowParams = DEFAULT_FLOW_PARAMS) -> np.ndarray:
    """Distances between horizon-map images of welded pairs pushed inside.

    Both members of a pair approach the same slit point, so residuals on the
    order of 1 - radius confirm the extraction; large values flag a mismatch.
    """
    if count < 1:
        raise ValidationError("need at least one probe pair")
    m = w.times.size
    idx = np.unique(np.round(np.linspace(1, m - 2, count)).astype(int))
    res = []
    for k in idx:
        zp = radius * np.exp(1j * w.theta_plus[k])
        zm = radius * np.exp(1j * w.theta_minus[k])
        res.append(abs(upward_flow(d, zp, d.T, params) - upward_flow(d, zm, d.T, params)))
    return np.array(res)
