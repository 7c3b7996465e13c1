"""Points, oriented arcs and Mobius self-maps of the unit circle.

Angles are radians; the canonical representative lives in (-pi, pi].  Oriented
arcs are traversed counterclockwise from start to end and positions along an
arc are measured as nonnegative angular offsets from the start point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi

__all__ = [
    "CirclePoint",
    "OrientedArc",
    "MobiusCircleMap",
    "canonical_angle",
    "arc",
    "mobius_from_triple",
]


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    a = math.fmod(theta, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class CirclePoint:
    """A point of the unit circle, stored by its canonical angle."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValidationError("circle point angle must be finite")
        object.__setattr__(self, "angle", canonical_angle(self.angle))

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.angle)


@dataclass(frozen=True)
class OrientedArc:
    """Counterclockwise arc from start to end; proper: length in (0, 2*pi)."""

    start: CirclePoint
    end: CirclePoint

    def __post_init__(self):
        if self.length <= 0.0 or self.length >= TWO_PI:
            raise ValidationError("arc endpoints must be distinct (proper arc)")

    @property
    def length(self) -> float:
        gap = math.fmod(self.end.angle - self.start.angle, TWO_PI)
        if gap < 0.0:
            gap += TWO_PI
        return gap


def arc(start_angle: float, end_angle: float) -> OrientedArc:
    """Shorthand constructor from raw angles."""
    return OrientedArc(CirclePoint(start_angle), CirclePoint(end_angle))


def _ccw_triple(a1: float, a2: float, a3: float) -> bool:
    # strict counterclockwise cyclic order of three distinct angles
    g12 = math.fmod(a2 - a1, TWO_PI) % TWO_PI
    g23 = math.fmod(a3 - a2, TWO_PI) % TWO_PI
    return g12 > 0.0 and g23 > 0.0 and g12 + g23 < TWO_PI


@dataclass(frozen=True)
class MobiusCircleMap:
    """Disk automorphism z -> e^{i rho} (z - pole) / (1 - conj(pole) z)."""

    rotation: float
    pole: complex

    def __post_init__(self):
        if abs(self.pole) >= 1.0:
            raise ValidationError("Mobius pole must lie strictly inside the disk")
        object.__setattr__(self, "rotation", canonical_angle(self.rotation))
        object.__setattr__(self, "pole", complex(self.pole))

    def __call__(self, z):
        """Evaluate at a complex point or numpy array of points."""
        phase = cmath.exp(1j * self.rotation)
        if isinstance(z, (complex, float, int)):
            return phase * (z - self.pole) / (1.0 - self.pole.conjugate() * z)
        z = np.asarray(z)
        return phase * (z - self.pole) / (1.0 - self.pole.conjugate() * z)

    def deriv_abs(self, z):
        """|m'(z)|, valid on the closed disk."""
        num = 1.0 - abs(self.pole) ** 2
        if isinstance(z, (complex, float, int)):
            return num / abs(1.0 - self.pole.conjugate() * z) ** 2
        return num / np.abs(1.0 - self.pole.conjugate() * np.asarray(z)) ** 2

    def apply_angle(self, theta):
        """Boundary action on angles (scalar or numpy array), canonical output."""
        if isinstance(theta, (float, int)):
            w = self(cmath.exp(1j * theta))
            return math.atan2(w.imag, w.real)
        w = self(np.exp(1j * np.asarray(theta, dtype=float)))
        return np.angle(w)

    def log_deriv_angle(self, theta):
        """log|m'| on the boundary, by angle."""
        if isinstance(theta, (float, int)):
            return math.log(self.deriv_abs(cmath.exp(1j * theta)))
        return np.log(self.deriv_abs(np.exp(1j * np.asarray(theta, dtype=float))))

    def inverse(self) -> MobiusCircleMap:
        phase = cmath.exp(1j * self.rotation)
        return MobiusCircleMap(-self.rotation, -phase * self.pole)


def mobius_from_triple(src: tuple[CirclePoint, CirclePoint, CirclePoint],
                       dst: tuple[CirclePoint, CirclePoint, CirclePoint]) -> MobiusCircleMap:
    """Disk automorphism sending one counterclockwise triple to another.

    Solved through the cross ratio: both triples are carried to (0, 1, inf) and
    the two chains are composed.  Degenerate or misordered triples are rejected.
    """
    for trip in (src, dst):
        t1, t2, t3 = (p.angle for p in trip)
        if not _ccw_triple(t1, t2, t3):
            raise ValidationError("triple must be distinct and in counterclockwise order")

    z1, z2, z3 = (p.z for p in src)
    w1, w2, w3 = (p.z for p in dst)

    def std_matrix(p1, p2, p3):
        # matrix of z -> (z - p1)(p2 - p3) / ((z - p3)(p2 - p1)), which sends
        # (p1, p2, p3) to (0, 1, inf)
        return (p2 - p3), -p1 * (p2 - p3), (p2 - p1), -p3 * (p2 - p1)

    a1, b1, c1, d1 = std_matrix(z1, z2, z3)
    a2, b2, c2, d2 = std_matrix(w1, w2, w3)
    # M = adj(B) A implements B^{-1} o A up to scale
    a = d2 * a1 - b2 * c1
    b = d2 * b1 - b2 * d1
    c = -c2 * a1 + a2 * c1
    d = -c2 * b1 + a2 * d1

    pole = -b / a
    if abs(pole) >= 1.0 - 1e-13:
        raise ValidationError("triples do not determine a disk automorphism")
    base = MobiusCircleMap(0.0, pole)
    w_ref = (a * z1 + b) / (c * z1 + d)
    rot = cmath.phase(w_ref / base(z1))
    m = MobiusCircleMap(rot, pole)

    # anchor check: the construction must reproduce the triple to near machine accuracy
    for zp, wp in zip((z1, z2, z3), (w1, w2, w3)):
        if abs(m(zp) - wp) > 1e-12:
            raise ValidationError("Mobius interpolation failed anchor verification")
    return m
