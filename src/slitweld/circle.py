"""Points, oriented arcs and Mobius self-maps of the unit circle.

Angles are radians.  Every circle map in the package returns angles in one
interval, (-pi, pi], reduced by canonical_angle; an angle already in that
interval comes back bit for bit.  Oriented arcs are traversed
counterclockwise from start to end and positions along an arc are measured as
nonnegative angular offsets from the start point.
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
]


def canonical_angle(theta):
    """Reduce angles to the canonical interval (-pi, pi]; a float for a scalar.

    fmod is exact, so an angle already in the interval is returned unchanged.
    """
    a = np.fmod(theta, TWO_PI)
    a = np.where(a <= -math.pi, a + TWO_PI, np.where(a > math.pi, a - TWO_PI, a))
    return a if a.ndim else float(a)


@dataclass(frozen=True)
class CirclePoint:
    """A point of the unit circle, stored by its canonical angle."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValidationError("circle point angle must be finite")
        object.__setattr__(self, "angle", canonical_angle(self.angle))


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
        return cmath.exp(1j * self.rotation) * (z - self.pole) / (1.0 - self.pole.conjugate() * z)

    def deriv_abs(self, z):
        """|m'(z)|, valid on the closed disk."""
        return (1.0 - abs(self.pole) ** 2) / abs(1.0 - self.pole.conjugate() * z) ** 2

    def apply_angle(self, theta):
        """Boundary action on angles (scalar or numpy array), canonical output."""
        return canonical_angle(np.angle(self(np.exp(1j * np.asarray(theta, dtype=float)))))

    def log_deriv_angle(self, theta):
        """log|m'| on the boundary, by angle."""
        return np.log(self.deriv_abs(np.exp(1j * np.asarray(theta, dtype=float))))

    def inverse(self) -> MobiusCircleMap:
        phase = cmath.exp(1j * self.rotation)
        return MobiusCircleMap(-self.rotation, -phase * self.pole)

