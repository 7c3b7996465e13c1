"""Sampled functions and homeomorphisms on circle arcs.

Positions along an arc are angular offsets from its start point, so samples on
a wrapped arc stay monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, OrientedArc
from .errors import ValidationError

__all__ = ["ArcFunction", "ArcHomeomorphism"]


@dataclass
class ArcFunction:
    """Piecewise-linear sampled function on an arc."""

    arc: OrientedArc
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.offsets.ndim != 1 or self.offsets.shape != self.values.shape:
            raise ValidationError("offsets and values must be matching 1-d arrays")
        if self.offsets.size < 2:
            raise ValidationError("need at least two sample nodes")
        if np.any(np.diff(self.offsets) <= 0.0):
            raise ValidationError("sample offsets must be strictly increasing")
        if self.offsets[0] < -1e-12 or self.offsets[-1] > self.arc.length + 1e-12:
            raise ValidationError("sample offsets must lie within the arc")
        if not (np.all(np.isfinite(self.offsets)) and np.all(np.isfinite(self.values))):
            raise ValidationError("samples must be finite")

    def eval_offset(self, s):
        """Interpolate at offsets, clamped at the arc ends."""
        return np.interp(np.asarray(s, dtype=float), self.offsets, self.values)

    def eval_angle(self, theta):
        """Interpolate at circle angles."""
        theta = np.asarray(theta, dtype=float)
        rel = np.mod(theta - self.arc.start.angle, TWO_PI)
        return np.interp(rel, self.offsets, self.values)


@dataclass
class ArcHomeomorphism:
    """Monotone sampled circle-arc homeomorphism, sense-preserving or reversing.

    images are offsets along the codomain arc; strictly increasing samples give
    a sense-preserving map, strictly decreasing a sense-reversing one.
    """

    domain: OrientedArc
    codomain: OrientedArc
    offsets: np.ndarray
    images: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.images = np.asarray(self.images, dtype=float)
        if self.offsets.ndim != 1 or self.offsets.shape != self.images.shape:
            raise ValidationError("offsets and images must be matching 1-d arrays")
        if self.offsets.size < 2:
            raise ValidationError("need at least two sample nodes")
        d = np.diff(self.offsets)
        if np.any(d <= 0.0):
            raise ValidationError("domain offsets must be strictly increasing")
        di = np.diff(self.images)
        if not (np.all(di > 0.0) or np.all(di < 0.0)):
            raise ValidationError("image samples must be strictly monotone")
        if self.offsets[0] < -1e-9 or self.offsets[-1] > self.domain.length + 1e-9:
            raise ValidationError("offsets must lie within the domain arc")
        lo, hi = min(self.images[0], self.images[-1]), max(self.images[0], self.images[-1])
        if lo < -1e-9 or hi > self.codomain.length + 1e-9:
            raise ValidationError("images must lie within the codomain arc")

    def eval_offset(self, s):
        return np.interp(np.asarray(s, dtype=float), self.offsets, self.images)
