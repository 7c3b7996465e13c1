"""Sampled functions and homeomorphisms on circle arcs.

Positions along an arc are angular offsets from its start point, so samples on
a wrapped arc stay monotone.
"""

from __future__ import annotations

import math
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
    low_confidence: np.ndarray | None = None   # mask of nodes with one-sided data

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
        if np.all(di > 0.0):
            self._orientation = 1
        elif np.all(di < 0.0):
            self._orientation = -1
        else:
            raise ValidationError("image samples must be strictly monotone")
        if self.offsets[0] < -1e-9 or self.offsets[-1] > self.domain.length + 1e-9:
            raise ValidationError("offsets must lie within the domain arc")
        lo, hi = min(self.images[0], self.images[-1]), max(self.images[0], self.images[-1])
        if lo < -1e-9 or hi > self.codomain.length + 1e-9:
            raise ValidationError("images must lie within the codomain arc")

    @property
    def orientation(self) -> int:
        return self._orientation

    def eval_offset(self, s):
        return np.interp(np.asarray(s, dtype=float), self.offsets, self.images)

    def angle_map(self, theta):
        """Circle angles in, canonical circle angles out."""
        theta = np.asarray(theta, dtype=float)
        rel = np.mod(theta - self.domain.start.angle, TWO_PI)
        img = self.eval_offset(rel) + self.codomain.start.angle
        out = np.mod(img + math.pi, TWO_PI) - math.pi
        return out if out.ndim else float(out)

    def log_deriv_offset(self, s):
        """log of the per-cell slope magnitude (piecewise constant)."""
        s = np.asarray(s, dtype=float)
        slopes = np.abs(np.diff(self.images) / np.diff(self.offsets))
        idx = np.clip(np.searchsorted(self.offsets, s, side="right") - 1, 0, slopes.size - 1)
        return np.log(slopes[idx])

    def inverse(self) -> "ArcHomeomorphism":
        if self._orientation > 0:
            return ArcHomeomorphism(self.codomain, self.domain, self.images, self.offsets)
        return ArcHomeomorphism(self.codomain, self.domain,
                                self.images[::-1].copy(), self.offsets[::-1].copy())
