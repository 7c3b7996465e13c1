"""Circle points, arcs, and Mobius boundary maps."""

import cmath
import math

import numpy as np
import pytest

from slitweld.circle import (CirclePoint, MobiusCircleMap, arc, canonical_angle,
                             mobius_from_triple)
from slitweld.errors import ValidationError

TWO_PI = 2.0 * math.pi


def test_canonical_angle_interval():
    assert canonical_angle(math.pi) == math.pi
    assert canonical_angle(-math.pi) == math.pi
    assert abs(canonical_angle(TWO_PI + 0.3) - 0.3) < 1e-15
    assert abs(canonical_angle(-7.0) - (-7.0 + TWO_PI)) < 1e-15


def test_circle_point_canonicalizes():
    p = CirclePoint(3.0 * math.pi)
    assert p.angle == math.pi
    assert abs(p.z - cmath.exp(1j * math.pi)) < 1e-15
    with pytest.raises(ValidationError):
        CirclePoint(math.inf)


def test_arc_length_wraps():
    a = arc(2.5, -2.5)   # through the angle pi
    assert abs(a.length - (TWO_PI - 5.0)) < 1e-12
    with pytest.raises(ValidationError):
        arc(1.0, 1.0)


def test_mobius_rejects_outside_pole():
    with pytest.raises(ValidationError):
        MobiusCircleMap(0.0, 1.2 + 0j)


def test_mobius_preserves_circle_and_inverts():
    m = MobiusCircleMap(0.7, 0.3 - 0.2j)
    th = np.linspace(-3.0, 3.0, 17)
    w = m(np.exp(1j * th))
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12
    mi = m.inverse()
    z = 0.4 + 0.1j
    assert abs(mi(m(z)) - z) < 1e-12
    assert abs(m(mi(z)) - z) < 1e-12


def test_mobius_deriv_abs_matches_difference_quotient():
    m = MobiusCircleMap(0.2, 0.4 + 0.1j)
    z = cmath.exp(0.8j)
    h = 1e-7
    fd = abs(m(z * cmath.exp(1j * h)) - m(z)) / h
    assert abs(fd - m.deriv_abs(z)) < 1e-5


def test_log_deriv_angle_integrates_to_zero():
    # the boundary action is a circle diffeomorphism, so mean of log|m'| under
    # the image measure telescopes: integral of |m'| d theta = 2 pi
    m = MobiusCircleMap(1.3, 0.5 + 0.2j)
    th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    total = np.mean(np.exp(m.log_deriv_angle(th))) * TWO_PI
    assert abs(total - TWO_PI) < 1e-6


def test_mobius_from_triple_anchors_and_order():
    src = (CirclePoint(-1.0), CirclePoint(0.5), CirclePoint(2.0))
    dst = (CirclePoint(-2.0), CirclePoint(0.1), CirclePoint(1.4))
    m = mobius_from_triple(src, dst)
    for s, t in zip(src, dst):
        assert abs(m(s.z) - t.z) < 1e-12
    with pytest.raises(ValidationError):
        mobius_from_triple((src[0], src[2], src[1]), dst)


def test_mobius_from_triple_identity():
    trip = (CirclePoint(-0.4), CirclePoint(0.2), CirclePoint(1.1))
    m = mobius_from_triple(trip, trip)
    assert abs(m.pole) < 1e-12 and abs(m.rotation) < 1e-12
