"""Circle points, arcs, and Mobius boundary maps."""

import cmath
import math

import numpy as np
import pytest

from slitweld.arcfun import ArcHomeomorphism
from slitweld.circle import CirclePoint, MobiusCircleMap, arc, canonical_angle
from slitweld.constructions import build_psi
from slitweld.errors import ValidationError
from slitweld.welding import Welding, radial_slit_welding

TWO_PI = 2.0 * math.pi


def test_canonical_angle_interval():
    assert canonical_angle(math.pi) == math.pi
    assert canonical_angle(-math.pi) == math.pi
    assert abs(canonical_angle(TWO_PI + 0.3) - 0.3) < 1e-15
    assert abs(canonical_angle(-7.0) - (-7.0 + TWO_PI)) < 1e-15
    assert type(canonical_angle(0.5)) is float
    # arrays: element by element the scalar rule, in-range angles bit for bit
    th = np.array([1e-10, 0.1, -0.3, math.pi, -math.pi, TWO_PI + 0.3, -7.0, 20.0])
    out = canonical_angle(th)
    assert isinstance(out, np.ndarray) and out.shape == th.shape
    assert out.tolist() == [canonical_angle(float(t)) for t in th]
    assert out[:4].tolist() == [1e-10, 0.1, -0.3, math.pi]
    assert out[4] == math.pi
    assert np.all((out > -math.pi) & (out <= math.pi))


def test_circle_maps_share_the_canonical_interval():
    h = ArcHomeomorphism(arc(0.0, 1.0), arc(0.5 * math.pi, -2.0), [0.0, 1.0],
                         [0.0, 0.5 * math.pi])
    assert h.angle_map(1.0) == math.pi
    assert Welding([0.0, 1.0], [0.0, 1.0], [0.0, -math.pi]).apply_angle(1.0) == math.pi
    assert MobiusCircleMap(0.0, 0j).apply_angle(-math.pi) == math.pi
    # the identity piece of psi returns angles of the upper half arc unchanged
    psi = build_psi(radial_slit_welding(3.0 - 2.0 * math.sqrt(2.0), 64))
    th = np.linspace(0.0, math.pi, 1001)[1:-1]
    assert np.array_equal(psi.apply_angle(th), th)


def test_circle_point_canonicalizes():
    p = CirclePoint(3.0 * math.pi)
    assert p.angle == math.pi
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

