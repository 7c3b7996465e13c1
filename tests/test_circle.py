"""Circle points, arcs, and Mobius boundary maps."""

import math

import numpy as np
import pytest

import oracles
from slitweld.arcfun import ArcHomeomorphism
from slitweld.circle import CirclePoint, MobiusCircleMap, arc, canonical_angle
from slitweld.constructions import build_psi
from slitweld.errors import ValidationError

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
    assert oracles.homeomorphism_angle_map(h, 1.0) == math.pi
    assert MobiusCircleMap(0.0, 0j).apply_angle(-math.pi) == math.pi
    # the identity piece of psi returns angles of the upper half arc unchanged
    psi = build_psi(oracles.radial_slit_welding(3.0 - 2.0 * math.sqrt(2.0), 64))
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
