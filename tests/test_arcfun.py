"""Sampled arc functions and monotone arc homeomorphisms."""

import math

import numpy as np
import pytest

import oracles
from slitweld.arcfun import ArcFunction, ArcHomeomorphism
from slitweld.circle import arc
from slitweld.errors import ValidationError


def test_arc_function_validates_samples():
    a = arc(0.0, 1.0)
    with pytest.raises(ValidationError):
        ArcFunction(a, [0.0, 0.5, 0.4], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        ArcFunction(a, [0.0, 2.0], [1.0, 2.0])        # offset beyond arc
    with pytest.raises(ValidationError):
        ArcFunction(a, [0.0], [1.0])


def test_arc_function_interpolates_and_clamps():
    a = arc(0.0, 1.0)
    f = ArcFunction(a, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert abs(f.eval_offset(0.25) - 0.5) < 1e-15
    assert abs(f.eval_offset(2.0) - 0.0) < 1e-15         # clamped at the end
    assert abs(f.eval_angle(0.5) - 1.0) < 1e-15


def test_homeomorphism_orientation_detection():
    a = arc(0.0, 1.0)
    ArcHomeomorphism(a, a, [0.0, 0.5, 1.0], [0.0, 0.6, 1.0])
    ArcHomeomorphism(a, a, [0.0, 0.5, 1.0], [1.0, 0.4, 0.0])
    with pytest.raises(ValidationError):
        ArcHomeomorphism(a, a, [0.0, 0.5, 1.0], [0.0, 0.7, 0.6])


def test_homeomorphism_identity_and_angle_map():
    a = arc(-0.5, 0.75)
    s = np.linspace(0.0, a.length, 5)
    h = ArcHomeomorphism(a, a, s, s.copy())
    th = np.linspace(-0.5, 0.75, 9)
    assert np.max(np.abs(oracles.homeomorphism_angle_map(h, th) - th)) < 1e-12


def test_log_deriv_offset_piecewise_slopes():
    a = arc(0.0, 2.0)
    h = ArcHomeomorphism(a, a, [0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
    assert abs(oracles.homeomorphism_log_deriv_offset(h, 0.3) - math.log(0.5)) < 1e-15
    assert abs(oracles.homeomorphism_log_deriv_offset(h, 1.7) - math.log(1.5)) < 1e-15


def test_homeomorphism_rejects_out_of_arc_images():
    a = arc(0.0, 1.0)
    with pytest.raises(ValidationError):
        ArcHomeomorphism(a, a, [0.0, 1.0], [0.0, 1.5])
