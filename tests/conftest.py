"""Shared fixtures: reference drivers and their extracted weldings.

Each extraction sweeps every driver cell with one Newton solve, which is
cheap but not free on the 256-cell graded driver, so the suite shares one
extraction per (driver, resolution) across all tests.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from slitweld.loewner import DrivingTerm
from slitweld.welding import extract_welding

T_LOG2 = math.log(2.0)


@pytest.fixture(scope="session")
def d_const():
    """Constant driver at 1 with horizon log 2: the centered radial slit."""
    return DrivingTerm([0.0, T_LOG2], [0.0, 0.0])


@pytest.fixture(scope="session")
def d_sqrt():
    """sigma(t) = 0.4 sqrt(t) on [0, 1], nodes clustered near 0.

    256 cells with power-2 grading keep the discrete half-order norm at the
    0.4 of the continuum driver while every flow lands on each grid kink.
    """
    return DrivingTerm.from_function(lambda t: 0.4 * np.sqrt(t), 1.0, 256, power=2)


@pytest.fixture(scope="session")
def w_const_256(d_const):
    return extract_welding(d_const, 256)


@pytest.fixture(scope="session")
def w_linear():
    """Welding of the linear driver sigma(t) = 0.4 t at 256 samples.

    A smooth small-norm driver keeps log |psi'| of its circle extension
    continuous at the welding fixed point, so the circle-squared energy is
    finite and the tiling identity is testable; square-root drivers break the
    one-sided derivative symmetry there (see the stability gate instead).
    """
    return extract_welding(DrivingTerm([0.0, 1.0], [0.0, 0.4]), 256)


@pytest.fixture(scope="session")
def w_sqrt_256(d_sqrt):
    return extract_welding(d_sqrt, 256)


@pytest.fixture(scope="session")
def w_sqrt_512(d_sqrt):
    return extract_welding(d_sqrt, 512)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
