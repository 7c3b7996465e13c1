"""Welding extraction and the radial closed form.

The constant driver is the anchor case: its welding is theta -> -theta with
crash times tau(theta) = -2 log cos(theta/2) [DERIVED in tests/oracles.py from
the boundary angle equation], which pins every column of the extraction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import radial_slit_welding
from slitweld.errors import ValidationError
from slitweld.loewner import DrivingTerm, slit_preimage_endpoints
from slitweld.welding import (
    Welding,
    _conjugated_welding,
    extract_welding,
    pair_residuals,
    welding_as_homeomorphism,
    welding_log_derivative,
)


TWO_PI = 2.0 * math.pi


def _toy_welding():
    return Welding([0.0, 1.0, 2.0], [0.0, 0.2, 0.35], [0.0, -0.15, -0.4])


def test_welding_validation():
    with pytest.raises(ValidationError):
        Welding([0.5, 1.0], [0.0, 0.2], [0.0, -0.2])         # base time not 0
    with pytest.raises(ValidationError):
        Welding([0.0, 1.0], [0.1, 0.2], [0.0, -0.2])         # base angle not 0
    with pytest.raises(ValidationError):
        Welding([0.0, 1.0, 2.0], [0.0, 0.3, 0.2], [0.0, -0.1, -0.2])
    with pytest.raises(ValidationError):
        Welding([0.0, 1.0, 2.0], [0.0, 0.1, 0.2], [0.0, -0.2, -0.1])
    with pytest.raises(ValidationError):
        Welding([0.0, 1.0], [0.0, 3.2], [0.0, -3.2])         # covers the circle
    with pytest.raises(ValidationError):
        Welding([0.0, np.nan], [0.0, 0.2], [0.0, -0.2])


def test_welding_accessors():
    w = _toy_welding()
    assert w.T == 2.0
    assert abs(w.alpha_plus.angle - 0.35) < 1e-15
    assert abs(w.alpha_minus.angle + 0.4) < 1e-15
    assert abs(w.arc_plus.length - 0.35) < 1e-15
    assert abs(w.arc_minus.length - 0.4) < 1e-15


def test_closed_form_radial_welding_off_anchor():
    # t_slit for horizons T = 1 and log 2; every column has a closed form
    for T in (1.0, math.log(2.0)):
        t_slit = oracles.radial_tip(T)
        w = radial_slit_welding(t_slit, n=32)
        assert abs(w.T - oracles.radial_T_of_tslit(t_slit)) < 1e-12
        assert abs(w.T - T) < 1e-12
        want = np.array([oracles.radial_theta_of_time(t) for t in w.times])
        assert np.max(np.abs(w.theta_plus - want)) < 1e-13
        assert np.max(np.abs(w.theta_minus + want)) < 1e-13
        assert abs(w.alpha_plus.angle - oracles.radial_alpha(T)) < 1e-12
        assert abs(w.alpha_minus.angle + oracles.radial_alpha(T)) < 1e-12


def test_extraction_matches_radial_closed_form(w_const_256, d_const):
    w = w_const_256
    n = w.times.size - 1
    assert np.max(np.abs(w.times - d_const.T * np.arange(n + 1) / n)) < 1e-12
    want = np.array([oracles.radial_theta_of_time(t) for t in w.times])
    assert np.max(np.abs(w.theta_plus - want)) < 1e-5
    # conjugation symmetry of the slit carries over to the angle columns
    assert np.max(np.abs(w.theta_minus + w.theta_plus)) < 1e-5


@pytest.mark.parametrize("c", [0.2, 0.4, -1.5])
def test_extraction_matches_linear_closed_form(c):
    # sigma = c t moves the singularity, so the two columns differ and each
    # side has its own closed form, which the exact cell map reproduces
    d = DrivingTerm([0.0, 1.0], [0.0, c])
    w = extract_welding(d, 32)
    want_p = [oracles.linear_theta_of_time(t, c) for t in w.times[1:]]
    want_m = [oracles.linear_theta_of_time(t, c, "minus") for t in w.times[1:]]
    assert np.max(np.abs(w.theta_plus[1:] - want_p)) <= 1e-13
    assert np.max(np.abs(w.theta_minus[1:] - want_m)) <= 1e-13
    am, ap = slit_preimage_endpoints(d)
    assert abs(ap.angle - want_p[-1]) <= 1e-13
    assert abs(am.angle - want_m[-1]) <= 1e-13


def test_extraction_endpoints_match_high_precision_cell_maps(w_sqrt_256):
    # the last pair comes from the same sweep as the others, and is the
    # t = 1 column of the 40-digit evaluation of the graded driver's cell maps
    plus, minus = (side[-1] for side in oracles.SQRT_ABSORBED_ANGLES)
    assert oracles.SQRT_TIMES[-1] == w_sqrt_256.T
    assert abs(w_sqrt_256.theta_plus[-1] - plus) <= 1e-14
    assert abs(w_sqrt_256.theta_minus[-1] - minus) <= 1e-14


@pytest.mark.parametrize("cells", [1, 7, 256, 4097])
@pytest.mark.parametrize("c", [0.4, -1.5])
def test_extraction_keeps_the_closed_form_across_many_cells(c, cells):
    # sigma = c t cut into equal cells: every cell map is exact, so the
    # stopping error each one leaves must not pile up over the sweep
    grid = np.linspace(0.0, 1.0, cells + 1)
    w = extract_welding(DrivingTerm(grid, c * grid), 8)
    want_p = [oracles.linear_theta_of_time(t, c) for t in w.times[1:]]
    want_m = [oracles.linear_theta_of_time(t, c, "minus") for t in w.times[1:]]
    assert np.max(np.abs(w.theta_plus[1:] - want_p)) <= 1e-13
    assert np.max(np.abs(w.theta_minus[1:] - want_m)) <= 1e-13


def _angle_gap(a, b):
    return np.abs(np.mod(np.asarray(a) - b + math.pi, 2.0 * math.pi) - math.pi)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), const=st.floats(0.05, 0.5))
def test_extraction_properties_on_random_drivers(seed, const):
    grid, sigma = oracles.random_lip_half_nodes(np.random.default_rng(seed), n=32,
                                                const=const)
    d = DrivingTerm(grid, sigma)
    w = extract_welding(d, 12)
    assert np.all(np.diff(w.theta_plus) > 0.0)
    assert np.all(np.diff(w.theta_minus) < 0.0)
    am, ap = slit_preimage_endpoints(d)
    assert _angle_gap(w.alpha_plus.angle, ap.angle) < 1e-12
    assert _angle_gap(w.alpha_minus.angle, am.angle) < 1e-12
    # forward flows from the extracted angles are absorbed at the pair's
    # time; the endpoints are absorbed at the horizon itself, where the
    # forward flow may also just survive
    for side, column in (("plus", w.theta_plus), ("minus", w.theta_minus)):
        for t, theta in zip(w.times[1:], column[1:]):
            hit = oracles.hitting_time(d, theta)
            if hit is None:
                assert t == d.T
                continue
            assert hit[1] == side
            assert abs(hit[0] - t) < 1e-7


def test_extraction_resolution_floor(d_const):
    with pytest.raises(ValidationError):
        extract_welding(d_const, n=4)


def _quarter_midpoints(m):
    """Midpoints of m equal cells of the arc from 1 to i."""
    return (np.arange(m) + 0.5) * (0.5 * math.pi / m)


@pytest.mark.parametrize("name", ["w_linear", "w_sqrt_256", "radial"])
def test_conjugated_welding_matches_the_mobius_composition(name, request):
    w = (radial_slit_welding(3.0 - 2.0 * math.sqrt(2.0), 256) if name == "radial"
         else request.getfixturevalue(name))
    chi, chi_ld = _conjugated_welding(w)
    ref_chi, ref_ld = oracles.mobius_conjugated_welding(w)
    th = np.concatenate([[0.0, 0.5 * math.pi]]
                        + [_quarter_midpoints(2 ** k) for k in range(6, 13)])
    with np.errstate(all="raise"):   # no pole of the chart at 1 or i
        got, got_ld = chi(th), chi_ld(th)
    assert np.max(np.abs(got - ref_chi(th))) <= 1e-14
    want_ld = ref_ld(th)
    assert np.all(np.abs(got_ld - want_ld) <= 1e-12 * np.maximum(1.0, np.abs(want_ld)))
    # any lift of the arc: psi's B piece passes theta - pi in (-2 pi, -3 pi / 2]
    lifted = th - TWO_PI
    assert np.array_equal(chi(lifted), chi(lifted + TWO_PI))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
def test_conjugated_welding_on_a_long_minus_arc():
    # sigma = -3t on [0, 3]: alpha_minus lifts to about -5.64, so tau's pole
    # lies near the circle and oracles.mobius_conjugated_welding cancels
    # (its errors are 4.0e-9 and 1.6e-7 at these angles).  The 256 midpoints
    # of the base quadrature level are used: closer to i, phi' grows past 1e4
    # and amplifies the last-bit rounding of any double tau(theta).
    w = extract_welding(DrivingTerm([0.0, 3.0], [0.0, -9.0]), 256)
    assert w.theta_minus[-1] < -math.pi
    th = _quarter_midpoints(256)
    want, want_ld = oracles.longdouble_conjugated_welding(w, th)
    chi, chi_ld = _conjugated_welding(w)
    assert np.max(np.abs(chi(th) - want)) <= 1e-11
    assert np.max(np.abs(chi_ld(th) - want_ld)) <= 1e-9


def test_log_derivative_radial_exact():
    w = radial_slit_welding(3.0 - 2.0 * math.sqrt(2.0), n=64)
    f = welding_log_derivative(w)
    assert np.max(np.abs(f.values)) < 1e-13           # phi(theta) = -theta
    with pytest.raises(ValidationError):
        welding_log_derivative(Welding([0.0, 1.0], [0.0, 0.2], [0.0, -0.2]))


def test_log_derivative_extracted_near_zero(w_const_256):
    f = welding_log_derivative(w_const_256)
    assert np.max(np.abs(f.values[1:-1])) < 1e-3


def test_as_homeomorphism_radial():
    w = radial_slit_welding(3.0 - 2.0 * math.sqrt(2.0), n=64)
    h = welding_as_homeomorphism(w)
    th = w.theta_plus[1:-1]
    assert np.max(np.abs(oracles.homeomorphism_angle_map(h, th) + th)) < 1e-12


def test_pair_residuals_radial(d_const, w_const_256):
    res = pair_residuals(d_const, w_const_256)
    assert res.size == w_const_256.times.size - 1
    assert np.max(res) <= 1e-13
    closed = radial_slit_welding(3.0 - 2.0 * math.sqrt(2.0), 64)
    assert np.max(pair_residuals(d_const, closed)) <= 1e-13


def test_pair_residuals_of_extracted_weldings(d_sqrt, w_sqrt_256):
    d_lin = DrivingTerm([0.0, 1.0], [0.0, 0.4])
    w_lin = extract_welding(d_lin, 64)
    assert np.max(pair_residuals(d_lin, w_lin)) <= 1e-13
    times = w_lin.times[1:].tolist()
    closed = Welding(w_lin.times,
                     [0.0] + [oracles.linear_theta_of_time(t, 0.4) for t in times],
                     [0.0] + [oracles.linear_theta_of_time(t, 0.4, "minus") for t in times])
    assert np.max(pair_residuals(d_lin, closed)) <= 1e-13
    assert np.max(pair_residuals(d_sqrt, w_sqrt_256)) <= 1e-13
    # either side off by a relative 1e-9 shows
    for plus, minus in ((1.0 + 1e-9, 1.0), (1.0, 1.0 + 1e-9)):
        off = Welding(w_lin.times, plus * w_lin.theta_plus, minus * w_lin.theta_minus)
        assert np.max(pair_residuals(d_lin, off)) > 1e-10
    # a driver one fortieth less steep welds visibly different pairs
    assert np.max(pair_residuals(DrivingTerm([0.0, 1.0], [0.0, 0.39]), w_lin)) > 1e-3


def test_pair_residuals_rejects_another_horizon(d_const, w_const_256):
    with pytest.raises(ValidationError):
        pair_residuals(DrivingTerm([0.0, 0.7], [0.0, 0.0]), w_const_256)
