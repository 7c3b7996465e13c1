"""Driving terms and the radial flow engine.

Expected values come from tests/oracles.py: closed forms for the constant
driver (from the boundary angle equation and the slit capacity formula) and
an independent scipy integrator for everything path-dependent.
"""

import math

import numpy as np
import pytest

import oracles
from slitweld.errors import (
    HitSingularityError,
    TraceError,
    ValidationError,
)
from slitweld.loewner import (
    PRECISE_FLOW_PARAMS,
    DrivingTerm,
    boundary_flow,
    downward_flow,
    hitting_profile,
    hitting_time,
    slit_preimage_endpoints,
    trace_curve,
    trace_point,
    upward_flow,
)


def test_driver_validation():
    with pytest.raises(ValidationError):
        DrivingTerm([0.0, 1.0], [0.0])
    with pytest.raises(ValidationError):
        DrivingTerm([0.0, 1.0], [0.1, 0.2])         # sigma(0) != 0
    with pytest.raises(ValidationError):
        DrivingTerm([0.1, 1.0], [0.0, 0.2])         # grid must start at 0
    with pytest.raises(ValidationError):
        DrivingTerm([0.0, 0.5, 0.5], [0.0, 0.1, 0.2])
    with pytest.raises(ValidationError):
        DrivingTerm([0.0, np.inf], [0.0, 0.0])
    with pytest.raises(ValidationError):
        DrivingTerm.constant(0.0)


def test_driver_sampling_and_grading():
    d = DrivingTerm.from_function(lambda t: 0.3 * math.sqrt(t) + 0.1, 2.0, 8, power=2.0)
    assert d.sigma[0] == 0.0                        # shifted so sigma(0) = 0
    assert abs(d.T - 2.0) < 1e-15
    k = np.arange(9)
    assert np.max(np.abs(d.grid - 2.0 * (k / 8.0) ** 2)) < 1e-15
    # interpolation hits the nodes exactly and clamps outside the horizon
    assert d.sigma_at(d.grid[3]) == pytest.approx(d.sigma[3], abs=1e-15)
    assert d.sigma_at(-1.0) == 0.0
    assert d.sigma_at(5.0) == d.sigma[-1]
    t = np.linspace(0.0, 2.0, 17)
    scalar = np.array([d.sigma_at(tk) for tk in t])
    assert np.max(np.abs(d.sigma_at_array(t) - scalar)) < 1e-14


def test_driver_breaks_in():
    d = DrivingTerm([0.0, 0.25, 0.7, 1.0], [0.0, 0.2, -0.1, 0.3])
    assert d.breaks_in(0.0, 1.0) == [0.25, 0.7]
    assert d.breaks_in(0.3, 0.7) == []
    # reversed time: kinks of sigma(T - s) sit at s = T - node
    assert d.breaks_in(0.0, 1.0, reversed_time=True) == pytest.approx([0.3, 0.75])


def test_upward_flow_fixes_origin_and_contracts(d_sqrt):
    assert upward_flow(d_sqrt, 0j, d_sqrt.T) == 0j
    # derivative at 0 is e^{-t}: Richardson in the probe offset kills the O(h)
    t = 0.8
    d1 = upward_flow(d_sqrt, 1e-5 + 0j, t, PRECISE_FLOW_PARAMS) / 1e-5
    d2 = upward_flow(d_sqrt, 5e-6 + 0j, t, PRECISE_FLOW_PARAMS) / 5e-6
    assert abs((2.0 * d2 - d1) - math.exp(-t)) < 1e-9
    with pytest.raises(ValidationError):
        upward_flow(d_sqrt, 1.0 + 0j, 0.5)
    with pytest.raises(ValidationError):
        upward_flow(d_sqrt, 0.5 + 0j, d_sqrt.T + 1.0)


def test_upward_flow_matches_reference_integrator(d_sqrt):
    for z, t in [(0.5 + 0.3j, d_sqrt.T), (-0.7 + 0.1j, 0.37), (0.2 - 0.6j, 1.0)]:
        got = upward_flow(d_sqrt, z, t, PRECISE_FLOW_PARAMS)
        ref = oracles.scipy_upward(d_sqrt.sigma_at, z, t)
        assert abs(got - ref) < 1e-8


def test_downward_inverts_upward_at_horizon(d_sqrt):
    for z in (0.4 + 0.2j, -0.3 - 0.5j, 0.05 + 0.85j):
        w = upward_flow(d_sqrt, z, d_sqrt.T, PRECISE_FLOW_PARAMS)
        back = downward_flow(d_sqrt, w, d_sqrt.T, PRECISE_FLOW_PARAMS)
        assert abs(back - z) < 1e-9


def test_downward_flow_hits_slit_points(d_const):
    # the horizon-log2 radial slit reaches inward to 3 - 2 sqrt(2) < 0.5,
    # so 0.5 on the positive real axis lies on the slit and must crash
    with pytest.raises(HitSingularityError) as info:
        downward_flow(d_const, 0.5 + 0j, d_const.T)
    assert 0.0 < info.value.t <= d_const.T
    # a point far from the slit survives the full horizon
    downward_flow(d_const, -0.5 + 0j, d_const.T)


def test_boundary_flow_matches_reference_integrator(d_sqrt):
    ts, ths, hit = boundary_flow(d_sqrt, 3.0, d_sqrt.T, PRECISE_FLOW_PARAMS)
    assert not hit
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(d_sqrt.T, abs=1e-12)
    ref = oracles.scipy_boundary_angle(d_sqrt.sigma_at, 3.0, d_sqrt.T)
    assert abs(ths[-1] - ref) < 1e-6


def test_hitting_time_radial_closed_form(d_const):
    for theta0 in (0.3, 0.8, 1.2):
        tau, side = hitting_time(d_const, theta0)
        assert side == "plus"
        assert abs(tau - oracles.radial_hitting_time(theta0)) < 5e-6
    tau, side = hitting_time(d_const, -0.8)
    assert side == "minus"
    assert abs(tau - oracles.radial_hitting_time(0.8)) < 5e-6


def test_hitting_time_survivor_returns_none(d_const):
    # the preimage arc ends at pi/2; angle 2.0 survives to the horizon
    assert hitting_time(d_const, 2.0) is None


def test_slit_preimage_endpoints_radial(d_const):
    am, ap = slit_preimage_endpoints(d_const)
    want = oracles.radial_alpha(d_const.T)
    assert abs(ap.angle - want) < 1e-5
    assert abs(am.angle + want) < 1e-5


def test_hitting_profile_radial(d_const):
    prof_p, prof_m = hitting_profile(d_const, n=8)
    assert prof_p.side == "plus" and prof_m.side == "minus"
    assert np.all(np.diff(prof_p.times) > 0.0)
    assert np.all(prof_p.angles > 0.0) and np.all(prof_m.angles < 0.0)
    for prof in (prof_p, prof_m):
        want = np.array([oracles.radial_hitting_time(abs(a)) for a in prof.angles])
        assert np.max(np.abs(prof.times - want)) < 1e-5
    with pytest.raises(ValidationError):
        hitting_profile(d_const, n=1)


def test_trace_point_radial_tip_off_anchor():
    # T = 0.85 sits away from every worked anchor; only the capacity
    # inversion in the oracle predicts the tip there
    d = DrivingTerm.constant(0.85)
    s = trace_point(d, 0.85)
    assert abs(s.tip.imag) < 1e-12
    assert abs(s.tip.real - oracles.radial_tip(0.85)) < 1e-4
    assert s.residual < 1e-3


@pytest.mark.parametrize("T", [0.1, math.log(2.0), 0.85, 2.0])
def test_trace_point_radial_tip_and_residual_bound(T):
    # the tip flow starts at the singularity itself, so even short horizons,
    # where the slit is a short spike off the circle, are resolved fully;
    # the residual must bound the actual error, not merely be small
    s = trace_point(DrivingTerm.constant(T), T)
    err = abs(s.tip - oracles.radial_tip(T))
    assert err < 1e-9
    assert s.residual >= err


def test_trace_and_absorbed_angles_match_precise_flows(d_sqrt):
    tips = trace_curve(d_sqrt, 8)
    precise = trace_curve(d_sqrt, 8, PRECISE_FLOW_PARAMS)
    assert max(abs(a.tip - b.tip) for a, b in zip(tips, precise)) < 1e-8
    for prof, ref in zip(hitting_profile(d_sqrt, n=8),
                         hitting_profile(d_sqrt, n=8, params=PRECISE_FLOW_PARAMS)):
        assert np.max(np.abs(prof.angles - ref.angles)) < 1e-8


def test_trace_curve_radial_monotone(d_const):
    samples = trace_curve(d_const, 4)
    assert len(samples) == 4
    tips = np.array([s.tip.real for s in samples])
    times = np.array([s.t for s in samples])
    assert np.max(np.abs(times - d_const.T * np.arange(1, 5) / 4.0)) < 1e-15
    # the radial slit grows inward, so the tip radius decreases with time
    assert np.all(np.diff(tips) < 0.0)
    want = np.array([oracles.radial_tip(t) for t in times])
    assert np.max(np.abs(tips - want)) < 1e-4


def test_trace_point_validation_and_residual_gate(d_const):
    with pytest.raises(ValidationError):
        trace_point(d_const, 0.0)
    with pytest.raises(ValidationError):
        trace_point(d_const, d_const.T + 0.1)
    with pytest.raises(TraceError):
        trace_point(d_const, d_const.T, residual_tol=1e-12)
