"""Driving terms and the radial flow engine.

Expected values come from tests/oracles.py: closed forms for the constant
driver (from the boundary angle equation and the slit capacity formula) and
an independent scipy integrator for everything path-dependent.
"""

import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import trace_point
from slitweld.errors import (
    DiagnosticsError,
    HitSingularityError,
    IntegrationError,
    TraceError,
    ValidationError,
)
from slitweld import loewner
from slitweld.cli import main
from slitweld.loewner import (
    DEFAULT_FLOW_PARAMS,
    PRECISE_FLOW_PARAMS,
    DrivingTerm,
    FlowParams,
    boundary_flow,
    downward_flow,
    slit_preimage_endpoints,
    trace_curve,
    upward_flow,
)
from slitweld.welding import extract_welding


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
    with np.errstate(all="raise"):
        with pytest.raises(ValidationError, match="increment on cell 1"):
            DrivingTerm([0.0, 0.5, 1.0], [0.0, 1e308, -1e308])
        with pytest.raises(ValidationError, match="slope on cell 0"):
            DrivingTerm([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0])


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


def test_driver_breaks_in():
    d = DrivingTerm([0.0, 0.25, 0.7, 1.0], [0.0, 0.2, -0.1, 0.3])
    assert d.breaks_in(0.0, 1.0) == [0.25, 0.7]
    assert d.breaks_in(0.3, 0.7) == []


def test_driver_breaks_in_matches_node_scan(d_sqrt, rng):
    g = d_sqrt.grid.tolist()
    rev = [d_sqrt.T - x for x in reversed(g)]
    ends = [(float(a), float(b)) for a, b in np.sort(rng.uniform(-0.1, 1.1, (50, 2)))]
    ends += [(g[i], g[j]) for i in range(0, 257, 16) for j in range(i, 257, 16)]
    ends += [(rev[i], rev[j]) for i in range(0, 257, 16) for j in range(i, 257, 16)]
    for t0, t1 in ends:
        assert d_sqrt.breaks_in(t0, t1) == [p for p in g if t0 < p < t1]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), const=st.floats(0.05, 0.5),
       radius=st.floats(0.0, 0.9), angle=st.floats(0.0, 2.0 * math.pi))
def test_upward_flow_inverts_downward_flow_on_random_drivers(seed, const, radius, angle):
    grid, sigma = oracles.random_lip_half_nodes(np.random.default_rng(seed), const=const)
    d = DrivingTerm(grid, sigma)
    z = radius * cmath.exp(1j * angle)
    assert abs(upward_flow(d, downward_flow(d, z, d.T), d.T) - z) < 1e-9


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
    # a time past the horizon by rounding runs to the horizon
    for flow in (upward_flow, downward_flow):
        assert flow(d_sqrt, 0.5 + 0.3j, d_sqrt.T + 1e-13) == flow(d_sqrt, 0.5 + 0.3j, d_sqrt.T)


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
    t, theta, hit = boundary_flow(d_sqrt, 3.0, d_sqrt.T, PRECISE_FLOW_PARAMS)
    assert not hit
    assert t == pytest.approx(d_sqrt.T, abs=1e-12)
    ref = oracles.scipy_boundary_angle(d_sqrt.sigma_at, 3.0, d_sqrt.T)
    assert abs(theta - ref) < 1e-6


@pytest.mark.parametrize("flow", [upward_flow, downward_flow, boundary_flow])
@pytest.mark.parametrize("start", [math.nan, math.inf])
def test_flows_reject_non_finite_start_before_any_step(d_sqrt, monkeypatch, flow, start):
    def walk(*args):
        raise AssertionError("the flow took a step")

    monkeypatch.setattr(loewner, "_walk", walk)
    with pytest.raises(ValidationError):
        flow(d_sqrt, start, d_sqrt.T)


def test_hitting_time_radial_closed_form(d_const):
    for theta0 in (0.3, 0.8, 1.2):
        tau, side = oracles.hitting_time(d_const, theta0)
        assert side == "plus"
        assert abs(tau - oracles.radial_hitting_time(theta0)) < 5e-6
    tau, side = oracles.hitting_time(d_const, -0.8)
    assert side == "minus"
    assert abs(tau - oracles.radial_hitting_time(0.8)) < 5e-6


def test_hitting_time_survivor_returns_none(d_const):
    # the preimage arc ends at pi/2; angle 2.0 survives to the horizon
    assert oracles.hitting_time(d_const, 2.0) is None


def test_slit_preimage_endpoints_radial(d_const):
    am, ap = slit_preimage_endpoints(d_const)
    want = oracles.radial_alpha(d_const.T)
    assert abs(ap.angle - want) <= 1e-13
    assert abs(am.angle + want) <= 1e-13


def test_trace_point_radial_tip_off_anchor():
    # T = 0.85 sits away from every worked anchor; only the capacity
    # inversion in the oracle predicts the tip there
    d = DrivingTerm([0.0, 0.85], [0.0, 0.0])
    s = trace_point(d, 0.85)
    assert abs(s.tip.imag) < 1e-12
    assert abs(s.tip.real - oracles.radial_tip(0.85)) < 1e-4
    assert s.residual < 1e-3


@pytest.mark.parametrize("T", [0.1, math.log(2.0), 0.85, 2.0])
def test_trace_point_radial_tip_and_residual_bound(T):
    # the tip flow starts at the singularity itself, so even short horizons,
    # where the slit is a short spike off the circle, are resolved fully;
    # the residual must bound the actual error, not merely be small
    s = trace_point(DrivingTerm([0.0, T], [0.0, 0.0]), T)
    err = abs(s.tip - oracles.radial_tip(T))
    assert err < 1e-9
    assert s.residual >= err


def test_trace_and_absorbed_angles_match_precise_flows(d_sqrt):
    tips = trace_curve(d_sqrt, 8)
    assert max(abs(s.tip - oracles.scipy_trace_tip(d_sqrt, s.t)) for s in tips) < 1e-12
    w = extract_welding(d_sqrt, 8)
    for angles, sign in ((w.theta_plus, 1.0), (w.theta_minus, -1.0)):
        ref = [oracles.scipy_absorbed_angle(d_sqrt, t, sign) for t in w.times[1:]]
        assert np.max(np.abs(angles[1:] - ref)) < 1e-10


@pytest.mark.parametrize("nodes", [
    *(oracles.random_lip_half_nodes(np.random.default_rng(seed)) for seed in range(3)),
    ([0.0, 1.0], [0.0, -20.0]),
], ids=["random0", "random1", "random2", "slope-20"])
def test_trace_tips_match_scipy_oracle(nodes):
    # the one-cell driver of slope -20 is cut into 20 pieces; without them the
    # tips would wind 20 radians in one Newton solve
    d = DrivingTerm(*nodes)
    tips = trace_curve(d, 8)
    assert max(abs(s.tip - oracles.scipy_trace_tip(d, s.t)) for s in tips) < 1e-12


# slopes 6 and -6: on the first cell the minus side starts above its fixed
# point w* = pi - 2 atan 6 and moves down toward it
_STEEP = ([0.0, 0.5, 1.0], [0.0, 3.0, 0.0])


@pytest.mark.parametrize("nodes", [
    *(oracles.random_lip_half_nodes(np.random.default_rng(seed)) for seed in range(3)), _STEEP,
], ids=["random0", "random1", "random2", "steep"])
def test_absorbed_angles_match_scipy_oracle(nodes):
    d = DrivingTerm(*nodes)
    times = [0.013, 0.2, 0.37, 0.5, 0.75, 1.0]
    got = loewner._absorbed_angles(d, times)
    for row, sign in zip(got, (1.0, -1.0)):
        ref = [oracles.scipy_absorbed_angle(d, t, sign) for t in times]
        assert np.max(np.abs(row - ref)) < 1e-10
    if nodes is _STEEP:
        assert -got[1, -1] > math.pi - 2.0 * math.atan(6.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_absorbed_angles_on_steep_random_drivers(seed):
    # slopes up to about 280 in magnitude: angles settle on fixed points
    # within a cell, so the predictors miss and the bracket has to take over
    d = DrivingTerm(*oracles.random_lip_half_nodes(np.random.default_rng(seed), n=200,
                                                   const=20.0))
    times = [0.05, 0.5, 1.0]
    got = loewner._absorbed_angles(d, times)
    for row, sign in zip(got, (1.0, -1.0)):
        ref = [oracles.scipy_absorbed_angle(d, t, sign) for t in times]
        assert np.max(np.abs(row - ref)) < 1e-9


def test_cell_map_does_not_stop_on_the_fixed_point(monkeypatch):
    # at w* the rate cot(w/2) + c is 0, so an iterate there takes a tiny
    # Newton step however far the root is; the map must move on or raise
    def on_fixed_point(w, dt, c, target, rate):
        return 2.0 * np.arctan2(1.0, -c)

    monkeypatch.setattr(loewner, "_predict", on_fixed_point)
    d = DrivingTerm(*_STEEP)
    times = [0.013, 0.2, 0.37, 0.5, 0.75, 1.0]
    try:
        got = loewner._absorbed_angles(d, times)
    except DiagnosticsError:
        return
    for row, sign in zip(got, (1.0, -1.0)):
        ref = [oracles.scipy_absorbed_angle(d, t, sign) for t in times]
        assert np.max(np.abs(row - ref)) < 1e-10


def test_absorbed_angles_match_high_precision_cell_maps(d_sqrt):
    # the 40-digit table pins the Newton stop and its error subtraction to
    # rounding; the scipy oracle above is good to about 1e-12 only
    got = loewner._absorbed_angles(d_sqrt, oracles.SQRT_TIMES)
    assert np.max(np.abs(got - np.array(oracles.SQRT_ABSORBED_ANGLES))) <= 1e-14


def test_absorbed_angles_settle_on_fixed_points():
    # slope -100 for unit time: each side ends within exp(-5000) of its fixed
    # point w* = pi -+ 2 atan 100, closer than any float, so the Newton
    # bracket collapses before the step does
    d = DrivingTerm([0.0, 1.0], [0.0, -100.0])
    plus, minus = loewner._absorbed_angles(d, [0.5, 1.0])
    assert np.max(np.abs(plus - (math.pi - 2.0 * math.atan(100.0)))) <= 1e-13
    assert np.max(np.abs(minus + (math.pi + 2.0 * math.atan(100.0)))) <= 1e-13


def test_trace_tips_match_high_precision_table(d_sqrt):
    # the 40-digit table pins the tip sweep's Newton stop to rounding: the
    # largest error measured was 1.2e-16, while the scipy oracle is good to
    # about 6e-14 only and the residuals run from 2.8e-15 to 2.4e-14
    for t, (re, im) in zip(oracles.SQRT_TIMES, oracles.SQRT_TRACE_TIPS):
        s = trace_point(d_sqrt, t)
        err = abs(s.tip - complex(re, im))
        assert err <= 3e-16
        assert err <= s.residual


def test_winding_trace_tips_match_high_precision_table():
    # slope -100 for unit time: the unwrapped L = ln(1 - p) winds to about
    # 100 radians, and the tip maps' Newton stop must not grow with it; a
    # stop scaled by |L| leaves the tips at 0.5 and 1 about 2.3e-13 off.
    # The largest error measured was 1.2e-14
    d = DrivingTerm([0.0, 1.0], [0.0, -100.0])
    for t, (re, im) in zip(oracles.SQRT_TIMES, oracles.WINDING_TRACE_TIPS):
        s = trace_point(d, t)
        err = abs(s.tip - complex(re, im))
        assert err <= 2e-14
        assert err <= s.residual


def test_winding_trace_residual_tracks_the_error():
    # the rounding of Im L, about 100 radians here, is counted once at the
    # tip and not on each of the 100 pieces: the residual at t = 1 reads
    # 1.6e-13, against an error of 1.1e-14 (1.9e-12 when counted per piece)
    d = DrivingTerm([0.0, 1.0], [0.0, -100.0])
    s = trace_point(d, 1.0)
    err = abs(s.tip - complex(*oracles.WINDING_TRACE_TIPS[-1]))
    assert err <= s.residual <= 2e-13


def test_trace_sweep_skips_pieces_below_the_first_birth(monkeypatch):
    # the tip at 0.003 is born at 0.997, in the last of the cell's 100 pieces
    d = DrivingTerm([0.0, 1.0], [0.0, -100.0])
    calls = [0]
    tip_map = loewner._tip_map

    def counted(*args):
        calls[0] += 1
        return tip_map(*args)

    monkeypatch.setattr(loewner, "_tip_map", counted)
    s = trace_point(d, 0.003)
    assert calls[0] == 1
    # bit for bit the tip of a sweep over every piece
    assert trace_curve(d, 1000)[2] == s


def test_tip_outside_the_disk_is_a_diagnostics_error(d_const, tmp_path, monkeypatch):
    # the driver's one cell is one piece; a wrong root on it must not be
    # written as a tip.  Of 128 tips (the trace default) the newest has
    # |tip| = 0.84, so e^0.5 puts it outside the disk
    tip_map = loewner._tip_map

    def wrong_root(*args):
        ell, err = tip_map(*args)
        return ell + 0.5, err

    monkeypatch.setattr(loewner, "_tip_map", wrong_root)
    with pytest.raises(DiagnosticsError):
        trace_curve(d_const, 128)
    driver, out = tmp_path / "driver.json", tmp_path / "trace.csv"
    driver.write_text(json.dumps({"T": d_const.T, "grid": d_const.grid.tolist(),
                                  "sigma": d_const.sigma.tolist()}))
    assert main(["trace", "--driver", str(driver), "--out", str(out)]) == 3
    assert not out.exists()


def test_trace_curve_radial_residuals_bound_errors(d_const):
    # the residual bounds the tip's error; at 1024 tips the earliest tip is
    # born next to the top of the driver's one cell
    for count in (128, 1024):
        for s in trace_curve(d_const, count):
            err = abs(s.tip - oracles.radial_tip(s.t))
            assert err < 1e-9
            assert s.residual >= err


@pytest.mark.parametrize("nodes", [
    None,
    ([0.0, 1.0], [0.0, -100.0]),
    oracles.random_lip_half_nodes(np.random.default_rng(1), n=200, const=20.0),
], ids=["graded", "slope-100", "random1"])
def test_trace_curve_matches_trace_point_bit_for_bit(nodes, d_sqrt):
    # the slope -100 cell is cut into 100 pieces and the random driver's
    # tips wind, so each tip map sees tips of many ages at once
    d = d_sqrt if nodes is None else DrivingTerm(*nodes)
    assert trace_curve(d, 8) == [trace_point(d, d.T * k / 8) for k in range(1, 9)]


def test_wound_tip_is_predicted_on_its_own_sheet():
    # at t = 903/1024 the tip has wound once around the singularity and comes
    # back to p = 0.045 on a cell of slope -15.9; a Taylor step in r centred
    # on the unwrapped L0 crosses the chart's singularity at p = 0, and Newton
    # lands on a root outside the disk (|tip| = 2.71) with a residual of 4e-12
    d = DrivingTerm(*oracles.random_lip_half_nodes(np.random.default_rng(1), n=200,
                                                   const=20.0))
    tips = np.array([s.tip for s in trace_curve(d, 1024)])
    assert np.max(np.abs(tips)) < 1.0
    t = 903 / 1024
    assert abs(tips[902] - oracles.scipy_trace_tip(d, t)) < 1e-12


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


def test_trace_point_validation_and_residual_gate(d_const, monkeypatch):
    with pytest.raises(ValidationError):
        trace_point(d_const, 0.0)
    with pytest.raises(ValidationError):
        trace_point(d_const, d_const.T + 0.1)
    residual = trace_point(d_const, d_const.T).residual
    monkeypatch.setattr(loewner, "_TRACE_RESIDUAL_TOL", 0.5 * residual)
    with pytest.raises(TraceError) as info:
        trace_point(d_const, d_const.T)
    assert info.value.residual == residual


def test_dp54_tableau_row_sums():
    assert (loewner._C, loewner._A, loewner._B, loewner._E) == (
        oracles.DP_C, oracles.DP_A, oracles.DP_B5, oracles.DP_E)
    for c, row in zip(loewner._C, loewner._A):
        assert sum(row) == pytest.approx(c, abs=1e-15)
    assert sum(loewner._B) == pytest.approx(1.0, abs=1e-15)
    assert sum(oracles.DP_B4) == pytest.approx(1.0, abs=1e-15)
    # the seventh stage is taken at the fifth-order solution (FSAL)
    assert loewner._A[6] == loewner._B[:6] and loewner._B[6] == 0.0


def test_interior_flows_make_no_driver_lookup(d_sqrt, monkeypatch):
    # every flow reads sigma from its driver cell's node value and slope
    calls = [0]
    sigma_at = DrivingTerm.sigma_at

    def counted(self, t):
        calls[0] += 1
        return sigma_at(self, t)

    monkeypatch.setattr(DrivingTerm, "sigma_at", counted)
    w = upward_flow(d_sqrt, 0.4 + 0.2j, d_sqrt.T)
    downward_flow(d_sqrt, w, d_sqrt.T)
    upward_flow(d_sqrt, -0.3 + 0.5j, 0.37)
    downward_flow(d_sqrt, 0.1 - 0.2j, 0.61)
    assert calls[0] == 0


def test_step_budget_is_per_flow(d_sqrt):
    # one budget for the whole flow, not one per driver cell: the upward flow
    # takes between 200 and 300 steps over the 256 cells
    cell = max(np.diff(d_sqrt.grid))
    with pytest.raises(IntegrationError) as info:
        upward_flow(d_sqrt, 0.5 + 0.3j, d_sqrt.T, FlowParams(max_steps=50))
    # the message reports the flow's time, beyond the longest single cell
    t = float(re.search(r"at t=(\S+)$", str(info.value)).group(1))
    assert cell < t < d_sqrt.T
    upward_flow(d_sqrt, 0.5 + 0.3j, d_sqrt.T, DEFAULT_FLOW_PARAMS)


def test_born_flow_work_does_not_grow(d_sqrt, monkeypatch):
    # Newton iterations of the angle and the tip cell maps; a speedup must
    # come from cheaper iterations, not from skipped ones.  The counts fell
    # with better predictors (the angles' Taylor step in q = w^2, taken for
    # every angle not young against dt; every tip's Taylor step in r =
    # (G(p)/(1 + c^2))^(1/2) and a fourth-order birth series) and a stop
    # that matches the correction each map applies (its cubic error): one
    # iteration in each of the 256 cells of extract_welding(d_sqrt, 64) and
    # of trace_curve(d_sqrt, 32).  The 40-digit tables in oracles pin the
    # accuracy of both sweeps.
    calls, per_cell = [0], []
    cell_time, cell_map = loewner._cell_time, loewner._cell_map

    def counted_time(*args):
        calls[0] += 1
        return cell_time(*args)

    def counted_map(*args):
        before = calls[0]
        out = cell_map(*args)
        per_cell.append(calls[0] - before - 1)   # one call sets the target
        return out

    monkeypatch.setattr(loewner, "_cell_time", counted_time)
    monkeypatch.setattr(loewner, "_cell_map", counted_map)
    extract_welding(d_sqrt, 64)
    assert len(per_cell) == 256
    assert sum(per_cell) <= 256 and max(per_cell) <= 1

    per_cell.clear()
    newton = loewner._newton

    def counted_newton(x, residual, *args):
        iterations = [0]

        def counted(x):
            iterations[0] += 1
            return residual(x)

        out = newton(x, counted, *args)
        per_cell.append(iterations[0])
        return out

    monkeypatch.setattr(loewner, "_newton", counted_newton)
    trace_curve(d_sqrt, 32)
    assert len(per_cell) == 256
    assert sum(per_cell) <= 256 and max(per_cell) <= 1


@pytest.mark.parametrize("nodes, passes", [
    (([0.0, 1.0], [0.0, -100.0]), (223, 288, 300)),
    (oracles.random_lip_half_nodes(np.random.default_rng(0), n=200, const=20.0), (525, 580, 762)),
    (oracles.random_lip_half_nodes(np.random.default_rng(1), n=200, const=20.0), (472, 527, 673)),
], ids=["slope-100", "random0", "random1"])
def test_tip_newton_passes_beyond_the_reference_drivers(nodes, passes, monkeypatch):
    # Newton residual calls of trace_curve on steep pieces with tips that
    # wind, where test_born_flow_work_does_not_grow's graded driver has none
    calls = [0]
    newton = loewner._newton

    def counted_newton(x, residual, *args):
        def counted(x):
            calls[0] += 1
            return residual(x)

        return newton(x, counted, *args)

    monkeypatch.setattr(loewner, "_newton", counted_newton)
    d = DrivingTerm(*nodes)
    for count, most in zip((32, 128, 1024), passes):
        calls[0] = 0
        trace_curve(d, count)
        assert calls[0] <= most


@pytest.mark.parametrize("seed, passes", [(0, (760, 1131)), (1, (658, 1103))])
def test_angle_newton_passes_beyond_the_reference_drivers(seed, passes, monkeypatch):
    # _cell_time calls of the angle sweep over 200 steep random cells, one
    # per cell setting its target: 2.3 to 4.7 Newton passes per cell, where
    # test_born_flow_work_does_not_grow's graded driver takes 1.  Angles next
    # to w* walk away from its log singularity one step at a time
    calls = [0]
    cell_time = loewner._cell_time

    def counted(*args):
        calls[0] += 1
        return cell_time(*args)

    monkeypatch.setattr(loewner, "_cell_time", counted)
    d = DrivingTerm(*oracles.random_lip_half_nodes(np.random.default_rng(seed), n=200,
                                                   const=20.0))
    assert d.grid.size == 201
    for times, most in zip(([d.T / 3, 2 * d.T / 3, d.T], d.T * np.arange(1, 257) / 256),
                           passes):
        calls[0] = 0
        loewner._absorbed_angles(d, times)
        assert calls[0] <= most
