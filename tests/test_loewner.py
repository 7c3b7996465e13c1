"""Driving terms and the radial flow engine.

Expected values come from tests/oracles.py: closed forms for the constant
driver (from the boundary angle equation and the slit capacity formula) and
an independent scipy integrator for everything path-dependent.
"""

import cmath
import math
import re

import numpy as np
import pytest

import oracles
from slitweld.errors import (
    HitSingularityError,
    IntegrationError,
    TraceError,
    ValidationError,
)
from slitweld import loewner
from slitweld.loewner import (
    DEFAULT_FLOW_PARAMS,
    PRECISE_FLOW_PARAMS,
    DrivingTerm,
    FlowParams,
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
    ts, ths, hit = boundary_flow(d_sqrt, 3.0, d_sqrt.T, PRECISE_FLOW_PARAMS)
    assert not hit
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(d_sqrt.T, abs=1e-12)
    assert np.all(np.diff(ts) > 0.0)        # the flow's own times, across cells
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


def test_dp54_tableau_row_sums():
    assert (loewner._C, loewner._A, loewner._B, loewner._E) == (
        oracles.DP_C, oracles.DP_A, oracles.DP_B5, oracles.DP_E)
    for c, row in zip(loewner._C, loewner._A):
        assert sum(row) == pytest.approx(c, abs=1e-15)
    assert sum(loewner._B) == pytest.approx(1.0, abs=1e-15)
    assert sum(oracles.DP_B4) == pytest.approx(1.0, abs=1e-15)
    # the seventh stage is taken at the fifth-order solution (FSAL)
    assert loewner._A[6] == loewner._B[:6] and loewner._B[6] == 0.0


def test_dp54_bit_identical_to_generic_loop(d_sqrt):
    params = DEFAULT_FLOW_PARAMS
    slope = d_sqrt._slope[3]

    def both(f, t0, t1, y0, **kw):
        got, want = loewner._dp54(f, t0, t1, y0, params, **kw), oracles.reference_dp54(
            f, t0, t1, y0, params, **kw)
        assert got == want
        return got

    # the angle field in the rho chart of its birth cell
    angle = loewner._angle_field(0.0, slope)
    rho = math.sqrt(0.01)
    both(lambda x, z: 2.0 * x * angle(x * x, z), 0.0, rho, 0.0)

    # the complex tip field, on a second cell from the carried step size
    tip = loewner._tip_field(0.0, slope)
    _, q, _, h, _, steps = both(lambda x, z: 2.0 * x * tip(x * x, z), 0.0, rho, 0.0)
    both(loewner._tip_field(0.0, d_sqrt._slope[4]), 0.0, 0.02, q, h=h * 2.0 * rho,
         steps=steps)

    # an upward flow on one driver cell, with its step cap and a carried step
    i = 100
    sigma, rate = d_sqrt._s[i], d_sqrt._slope[i]
    span = d_sqrt._g[i + 1] - d_sqrt._g[i]

    def rhs(r, y):
        xi = cmath.exp(1j * (sigma + rate * r))
        return -y * (xi + y) / (xi - y)

    def cap(r, y):
        delta = abs(cmath.exp(1j * (sigma + rate * r)) - y)
        return max(params.c_step * delta * delta, 1e-14)

    both(rhs, 0.0, span, 0.6 + 0.3j, cap=cap, h=span / 3.0)

    # a boundary run on one cell that rejects steps, records every accepted
    # one and stops at the singularity
    i = 200
    sigma, rate = d_sqrt._s[i], d_sqrt._slope[i]
    span = d_sqrt._g[i + 1] - d_sqrt._g[i]
    calls = [0]

    def boundary(r, th):
        calls[0] += 1
        return 1.0 / math.tan(0.5 * (sigma + rate * r - th))

    def gap(r, th):
        u = th - (sigma + rate * r)
        return min(u, 2.0 * math.pi - u)

    runs = []
    for run in (loewner._dp54, oracles.reference_dp54):
        calls[0] = 0
        rec = []
        out = run(boundary, 0.0, span, sigma + 0.1, params,
                  cap=lambda r, th: max(params.c_step * gap(r, th) ** 2, 1e-16),
                  stop=lambda r, th: gap(r, th) <= params.eps_hit,
                  record=lambda r, th: rec.append((r, th)), h=1e-3)
        runs.append((out, rec, calls[0]))
    assert runs[0] == runs[1]
    (t, _, stopped, _, _, _), rec, n_evals = runs[0]
    assert stopped and t < span
    assert n_evals > 1 + 6 * len(rec)      # at least one step was rejected


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
    # one budget for the whole flow, not one per driver cell: the plus-angle
    # flow at T takes about 313 steps over 256 cells, so 50 cannot carry it
    tight = FlowParams(max_steps=50)
    cell = max(np.diff(d_sqrt.grid))
    for run in (lambda p: loewner._absorbed_angle(d_sqrt, d_sqrt.T, 1.0, p),
                lambda p: upward_flow(d_sqrt, 0.5 + 0.3j, d_sqrt.T, p)):
        with pytest.raises(IntegrationError) as info:
            run(tight)
        # the message reports the flow's time, beyond the longest single cell
        t = float(re.search(r"at t=(\S+)$", str(info.value)).group(1))
        assert cell < t < d_sqrt.T
        run(DEFAULT_FLOW_PARAMS)


def test_born_flow_work_does_not_grow(d_sqrt, monkeypatch):
    # right-hand-side evaluations of the flows born at the singularity; a
    # speedup must come from cheaper steps, not from skipped stages.  Counts
    # measured with the generic tableau loop, before the step was written out:
    # 169760 for hitting_profile(d_sqrt, 64), 26448 for trace_curve(d_sqrt, 32)
    calls = [0]

    def counting(make_field):
        def field(sigma, slope):
            rhs = make_field(sigma, slope)

            def counted(r, y):
                calls[0] += 1
                return rhs(r, y)

            return counted

        return field

    monkeypatch.setattr(loewner, "_angle_field", counting(loewner._angle_field))
    monkeypatch.setattr(loewner, "_tip_field", counting(loewner._tip_field))
    hitting_profile(d_sqrt, 64)
    assert calls[0] <= 169760
    calls[0] = 0
    trace_curve(d_sqrt, 32)
    assert calls[0] <= 26448
