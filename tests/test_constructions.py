"""Explicit maps: circle extensions, shears, slit parametrizations, composites.

Closed forms and finite-difference dilatation checks come from tests/oracles.py;
the radial welding pins the whole chain near the identity.
"""

import cmath
import math

import numpy as np
import pytest

import oracles
from slitweld import constructions
from slitweld.arcfun import ArcHomeomorphism
from slitweld.circle import TWO_PI, CirclePoint, MobiusCircleMap, arc
from slitweld.constructions import (
    BeltramiField,
    CirclePiece,
    PiecewiseCircleMap,
    _HarmonicExtension,
    build_psi,
    build_tau,
    lemma_q_map,
    psi_j_decomposition,
    slit_map_h,
    welding_construction,
)
from slitweld.errors import ValidationError
from slitweld.loewner import DrivingTerm
from slitweld.welding import _conjugated_welding, extract_welding

T_SLIT_LOG2 = 3.0 - 2.0 * math.sqrt(2.0)


def _canon(a):
    return np.mod(np.asarray(a, dtype=float) + math.pi, 2.0 * math.pi) - math.pi


def _smooth_circle_map(eps=0.3):
    """theta + eps sin(theta) split into two pieces, with exact log-derivative."""
    rule = lambda th: np.asarray(th, dtype=float) + eps * np.sin(np.asarray(th, dtype=float))
    ld = lambda th: np.log(1.0 + eps * np.cos(np.asarray(th, dtype=float)))
    return PiecewiseCircleMap([
        CirclePiece(arc(0.0, math.pi), rule, ld, "upper"),
        CirclePiece(arc(math.pi, 0.0), rule, ld, "lower"),
    ])


def test_build_tau_moves_endpoint_triple():
    am, ap = CirclePoint(-0.9), CirclePoint(1.1)
    tau = build_tau(am, ap)
    assert abs(_canon(tau.apply_angle(-0.5 * math.pi) + 0.9)) < 1e-9
    assert abs(_canon(tau.apply_angle(0.0))) < 1e-9
    assert abs(_canon(tau.apply_angle(0.5 * math.pi) - 1.1)) < 1e-9


def test_build_tau_anchors_on_random_endpoints():
    # two points u1 < u2 of (0, 2 pi), at least 1e-3 from 1 and from each
    # other, give the lifted endpoints alpha_plus = u1 and alpha_minus = u2 -
    # 2 pi; the anchors are compared as points of the circle
    rng = np.random.default_rng(5)
    src = np.exp(0.5j * math.pi * np.array([-1.0, 0.0, 1.0]))
    count, worst = 0, 0.0
    while count < 2000:
        u1, u2 = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2))
        if min(u1, u2 - u1, 2.0 * math.pi - u2) < 1e-3:
            continue
        tau = build_tau(CirclePoint(u2 - 2.0 * math.pi), CirclePoint(u1))
        dst = np.exp(1j * np.array([u2 - 2.0 * math.pi, 0.0, u1]))
        worst = max(worst, float(np.max(np.abs(tau(src) - dst))))
        count += 1
    assert worst <= 1e-12


def test_build_tau_identity_and_rejections():
    tau = build_tau(CirclePoint(-0.5 * math.pi), CirclePoint(0.5 * math.pi))
    assert abs(tau.pole) < 1e-12 and abs(tau.rotation) < 1e-12
    th = np.linspace(-3.0, 3.0, 13)
    assert np.max(np.abs(tau.apply_angle(th) - th)) < 1e-12
    # an endpoint at 1, swapped endpoints, coincident endpoints
    for am, ap in ((0.0, 1.0), (1.1, -0.9), (0.7, 0.7)):
        with pytest.raises(ValidationError):
            build_tau(CirclePoint(am), CirclePoint(ap))


def test_piecewise_map_validation():
    ident = lambda th: np.asarray(th, dtype=float)
    zero = lambda th: np.zeros_like(np.asarray(th, dtype=float))
    with pytest.raises(ValidationError):
        PiecewiseCircleMap([CirclePiece(arc(0.0, math.pi), ident, zero)])
    shifted = lambda th: np.asarray(th, dtype=float) + 0.1
    with pytest.raises(ValidationError):
        PiecewiseCircleMap([
            CirclePiece(arc(0.0, math.pi), ident, zero),
            CirclePiece(arc(math.pi, 0.0), shifted, zero),
        ])
    backwards = lambda th: -np.asarray(th, dtype=float)
    with pytest.raises(ValidationError):
        PiecewiseCircleMap([
            CirclePiece(arc(0.0, math.pi), backwards, zero),
            CirclePiece(arc(math.pi, 0.0), backwards, zero),
        ])


def test_smooth_piecewise_map_evaluates():
    psi = _smooth_circle_map()
    th = np.linspace(-3.0, 3.0, 25)
    assert np.max(np.abs(psi.apply_angle(th) - (th + 0.3 * np.sin(th)))) < 1e-12
    assert np.max(np.abs(psi.log_deriv_angle(th) - np.log(1.0 + 0.3 * np.cos(th)))) < 1e-12


def test_piecewise_map_returns_a_float_only_for_a_scalar():
    psi = _smooth_circle_map()
    for rule in (psi.apply_angle, psi.log_deriv_angle):
        one = rule(np.array([0.4]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert isinstance(rule(0.4), float)
        assert one[0] == rule(0.4)


def test_piece_owner_matches_the_mask_rule(w_sqrt_256, rng):
    grid = np.arange(2048) * TWO_PI / 2048   # the samples of _HarmonicExtension
    for psi in (_smooth_circle_map(), build_psi(w_sqrt_256)):
        junctions = np.array([a for p in psi.pieces for a in (p.arc.start.angle, p.arc.end.angle)])
        for theta in (rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI, 10_000), junctions, grid):
            assert psi._owner(theta).tolist() == oracles.mask_piece_owner(psi, theta).tolist()


def test_build_psi_radial_is_identity():
    w = oracles.radial_slit_welding(T_SLIT_LOG2, n=64)
    psi = build_psi(w)
    th = np.linspace(-math.pi, math.pi, 101, endpoint=False)
    assert np.max(np.abs(_canon(psi.apply_angle(th) - th))) < 1e-9
    assert np.max(np.abs(psi.log_deriv_angle(th))) < 1e-9


def test_build_psi_when_the_minus_endpoint_passes_pi():
    # sigma = -6t on [0, 1]: alpha_minus lifts to about -5.83, where
    # oracles.mobius_conjugated_welding puts chi(pi/2) 3e-7 off -pi/2, far
    # past psi's junction check at -i
    w = extract_welding(DrivingTerm([0.0, 1.0], [0.0, -6.0]), 256)
    psi = build_psi(w)
    chi, _ = _conjugated_welding(w)
    assert abs(chi(np.array([0.5 * math.pi]))[0] + 0.5 * math.pi) <= 1e-12
    assert abs(psi.apply_angle(-0.5 * math.pi) + 0.5 * math.pi) <= 1e-12


@pytest.mark.parametrize("name, m", [("w_sqrt_256", 64), ("w_linear", 128),
                                     ("w_linear", 1024)])
def test_psi_j_decomposition_matches_the_six_sums(request, name, m):
    w = request.getfixturevalue(name)
    got = psi_j_decomposition(w, m=m, agree_tol=0.2)
    want = oracles.six_sum_j_decomposition(build_psi(w), m, 0.2)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0)
    assert got["J1"] == 0.0
    assert got["J3"] == got["J2"]
    assert got["J6"] == got["J5"]


def test_psi_j_decomposition_samples_each_arc_once_per_level(w_sqrt_256, monkeypatch):
    calls = []
    conjugated = constructions._conjugated_welding

    def counted(w):
        chi, chi_ld = conjugated(w)
        return chi, lambda th: calls.append(th.size) or chi_ld(th)

    monkeypatch.setattr(constructions, "_conjugated_welding", counted)
    psi_j_decomposition(w_sqrt_256, m=16, agree_tol=math.inf)
    # log |chi'| on the quarter arc from 1 to i at the levels 16, 32 and 64
    assert calls == [16, 32, 64]


def test_reflect_half_extension_symmetry():
    right = arc(-0.5 * math.pi, 0.5 * math.pi)
    s = np.linspace(0.0, math.pi, 33)
    half = ArcHomeomorphism(right, right, s, s + 0.2 * np.sin(s))
    ext = oracles.reflect_half_extension(half)
    th = np.linspace(-math.pi, math.pi, 73) + 0.013    # avoid exact junctions
    lhs = _canon(ext.apply_angle(_canon(math.pi - th)))
    rhs = _canon(math.pi - ext.apply_angle(th))
    assert np.max(np.abs(_canon(lhs - rhs))) < 1e-9
    assert np.max(np.abs(ext.log_deriv_angle(_canon(math.pi - th))
                         - ext.log_deriv_angle(th))) < 1e-9
    with pytest.raises(ValidationError):
        oracles.reflect_half_extension(ArcHomeomorphism(arc(0.0, math.pi), arc(0.0, math.pi),
                                                        [0.0, math.pi], [0.0, math.pi]))
    bad = ArcHomeomorphism(right, right, s, np.linspace(0.2, math.pi, 33))
    with pytest.raises(ValidationError):
        oracles.reflect_half_extension(bad)


def test_slit_map_h_normalizations_and_roundtrip():
    for beta in (0.0, 0.35, -0.6):
        ev, t_slit, c = slit_map_h(beta)
        assert abs(complex(ev(beta))) < 1e-12
        assert abs(complex(ev(1j)) - 1.0) < 1e-12
        assert abs(complex(ev(-1j)) - 1.0) < 1e-12
        assert abs(complex(ev(1.0)) - t_slit) < 1e-12
        zz = np.array([0.2 + 0.1j, -0.4 + 0.5j, 0.1 - 0.7j])
        assert np.max(np.abs(ev.inverse(ev.fn(zz)) - zz)) < 1e-10
    ev, t_slit, c = slit_map_h(0.0)
    assert abs(t_slit - T_SLIT_LOG2) < 1e-12
    # |h'(0)| = c^2 at beta = 0, by a forward difference
    eps = 1e-6
    assert abs(abs(complex(ev(eps)) - complex(ev(0.0))) / eps - c * c) < 1e-4
    with pytest.raises(ValidationError):
        slit_map_h(1.0)


def test_lemma_q_map_anchors_and_inverse():
    z0, r = 0.3 + 0.2j, 0.8
    q_ev, mu_q = lemma_q_map(z0, r)
    img = complex(q_ev(z0))
    assert abs(img.imag) < 1e-12 and abs(img) < r
    assert 0.0 <= mu_q.k_bound < 1.0
    # identity outside the subdisk, continuity on its rim
    assert complex(q_ev(0.9 + 0j)) == 0.9 + 0j
    assert complex(q_ev(0.85j)) == 0.85j
    rim = r * cmath.exp(1.3j) * (1.0 - 1e-12)
    assert abs(complex(q_ev(rim)) - rim) < 1e-6
    zz = np.array([-0.3 + 0.0j, 0.5j, 0.2 - 0.4j, z0])
    assert np.max(np.abs(q_ev.inverse(q_ev.fn(zz)) - zz)) < 1e-10
    with pytest.raises(ValidationError):
        lemma_q_map(0.9 + 0j, 0.8)
    with pytest.raises(ValidationError):
        lemma_q_map(0.1 + 0j, 1.2)


def test_lemma_q_map_dilatation():
    z0, r = 0.3 + 0.2j, 0.8
    q_ev, mu_q = lemma_q_map(z0, r)
    ap = cmath.phase(1j * (r + z0) / (r - z0))   # arg p, p = T(z0) of the subdisk
    # -0.3 sits in the low sector, 0.5j in the high one; both clear the corner ray
    for z, upper in ((-0.3 + 0.0j, False), (0.5j, True)):
        want_abs = oracles.sector_mu_abs(ap, upper)
        got = complex(mu_q(z))
        assert abs(abs(got) - want_abs) < 1e-12
        fd = oracles.fd_mu(lambda u: complex(q_ev(u)), z)
        assert abs(got - fd) < 1e-5
    assert complex(mu_q(0.9 + 0j)) == 0j
    assert mu_q.k_bound == pytest.approx(
        max(oracles.sector_mu_abs(ap, False), oracles.sector_mu_abs(ap, True)), abs=1e-15)


def test_poincare_integral_closed_form_and_invariance():
    k, r = 0.2, 0.5
    field = BeltramiField(
        lambda z: np.where(np.abs(np.asarray(z)) < r, k, 0.0) + 0j,
        k)
    want = oracles.const_mu_subdisk_integral(k, r)
    got = oracles.poincare_l2_integral(field)
    assert abs(got - want) < 0.02 * want
    # pulling back through a disk automorphism leaves the mass unchanged
    conf = MobiusCircleMap(0.4, 0.3 + 0.1j)
    pulled = oracles.poincare_l2_integral(field, conf=conf)
    assert abs(pulled - want) < 0.04 * want
    with pytest.raises(ValidationError):
        oracles.poincare_l2_integral(field, n_r=4)
    with pytest.raises(ValidationError):
        BeltramiField(lambda z: 0j, 1.0)


def test_harmonic_extension_boundary_and_inverse():
    psi = _smooth_circle_map()
    ext = _HarmonicExtension(psi)
    th = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    for t in th:
        want = cmath.exp(1j * (t + 0.3 * math.sin(t)))
        assert abs(ext(0.999 * cmath.exp(1j * t)) - want) < 5e-3
    z = 0.3 + 0.4j
    w = ext(z)
    assert abs(ext.inverse(w) - z) < 1e-10


def test_harmonic_extension_power_sums_match_horner(w_sqrt_256, rng):
    ext = _HarmonicExtension(build_psi(w_sqrt_256))
    radii = np.concatenate(([0.0, 0.5, 0.999], 0.999 * np.sqrt(rng.uniform(size=40))))
    for z in radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, radii.size)):
        want, want_da, want_db = oracles.horner_extension(ext, complex(z))
        da, db = ext._derivs(complex(z))
        assert abs(ext(complex(z)) - want) <= 1e-13 * abs(want)
        assert abs(da - want_da) <= 1e-13 * abs(want_da)
        assert abs(db - want_db) <= 1e-13 * abs(want_db)


def test_welding_construction_radial_chain():
    w = oracles.radial_slit_welding(T_SLIT_LOG2, n=64)
    built = welding_construction(w)
    assert abs(built["tau"].pole) < 1e-9
    assert abs(built["u0"]) < 1e-6
    assert abs(built["beta"]) < 1e-6
    assert abs(built["t_slit"] - T_SLIT_LOG2) < 1e-9
    assert abs(built["r_q"] - 0.5 * (1.0 + abs(built["u0"]))) < 1e-15
    assert built["mu_q"].k_bound < 1e-5
