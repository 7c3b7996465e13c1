"""Explicit maps: circle extensions, shears, slit parametrizations, composites.

Closed forms and finite-difference dilatation checks come from tests/oracles.py;
the radial welding pins the whole chain near the identity.
"""

import cmath
import math

import numpy as np
import pytest

import oracles
from slitweld.arcfun import ArcHomeomorphism
from slitweld.circle import CirclePoint, MobiusCircleMap, arc
from slitweld.constructions import (
    BeltramiField,
    CirclePiece,
    DiskMapEvaluator,
    PiecewiseCircleMap,
    _HarmonicExtension,
    build_capital_psi,
    build_psi,
    build_tau,
    capital_psi_composite_residual,
    compose_f,
    lemma_q_map,
    poincare_l2_integral,
    psi_j_decomposition,
    qtilde_beltrami,
    reflect_half_extension,
    slit_map_h,
    welding_construction,
)
from slitweld.errors import ValidationError
from slitweld.regularity import h_half_seminorm_detail
from slitweld.welding import radial_slit_welding

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


def test_build_psi_radial_is_identity():
    w = radial_slit_welding(T_SLIT_LOG2, n=64)
    psi = build_psi(w)
    th = np.linspace(-math.pi, math.pi, 101, endpoint=False)
    assert np.max(np.abs(_canon(psi.apply_angle(th) - th))) < 1e-9
    assert np.max(np.abs(psi.log_deriv_angle(th))) < 1e-9


def test_psi_j_decomposition_tiles_full_energy():
    psi = _smooth_circle_map()
    parts = psi_j_decomposition(psi, m=64)
    for key in ("J1", "J2", "J3", "J4", "J5", "J6"):
        assert parts[key] >= 0.0
    full = h_half_seminorm_detail(lambda th: np.log(1.0 + 0.3 * np.cos(th)),
                                  normalization="raw", m=64)["value"]
    assert abs(parts["weighted_sum"] - full) < 0.02 * full


def test_reflect_half_extension_symmetry():
    right = arc(-0.5 * math.pi, 0.5 * math.pi)
    s = np.linspace(0.0, math.pi, 33)
    half = ArcHomeomorphism(right, right, s, s + 0.2 * np.sin(s))
    ext = reflect_half_extension(half)
    th = np.linspace(-math.pi, math.pi, 73) + 0.013    # avoid exact junctions
    lhs = _canon(ext.apply_angle(_canon(math.pi - th)))
    rhs = _canon(math.pi - ext.apply_angle(th))
    assert np.max(np.abs(_canon(lhs - rhs))) < 1e-9
    assert np.max(np.abs(ext.log_deriv_angle(_canon(math.pi - th))
                         - ext.log_deriv_angle(th))) < 1e-9
    with pytest.raises(ValidationError):
        reflect_half_extension(ArcHomeomorphism(arc(0.0, math.pi), arc(0.0, math.pi),
                                                [0.0, math.pi], [0.0, math.pi]))
    bad = ArcHomeomorphism(right, right, s, np.linspace(0.2, math.pi, 33))
    with pytest.raises(ValidationError):
        reflect_half_extension(bad)


def test_build_capital_psi_symmetries():
    quarter = arc(0.0, 0.5 * math.pi)
    s = np.linspace(0.0, 0.5 * math.pi, 33)
    inner = ArcHomeomorphism(quarter, quarter, s, s + 0.1 * np.sin(4.0 * s))
    big = build_capital_psi(inner)
    th = np.linspace(0.05, 0.5 * math.pi - 0.05, 21)
    # odd symmetry and the antipodal copy across all four quadrants
    assert np.max(np.abs(_canon(big.apply_angle(-th) + big.apply_angle(th)))) < 1e-9
    assert np.max(np.abs(_canon(big.apply_angle(_canon(th + math.pi))
                                - big.apply_angle(th) - math.pi))) < 1e-9
    assert capital_psi_composite_residual(big, inner) < 1e-9
    with pytest.raises(ValidationError):
        build_capital_psi(ArcHomeomorphism(quarter, quarter, s,
                                           np.linspace(0.1, 0.5 * math.pi, 33)))


def test_slit_map_h_normalizations_and_roundtrip():
    for beta in (0.0, 0.35, -0.6):
        ev, t_slit, c = slit_map_h(beta)
        assert abs(complex(ev(beta))) < 1e-12
        assert abs(complex(ev(1j)) - 1.0) < 1e-12
        assert abs(complex(ev(-1j)) - 1.0) < 1e-12
        assert abs(complex(ev(1.0)) - t_slit) < 1e-12
        zz = np.array([0.2 + 0.1j, -0.4 + 0.5j, 0.1 - 0.7j])
        assert np.max(np.abs(ev.inverse(ev.fn(zz)) - zz)) < 1e-10
    _, t_slit, _ = slit_map_h(0.0)
    assert abs(t_slit - T_SLIT_LOG2) < 1e-12
    with pytest.raises(ValidationError):
        slit_map_h(1.0)


def test_slit_map_boundary_preimages():
    ev, t_slit, _ = slit_map_h(0.2)
    for x in (t_slit + 1e-3, 0.5, 0.99):
        up, dn = ev.boundary(x)
        assert abs(up.angle + dn.angle) < 1e-12        # conjugate pair
        assert abs(complex(ev(cmath.exp(1j * up.angle))) - x) < 1e-9
    up, dn = ev.boundary(1.0)
    assert abs(up.angle - 0.5 * math.pi) < 1e-12
    with pytest.raises(ValidationError):
        ev.boundary(t_slit - 0.01)


def test_lemma_q_map_anchors_and_inverse():
    z0, r = 0.3 + 0.2j, 0.8
    q_ev, mu_q = lemma_q_map(z0, r)
    img = complex(q_ev(z0))
    assert abs(img.imag) < 1e-12 and abs(img) < r
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
    ap = mu_q.params["arg_p"]
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


def test_qtilde_beltrami_matches_finite_differences():
    p = cmath.exp(2.1j) * 1.7
    ap = cmath.phase(p)
    a1 = 0.5 * math.pi / ap
    a2 = 0.5 * math.pi / (math.pi - ap)

    def shear(w):
        th = cmath.phase(w)
        out = a1 * th if th <= ap else math.pi - a2 * (math.pi - th)
        return abs(w) * cmath.exp(1j * out)

    for z in (0.4 + 0.6j, -0.8 + 0.3j):
        got = qtilde_beltrami(p, z)
        upper = cmath.phase(z) > ap
        assert abs(abs(got) - oracles.sector_mu_abs(ap, upper)) < 1e-12
        assert abs(got - oracles.fd_mu(shear, z)) < 1e-5
    with pytest.raises(ValidationError):
        qtilde_beltrami(1.0 + 0j, 0.5j)
    with pytest.raises(ValidationError):
        qtilde_beltrami(0.5j, 1.0 + 0j)


def test_poincare_integral_closed_form_and_invariance():
    k, r = 0.2, 0.5
    field = BeltramiField(
        "unit_disk",
        lambda z: np.where(np.abs(np.asarray(z)) < r, k, 0.0) + 0j,
        k)
    want = oracles.const_mu_subdisk_integral(k, r)
    got = poincare_l2_integral(field)
    assert abs(got - want) < 0.02 * want
    # pulling back through a disk automorphism leaves the mass unchanged
    m_auto = MobiusCircleMap(0.4, 0.3 + 0.1j)
    conf = DiskMapEvaluator("unit_disk", "unit_disk", lambda z: m_auto(z))
    pulled = poincare_l2_integral(field, conf=conf)
    assert abs(pulled - want) < 0.04 * want
    with pytest.raises(ValidationError):
        poincare_l2_integral(field, n_r=4)
    with pytest.raises(ValidationError):
        BeltramiField("unit_disk", lambda z: 0j, 1.0)


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


def test_welding_construction_radial_chain():
    w = radial_slit_welding(T_SLIT_LOG2, n=64)
    built = welding_construction(w)
    assert abs(built["tau"].pole) < 1e-9
    assert abs(built["u0"]) < 1e-6
    assert abs(built["beta"]) < 1e-6
    assert abs(built["t_slit"] - T_SLIT_LOG2) < 1e-6
    assert abs(built["r_q"] - 0.5 * (1.0 + abs(built["u0"]))) < 1e-15
    assert built["mu_q"].k_bound < 1e-5


def test_compose_f_radial(d_const):
    w = radial_slit_welding(T_SLIT_LOG2, n=64)
    f = compose_f(d_const, welding_construction(w))
    assert abs(complex(f(0.0 + 0j))) < 1e-8
    probe = 0.9 * cmath.exp(0.75j * math.pi)
    img = complex(f(probe))
    assert abs(img) < 1.0
    assert f.params["T"] == d_const.T
