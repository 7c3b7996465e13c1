"""Regularity functionals: seminorms, oscillation, quasisymmetry, energies.

Fourier-side identities and closed forms live in tests/oracles.py; the brute
quadrature there uses a different grid and weighting than the library, so the
three-way agreement (identity, brute sum, library) is a real cross-check.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

import oracles
from slitweld.circle import CirclePoint, MobiusCircleMap, arc, mobius_from_triple
from slitweld.errors import AccuracyError, ValidationError
from slitweld.loewner import DrivingTerm
from slitweld.regularity import (
    bmo_norm,
    h_half_seminorm,
    h_half_seminorm_detail,
    lip_half_norm,
    loewner_energy,
    mr_constant,
    qs_constant,
    vmo_modulus,
    wp_cross_condition,
)
from slitweld.welding import (
    Welding,
    _conjugated_welding,
    build_tau,
    radial_slit_welding,
    welding_as_homeomorphism,
    welding_log_derivative,
)


def test_seminorm_matches_fourier_identity(rng):
    u, want_sq = oracles.trig_poly(rng, 5)
    want = math.sqrt(want_sq)
    got = h_half_seminorm(u, m=128)
    assert abs(got - want) < 0.01 * want
    # the brute-force double sum agrees with the same identity independently
    assert abs(oracles.brute_h_half_sq(u) - want_sq) < 0.02 * want_sq


def test_seminorm_cosine_closed_form():
    got = h_half_seminorm(lambda th: np.cos(th), m=64)
    assert abs(got - math.sqrt(0.5)) < 0.01 * math.sqrt(0.5)


def test_seminorm_mobius_invariance():
    m_auto = MobiusCircleMap(0.9, 0.35 + 0.2j)

    def u(th):
        return np.cos(th) + 0.3 * np.sin(2.0 * th)

    raw = h_half_seminorm(u, normalization="raw", m=128)
    pulled = h_half_seminorm(lambda t: u(m_auto.apply_angle(t)),
                             normalization="raw", m=128)
    assert abs(pulled - raw) < 0.02 * raw


def test_seminorm_detail_fields_and_scaling():
    d = h_half_seminorm_detail(lambda th: np.cos(th), m=64)
    assert d["same_arc"] and d["base_level"] == 64
    assert len(d["levels"]) == 3 and len(d["extrapolants"]) == 2
    assert d["agreement"] <= 0.01
    d_raw = h_half_seminorm_detail(lambda th: np.cos(th), m=64,
                                   normalization="raw")
    scale = (2.0 * math.pi) ** 2
    assert d_raw["value"] == pytest.approx(d["value"] * scale, rel=1e-12)
    with pytest.raises(ValidationError):
        h_half_seminorm(lambda th: np.cos(th), normalization="l2")
    with pytest.raises(ValidationError):
        h_half_seminorm(lambda th: np.cos(th), m=4)


def test_cross_energy_against_reference_quadrature():
    I = arc(0.0, 0.5 * math.pi)
    J = arc(math.pi, 1.5 * math.pi)

    def u(th):
        return np.cos(th)

    got = h_half_seminorm(u, I, J, normalization="raw", m=64)

    def integrand(t2, t1):
        return (math.cos(t1) - math.cos(t2)) ** 2 / (
            4.0 * math.sin(0.5 * (t1 - t2)) ** 2)

    want, err = dblquad(integrand, 0.0, 0.5 * math.pi,
                        math.pi, 1.5 * math.pi, epsabs=1e-10)
    assert err < 1e-8
    assert abs(got - want) < 0.01 * want
    # kernel symmetry: swapping the arcs leaves the energy unchanged
    swapped = h_half_seminorm(u, J, I, normalization="raw", m=64)
    assert swapped == pytest.approx(got, rel=1e-12)


def test_seminorm_jump_raises_accuracy_error():
    def u(th):
        return np.where(np.mod(th, 2.0 * math.pi) < math.pi, 1.0, -1.0)

    with pytest.raises(AccuracyError):
        h_half_seminorm(u, m=64, agree_tol=0.01, strict=True)
    # non-strict mode reports the disagreement instead of raising
    d = h_half_seminorm_detail(u, m=64, agree_tol=0.01, strict=False)
    assert d["agreement"] > 0.01


def test_vmo_modulus_smooth_scaling():
    u = lambda th: np.cos(th)
    small = vmo_modulus(u, 0.05)
    # locally linear with peak slope 1: mean oscillation ~ scale / 4
    assert abs(small - 0.05 / 4.0) < 0.1 * 0.05
    assert small < vmo_modulus(u, 1.0)
    with pytest.raises(ValidationError):
        vmo_modulus(u, 0.0)
    with pytest.raises(ValidationError):
        vmo_modulus(u, 7.0)


def test_bmo_dominated_by_seminorm(rng):
    for _ in range(3):
        u, _ = oracles.trig_poly(rng, 4)
        assert bmo_norm(u) <= h_half_seminorm(u, normalization="raw", m=64)


def test_qs_constant_identity_and_kink():
    from slitweld.arcfun import ArcHomeomorphism

    a = arc(0.0, 1.0)
    s = np.linspace(0.0, a.length, 9)
    assert qs_constant(ArcHomeomorphism(a, a, s, s.copy())) == pytest.approx(1.0, abs=1e-12)
    # slope jump 1 -> 3 at the midpoint forces the triple ratio toward 3
    h = ArcHomeomorphism(a, arc(0.0, 2.0), [0.0, 0.5, 1.0], [0.0, 0.5, 2.0])
    got = qs_constant(h, max_depth=9, positions=257)
    assert abs(got - 3.0) < 0.01


def test_qs_constant_radial(w_const_256):
    got = qs_constant(welding_as_homeomorphism(w_const_256), positions=64)
    assert 1.0 <= got < 1.001


def test_mr_constant_values(w_const_256):
    w = radial_slit_welding(0.3, n=32)
    assert mr_constant(w) == 1.0                 # theta_minus = -theta_plus
    assert mr_constant(w_const_256) < 1.0 + 1e-4
    toy = Welding([0.0, 1.0], [0.0, 0.4], [0.0, -0.6])
    want = math.sin(0.3) / math.sin(0.2)
    assert mr_constant(toy) == pytest.approx(want, rel=1e-12)


def test_loewner_energy_exact_piecewise():
    d = DrivingTerm([0.0, 1.0, 3.0], [0.0, 0.5, -0.5])
    assert loewner_energy(d) == pytest.approx(0.5 * (0.25 + 0.5), abs=1e-15)
    assert loewner_energy(DrivingTerm([0.0, 2.0], [0.0, 0.0])) == 0.0


def test_lip_half_norm_values(d_sqrt, d_const):
    assert lip_half_norm(d_const) == 0.0
    # 0.4 sqrt(t) driver: the increment-to-sqrt-gap ratio peaks at 0.4 near 0
    assert abs(lip_half_norm(d_sqrt) - 0.4) < 2e-3
    # linear driver: the chordal ratio grows with the gap, so the full span wins
    lin = DrivingTerm(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 17))
    assert lip_half_norm(lin) == pytest.approx(2.0 * math.sin(0.5), rel=1e-12)


def test_wp_cross_condition_radial(w_const_256):
    d = wp_cross_condition(w_const_256, m=64)
    assert d["value"] < 1e-6
    assert d["converged"]
    assert d["alpha_cell_mass"] < 1e-6
    assert not d["alpha_cells_included"]
    assert d["base_level"] == 64
    incl = wp_cross_condition(w_const_256, m=64, include_alpha_cells=True)
    assert incl["alpha_cells_included"]
    assert incl["value"] < 1e-6


def test_bmo_of_extracted_log_derivative(w_const_256):
    f = welding_log_derivative(w_const_256)
    assert bmo_norm(f, samples=512) < 1e-3


# the three arcs of psi_j_decomposition: A x A is a same-arc sum, C x B pairs
# equal steps (as in J4), B x A unequal ones (as in J5)
ARC_PAIRS = {
    "AxA": (arc(0.0, math.pi), arc(0.0, math.pi)),
    "CxB": (arc(math.pi, -0.5 * math.pi), arc(-0.5 * math.pi, 0.0)),
    "BxA": (arc(-0.5 * math.pi, 0.0), arc(0.0, math.pi)),
}


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("pair", sorted(ARC_PAIRS))
def test_blocked_kernel_matches_dense_reference(rng, pair, m):
    u, _ = oracles.trig_poly(rng, 4)
    I, J = ARC_PAIRS[pair]
    got = h_half_seminorm_detail(u, I, J, normalization="raw", m=m, strict=False)
    want = tuple(oracles.dense_chordal_level(u, I.start.angle, I.length, J.start.angle,
                                             J.length, mm, pair == "AxA")
                 for mm in (m, 2 * m, 4 * m))
    assert got["same_arc"] == (pair == "AxA")
    assert got["levels"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [16, 64])
def test_wp_cross_condition_matches_dense_reference(w_sqrt_256, m):
    w = w_sqrt_256
    _, log_chi_deriv = _conjugated_welding(w, build_tau(w.alpha_minus, w.alpha_plus))
    dense = [oracles.dense_wp_level(log_chi_deriv, m, mm) for mm in (m, 2 * m, 4 * m)]
    assert dense[-1][1] > 0.0
    for include in (False, True):
        got = wp_cross_condition(w, m=m, include_alpha_cells=include)
        want = tuple(total if include else total - alpha for total, alpha in dense)
        assert got["levels"] == pytest.approx(want, rel=1e-12)
        assert got["alpha_cell_mass"] == pytest.approx(dense[-1][1], rel=1e-12)


def test_quadrature_memory_is_linear_in_level():
    # one dense (4m)^2 float array at m = 1024 alone would take 128 MiB
    w = radial_slit_welding(0.3, 256)
    runs = (lambda: h_half_seminorm_detail(lambda th: np.cos(th), m=1024),
            lambda: wp_cross_condition(w, m=1024))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
