"""Acceptance gates for the whole pipeline, one printed verdict line each.

Each test covers one end-to-end claim: closed-form radial anchors, flow
normalizations, seminorm identities, the reflection and shear lemmas, the
dilatation integral, the J-decomposition tiling, and refinement stability.
Expected values come from closed forms and tests/oracles.py; tolerances are
the pinned acceptance thresholds.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from slitweld.arcfun import ArcHomeomorphism
from slitweld.circle import MobiusCircleMap, arc
from slitweld.constructions import (BeltramiField, DiskMapEvaluator, lemma_q_map,
                                    poincare_l2_integral, psi_j_decomposition,
                                    reflect_half_extension, welding_construction)
from slitweld.loewner import (PRECISE_FLOW_PARAMS, DrivingTerm, downward_flow,
                              trace_point, upward_flow)
from slitweld.regularity import (h_half_seminorm, h_half_seminorm_detail, loewner_energy,
                                 mr_constant, qs_constant, vmo_curve, wp_cross_condition)
from slitweld.welding import (extract_welding, welding_as_homeomorphism,
                              welding_log_derivative)

T_SLIT_LOG2 = 3.0 - 2.0 * math.sqrt(2.0)
HALF_PI = 0.5 * math.pi


@pytest.fixture()
def criterion(capfd):
    """Verdict printer whose output bypasses capture and reaches the runner."""

    @contextmanager
    def _criterion(n, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {n:2d}: FAIL - {label}")
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {n:2d}: PASS - {label}")

    return _criterion


@pytest.fixture(scope="module")
def radial_run(d_const):
    """Timed fresh extraction + trace for the radial end-to-end gate."""
    t0 = time.perf_counter()
    w = extract_welding(d_const, 256)
    tip = trace_point(d_const, d_const.T)
    return {"welding": w, "tip": tip, "seconds": time.perf_counter() - t0}


def test_01_radial_slit_end_to_end(radial_run, criterion):
    with criterion(1, "radial slit trace, endpoints, conjugation welding"):
        w = radial_run["welding"]
        assert radial_run["seconds"] < 60.0
        assert abs(radial_run["tip"].tip - T_SLIT_LOG2) < 1e-3
        assert abs(w.alpha_plus.angle - HALF_PI) < 1e-3
        assert abs(w.alpha_minus.angle + HALF_PI) < 1e-3
        assert np.max(np.abs(w.theta_minus + w.theta_plus)) < 1e-3


def test_02_flow_normalizations(rng, criterion):
    with criterion(2, "flow derivative normalizations at the origin"):
        eps = 1e-6
        for _ in range(10):
            grid, sig = oracles.random_lip_half_nodes(rng, n=64, T=1.0, const=0.5)
            d = DrivingTerm(grid, sig)
            assert upward_flow(d, 0.0, 0.5) == 0.0
            for t in (0.1, 0.5, 1.0):
                for flow, want in ((upward_flow, math.exp(-t)),
                                   (downward_flow, math.exp(t))):
                    d1 = flow(d, eps, t, PRECISE_FLOW_PARAMS) / eps
                    d2 = flow(d, 0.5 * eps, t, PRECISE_FLOW_PARAMS) / (0.5 * eps)
                    assert abs(2.0 * d2 - d1 - want) < 1e-6


def test_03_horizon_inverse(d_sqrt, rng, criterion):
    with criterion(3, "upward flow inverts downward flow at the horizon"):
        worst = 0.0
        for _ in range(100):
            z = rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            back = upward_flow(d_sqrt, downward_flow(d_sqrt, z, d_sqrt.T), d_sqrt.T)
            worst = max(worst, abs(back - z))
        assert worst < 1e-6


def test_04_fourier_seminorm_identity(rng, criterion):
    with criterion(4, "seminorm matches the Fourier-side closed form"):
        want = math.sqrt(0.5)
        assert abs(h_half_seminorm(np.cos, m=128) - want) < 0.01 * want
        for _ in range(10):
            u, semi_sq = oracles.trig_poly(rng, 8)
            got = h_half_seminorm(u, m=128) ** 2
            assert abs(got - semi_sq) < 0.01 * semi_sq


def test_05_bmo_dominated_by_seminorm(rng, criterion):
    with criterion(5, "mean oscillation below the raw seminorm"):
        violations = []
        for k in range(100):
            u, _ = oracles.trig_poly(rng, int(rng.integers(1, 9)))
            b = max(m for _, m in vmo_curve(u, samples=512))
            s = h_half_seminorm(u, normalization="raw", m=64, strict=False)
            if b > s:
                violations.append((k, b, s))
        assert violations == []


def test_06_mobius_invariance(rng, criterion):
    with criterion(6, "raw seminorm invariant under disk automorphisms"):
        def u(th):
            th = np.asarray(th, dtype=float)
            return 0.8 * np.cos(th) + 0.3 * np.sin(2 * th) - 0.2 * np.cos(3 * th)

        raw = h_half_seminorm(u, normalization="raw", m=256, strict=False)
        for _ in range(20):
            rho = rng.uniform(0.0, 2 * math.pi)
            pole = rng.uniform(0.0, 0.6) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            m_auto = MobiusCircleMap(rho, pole)
            pulled = h_half_seminorm(lambda t: u(m_auto.apply_angle(t)),
                                     normalization="raw", m=256, strict=False)
            assert abs(pulled - raw) <= 0.01 * raw


def test_07_reflection_lemma(rng, criterion):
    with criterion(7, "reflected extension: derivative mirror and energy bound"):
        right = arc(-HALF_PI, HALF_PI)
        mirror = arc(HALF_PI, -HALF_PI)
        n = 100_000
        s = np.linspace(0.0, math.pi, n + 1)
        for _ in range(20):
            a = rng.uniform(-0.2, 0.2)
            b = rng.uniform(-0.06, 0.06)
            half = ArcHomeomorphism(right, right,
                                    s, s + a * np.sin(2 * s) + b * np.sin(4 * s))
            ext = reflect_half_extension(half)
            # |ext'| at theta must match |half'| at the mirror point pi - theta
            probe = rng.uniform(HALF_PI + 1e-3, 3 * HALF_PI - 1e-3, 25)
            soff = np.mod(3 * HALF_PI - probe, 2 * math.pi)
            truth = np.log(1.0 + 2 * a * np.cos(2 * soff) + 4 * b * np.cos(4 * soff))
            got = np.asarray(ext.log_deriv_angle(probe))
            assert np.max(np.abs(got - truth)) < 1e-4
            same = h_half_seminorm_detail(ext.log_deriv_angle, right, right,
                                          normalization="raw", m=64, strict=False)
            cross = h_half_seminorm_detail(ext.log_deriv_angle, right, mirror,
                                           normalization="raw", m=64, strict=False)
            assert cross["levels"][0] <= same["levels"][0]


def test_08_radial_functionals(radial_run, d_const, criterion):
    with criterion(8, "all functionals at their floor on the radial slit"):
        w = radial_run["welding"]
        u = welding_log_derivative(w)
        trimmed = arc(float(w.theta_plus[1]), float(w.theta_plus[-2]))
        semi_sq = h_half_seminorm_detail(u, trimmed, trimmed, m=256,
                                         strict=False)["value"]
        assert math.sqrt(max(semi_sq, 0.0)) < 1e-4
        assert abs(mr_constant(w) - 1.0) < 1e-3
        assert abs(qs_constant(welding_as_homeomorphism(w), positions=256) - 1.0) < 1e-3
        assert wp_cross_condition(w, m=256, strict=False)["value"] < 1e-4
        assert loewner_energy(d_const) == 0.0


def test_09_interior_shear_lemma(rng, criterion):
    with criterion(9, "interior shear: rim identity, continuity, dilatation"):
        fd_checks = 0
        for k in range(50):
            r = rng.uniform(0.3, 0.95)
            z0 = complex(rng.uniform(0.05, 0.9) * r
                         * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)))
            q_ev, mu = lemma_q_map(z0, r)
            img = complex(q_ev(z0))
            assert abs(img.imag) < 1e-9 and abs(img) < r
            z_out = complex(0.5 * (r + 1.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)))
            assert complex(q_ev(z_out)) == z_out
            zr = r * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            assert abs(complex(q_ev(zr * (1.0 - 1e-12))) - zr) < 1e-8
            if k < 10:
                # probe where |mu| is locally constant, so the difference
                # stencil stays inside one sector; the phase of mu still
                # varies there, so compare magnitudes only
                h = 1e-6
                for _ in range(40):
                    z = complex(rng.uniform(0.15, 0.8) * r
                                * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)))
                    stencil = [abs(complex(mu(z + dz)))
                               for dz in (h, -h, 1j * h, -1j * h)]
                    if max(abs(v - abs(complex(mu(z)))) for v in stencil) < 1e-12:
                        fd = oracles.fd_mu(lambda x: complex(q_ev(x)), z, h)
                        assert abs(abs(fd) - abs(complex(mu(z)))) < 1e-4
                        fd_checks += 1
                        break
        assert fd_checks == 10
        # corner ray at argument pi/4: sector stretch 2 below it, |mu| = 1/3
        p = 0.9 * cmath.exp(0.25j * math.pi)
        r = 0.8
        z0 = r * (p - 1j) / (p + 1j)
        q_ev, mu = lemma_q_map(z0, r)
        w_lo = 0.4 * cmath.exp(0.1j)      # below the ray in half-plane coordinates
        z_lo = r * (w_lo - 1j) / (w_lo + 1j)
        want = oracles.sector_mu_abs(0.25 * math.pi, upper=False)
        assert abs(want - 1.0 / 3.0) < 1e-15
        assert abs(abs(complex(mu(z_lo))) - want) < 1e-12
        fd = oracles.fd_mu(lambda x: complex(q_ev(x)), z_lo, 1e-6)
        assert abs(abs(fd) - want) < 1e-4


def test_10_dilatation_integral(criterion):
    with criterion(10, "squared-dilatation mass: closed form and invariance"):
        k, r = 0.2, 0.5
        field = BeltramiField(
            "unit_disk",
            lambda z: np.where(np.abs(np.asarray(z)) < r, k, 0.0) + 0j, k)
        want = oracles.const_mu_subdisk_integral(k, r)
        assert abs(poincare_l2_integral(field, n_r=128) - want) < 0.02 * want
        for pole, rho in ((0.3 + 0.1j, 0.4), (0.5 - 0.3j, 1.2), (-0.2 + 0.55j, 2.0)):
            m_auto = MobiusCircleMap(rho, pole)
            conf = DiskMapEvaluator("unit_disk", "unit_disk", lambda z: m_auto(z))
            pulled = poincare_l2_integral(field, conf=conf, n_r=192, strict=False)
            assert abs(pulled - want) < 0.02 * want


def test_11_j_decomposition_tiles(w_linear, criterion):
    with criterion(11, "arc energies tile the full-circle energy"):
        u = welding_construction(w_linear)["psi"].log_deriv_angle
        for m in (64, 128):
            # gate is the tiling identity; junction cells refine slowly, so the
            # internal level agreement is left loose
            parts = psi_j_decomposition(w_linear, m=m, agree_tol=0.2)
            assert parts["J1"] == 0.0
            for key in ("J2", "J3", "J4", "J5", "J6"):
                assert parts[key] >= 0.0
            full = h_half_seminorm_detail(u, normalization="raw", m=m,
                                          strict=False)["value"]
            assert abs(parts["weighted_sum"] - full) <= 0.02 * full


def test_12_stability_suite(w_sqrt_256, w_sqrt_512, criterion):
    with criterion(12, "functionals stable under sample and quadrature doubling"):
        qs_a = qs_constant(welding_as_homeomorphism(w_sqrt_256), positions=256)
        qs_b = qs_constant(welding_as_homeomorphism(w_sqrt_512), positions=256)
        mr_a, mr_b = mr_constant(w_sqrt_256), mr_constant(w_sqrt_512)
        for x in (qs_a, qs_b, mr_a, mr_b):
            assert math.isfinite(x) and x >= 1.0
        assert abs(qs_b - qs_a) <= 0.10 * qs_a
        assert abs(mr_b - mr_a) <= 0.10 * mr_a
        wp_a = wp_cross_condition(w_sqrt_512, m=512, strict=False)["value"]
        wp_b = wp_cross_condition(w_sqrt_512, m=1024, strict=False)["value"]
        assert math.isfinite(wp_a) and math.isfinite(wp_b)
        assert abs(wp_b - wp_a) <= 0.10 * wp_a
