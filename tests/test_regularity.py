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
import slitweld.regularity as regularity
from oracles import radial_slit_welding
from slitweld.arcfun import ArcFunction
from slitweld.circle import MobiusCircleMap, arc
from slitweld.constructions import psi_j_decomposition
from slitweld.errors import AccuracyError, ValidationError
from slitweld.loewner import DrivingTerm
from slitweld.regularity import (
    h_half_seminorm,
    h_half_seminorm_detail,
    lip_half_norm,
    loewner_energy,
    mr_constant,
    qs_constant,
    vmo_curve,
    wp_cross_condition,
)
from slitweld.welding import (
    Welding,
    _conjugated_welding,
    extract_welding,
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


def test_vmo_curve_smooth_scaling():
    curve = vmo_curve(np.cos)
    scale = 2.0 * math.pi / 128
    (small,) = [m for s, m in curve if s == scale]
    # locally linear with peak slope 1: mean oscillation ~ scale / 4
    assert abs(small - scale / 4.0) < 0.1 * scale
    assert all(small < m for s, m in curve if s > scale)


# samples on an arc of length 2; np.cos and "wrapping" are callables, whose
# windows wrap around the whole circle
_VMO_ARC = arc(0.3, 2.3)
_VMO_NODES = np.linspace(0.0, 2.0, 4001)


def _vmo_input(kind):
    x = _VMO_NODES
    if kind == "rising":
        return ArcFunction(_VMO_ARC, x, 5.0 + np.tanh(3.0 * x))
    if kind == "falling":
        return ArcFunction(_VMO_ARC, x, 3.0 - np.exp(x))
    if kind == "plateaus":   # ties, and flat steps in rising and falling runs
        return ArcFunction(_VMO_ARC, x, np.floor(7.0 * x) + 0.25 * np.floor(40.0 * x) % 3)
    if kind == "few_runs":
        return ArcFunction(_VMO_ARC, x, np.sin(4.0 * x) + 0.1 * x)
    if kind == "noise":
        return ArcFunction(_VMO_ARC, x, np.random.default_rng(5).standard_normal(x.size))
    if kind == "welding":   # one rising run, as on the benchmark weldings
        d = DrivingTerm.from_function(lambda t: 0.4 * np.sqrt(t), 1.0, 256, power=2)
        return welding_log_derivative(extract_welding(d, 128))
    if kind == "lip_half_200":
        d = DrivingTerm(*oracles.random_lip_half_nodes(np.random.default_rng(0), n=200,
                                                        const=2.0))
        return welding_log_derivative(extract_welding(d, 256))
    if kind == "wrapping":   # three rising and three falling runs around the circle
        return lambda th: np.round(4.0 * np.sin(3.0 * th)) / 4.0 + 100.0
    return np.cos


_VMO_KINDS = ["rising", "falling", "plateaus", "few_runs", "welding", "noise",
              "lip_half_200", "wrapping", "cos"]


@pytest.mark.parametrize("samples", [2048, 8192])
@pytest.mark.parametrize("kind", _VMO_KINDS)
def test_vmo_curve_matches_dense_reference(kind, samples):
    u = _vmo_input(kind)
    got = vmo_curve(u, samples)
    want = oracles.dense_vmo_curve(u, samples)
    assert [s for s, _ in got] == [s for s, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)


def _greedy_runs(vals):
    """Starts and directions of maximal monotone runs, one step at a time."""
    starts, rising, direction = [0], [], 0
    for k in range(vals.size - 1):
        step = np.sign(vals[k + 1] - vals[k])
        if step == 0 or step == direction:
            continue
        if direction == 0:
            direction = step
        else:
            rising.append(direction > 0)
            starts.append(k + 1)
            direction = 0
    rising.append(direction >= 0)
    return starts, rising


def test_monotone_runs_are_the_greedy_maximal_runs(rng):
    for _ in range(500):
        vals = rng.integers(0, rng.integers(1, 5), rng.integers(1, 30)).astype(float)
        starts, rising = regularity._monotone_runs(vals)
        want_starts, want_rising = _greedy_runs(vals)
        assert starts.tolist() == want_starts
        # the direction of a run with no moving step is free
        moves = [np.any(np.diff(vals[a:b]) != 0)
                 for a, b in zip(want_starts, want_starts[1:] + [vals.size])]
        assert [r for r, m in zip(rising.tolist(), moves) if m] == \
            [r for r, m in zip(want_rising, moves) if m]


def _vmo_paths(monkeypatch, u, samples):
    """Window lengths that vmo_curve sums over runs and by the dense pass."""
    paths = {"runs": [], "dense": []}
    by_runs, dense = regularity._RunSums.mean_oscillation, regularity._mean_oscillation

    def runs(self, wlen, count):
        paths["runs"].append(wlen)
        return by_runs(self, wlen, count)

    def dense_pass(vals, scale, h, periodic):
        paths["dense"].append(regularity._window_length(scale, h, vals.size))
        return dense(vals, scale, h, periodic)

    monkeypatch.setattr(regularity._RunSums, "mean_oscillation", runs)
    monkeypatch.setattr(regularity, "_mean_oscillation", dense_pass)
    vmo_curve(u, samples)
    return paths


def test_vmo_curve_takes_runs_on_long_windows_of_monotone_samples(monkeypatch):
    # one rising run: a pair costs _PAIR_COST cells, so windows of 64 samples
    # and more take the runs, and the dense pass is cheaper below
    paths = _vmo_paths(monkeypatch, _vmo_input("rising"), 2048)
    assert paths == {"runs": [2048, 1024, 512, 256, 128, 64], "dense": [32, 16, 8]}
    paths = _vmo_paths(monkeypatch, _vmo_input("noise"), 2048)
    assert paths == {"runs": [], "dense": [2048, 1024, 512, 256, 128, 64, 32, 16, 8]}


def test_vmo_curve_keeps_non_finite_samples_dense():
    def u(th):
        return np.where(th < 1.0, np.nan, np.sin(th))

    assert all(math.isnan(m) for _, m in vmo_curve(u, 256))


@pytest.mark.parametrize("kind", ["rising", "lip_half_200", "cos"])
def test_vmo_curve_memory_stays_below_the_dense_pass(kind):
    u = _vmo_input(kind)
    peaks = []
    for run in (oracles.dense_vmo_curve, vmo_curve):
        tracemalloc.start()
        try:
            run(u, 8192)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_bmo_dominated_by_seminorm(rng):
    for _ in range(3):
        u, _ = oracles.trig_poly(rng, 4)
        assert max(m for _, m in vmo_curve(u)) <= h_half_seminorm(u, normalization="raw", m=64)


def test_qs_constant_identity_and_kink():
    from slitweld.arcfun import ArcHomeomorphism

    a = arc(0.0, 1.0)
    s = np.linspace(0.0, a.length, 9)
    assert qs_constant(ArcHomeomorphism(a, a, s, s.copy())) == pytest.approx(1.0, abs=1e-12)
    # slope jump 1 -> 3 at the midpoint forces the triple ratio toward 3
    h = ArcHomeomorphism(a, arc(0.0, 2.0), [0.0, 0.5, 1.0], [0.0, 0.5, 2.0])
    got = qs_constant(h, positions=257)
    assert abs(got - 3.0) < 0.01


def test_qs_constant_radial(w_const_256):
    got = qs_constant(welding_as_homeomorphism(w_const_256), positions=64)
    assert 1.0 <= got < 1.001
    closed = welding_as_homeomorphism(radial_slit_welding(0.3, n=64))
    assert qs_constant(closed, positions=64) == pytest.approx(1.0, abs=1e-9)


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


@pytest.mark.parametrize("m", [64, 1024])
def test_wp_cross_condition_matches_blocked_sum(w_sqrt_256, m):
    # against the direct sum, to its rounding, as the FFT kernel test below:
    # the library's levels are 1.6e-14 to 1.1e-13 from it
    w = w_sqrt_256
    _, log_chi_deriv = _conjugated_welding(w)
    want = []
    for mm in (m, 2 * m, 4 * m):
        h = 0.5 * math.pi / mm
        th1 = (np.arange(mm) + 0.5) * h
        th2 = -0.5 * math.pi + (np.arange(mm) + 0.5) * h
        want.append(oracles.blocked_chordal_sum(th1, log_chi_deriv(th1), th2, np.zeros(mm),
                                                False) * h * h)
    got = wp_cross_condition(w, m=m, strict=False)
    assert got["levels"] == pytest.approx(tuple(want), rel=1e-11)


def test_chordal_sums_take_one_single_row_product_per_level_and_phase(w_sqrt_256, rng,
                                                                     monkeypatch):
    rows = []
    product = regularity._toeplitz_rows

    def counted(kernel, row, M, N):
        rows.append(np.shape(row))
        return product(kernel, row, M, N)

    monkeypatch.setattr(regularity, "_toeplitz_rows", counted)
    wp_cross_condition(w_sqrt_256, m=16)   # against 0: row sums only
    assert rows == []
    u, _ = oracles.trig_poly(rng, 4)
    h_half_seminorm_detail(u, m=16)
    assert rows == [(16,), (32,), (64,)]
    rows.clear()
    # B's step is half A's: each level sums B's two phases against A's grid
    h_half_seminorm_detail(u, arc(-0.5 * math.pi, 0.0), arc(0.0, math.pi), m=16, strict=False)
    assert rows == [(16,), (16,), (32,), (32,), (64,), (64,)]
    rows.clear()
    # J2 and J4 at each level; J5 sums against 0
    psi_j_decomposition(w_sqrt_256, m=16, agree_tol=math.inf)
    assert rows == [(16,), (16,), (32,), (32,), (64,), (64,)]


def test_lip_half_norm_blocks_equal_the_gap_loop(d_sqrt):
    fine = DrivingTerm(*oracles.random_lip_half_nodes(np.random.default_rng(3), n=4095,
                                                       const=2.0))
    for d in (d_sqrt, fine):
        assert lip_half_norm(d) == oracles.lip_half_gap_loop(d)


def test_wp_cross_condition_radial(w_const_256):
    d = wp_cross_condition(w_const_256, m=64)
    assert d["value"] < 1e-6
    assert d["converged"]
    assert d["base_level"] == 64


def test_wp_levels_agree_on_the_exact_log_derivative(monkeypatch):
    # sigma = c t with the closed-form ln phi' at the welding's nodes: the start
    # angles u+ = theta_plus and u- = -theta_minus leave at the rates
    # cot(u/2) + c and cot(u/2) - c, and the base pair reads exactly 0.  Every
    # cell summed, the integrand does not depend on the level
    c = 0.4
    w = extract_welding(DrivingTerm([0.0, 1.0], [0.0, c]), 256)
    up, um = w.theta_plus[1:], -w.theta_minus[1:]
    exact = np.concatenate(([0.0], np.log((1.0 / np.tan(0.5 * um) - c)
                                          / (1.0 / np.tan(0.5 * up) + c))))
    monkeypatch.setattr("slitweld.welding.welding_log_derivative",
                        lambda _: ArcFunction(w.arc_plus, w.theta_plus.copy(), exact))
    coarse, fine = (wp_cross_condition(w, m=m)["value"] for m in (256, 1024))
    assert fine == pytest.approx(coarse, rel=1e-4)


@pytest.mark.parametrize("func, count", [("wp", 0), ("wp", 1), ("wp", 7), ("vmo", 0),
                                         ("vmo", 4), ("vmo", 7), ("qs", 0)])
def test_counts_are_checked_before_sampling(w_const_256, monkeypatch, func, count):
    def never(*_):
        raise AssertionError("sampled before the count was checked")

    monkeypatch.setattr("slitweld.welding.welding_log_derivative", never)
    hom = welding_as_homeomorphism(w_const_256)
    hom.eval_offset = never
    calls = {"wp": lambda: wp_cross_condition(w_const_256, m=count),
             "vmo": lambda: vmo_curve(never, samples=count),
             "qs": lambda: qs_constant(hom, positions=count)}
    with pytest.raises(ValidationError):
        calls[func]()


def test_wp_doubling_increment_follows_divergence_law(w_sqrt_256):
    # at the shared endpoint log |chi'| tends to l1, the log-slope ratio of the
    # first welding cell, so the cross integral grows like l1^2 ln m and each
    # doubling of the level adds ln 2 * l1^2 (sigma = kappa sqrt(t), kappa = 0.4,
    # 0.1 and 0.6, graded as d_sqrt)
    others = [extract_welding(DrivingTerm.from_function(lambda t, k=k: k * np.sqrt(t),
                                                        1.0, 256, power=2), 256)
              for k in (0.1, 0.6)]
    for w in [w_sqrt_256, *others]:
        r12, r23 = wp_cross_condition(w, m=64, strict=False)["extrapolants"]
        l1 = math.log(-w.theta_minus[1] / w.theta_plus[1])
        assert r23 - r12 == pytest.approx(math.log(2.0) * l1 * l1, rel=0.01)


def test_bmo_of_extracted_log_derivative(w_const_256):
    f = welding_log_derivative(w_const_256)
    assert max(m for _, m in vmo_curve(f, samples=512)) < 1e-3


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
    _, log_chi_deriv = _conjugated_welding(w)
    want = tuple(oracles.dense_wp_level(log_chi_deriv, mm) for mm in (m, 2 * m, 4 * m))
    got = wp_cross_condition(w, m=m)
    assert got["levels"] == pytest.approx(want, rel=1e-12)


# the FFT kernel at levels up to 4096 against the O(m)-memory blocked sum: the
# pairs above, C x A (steps 1 : 2, as in J6) and the two quarter arcs of the
# wp cross integral; the offset function has a mean 50 times its spread
FFT_PAIRS = dict(ARC_PAIRS,
                 CxA=(arc(math.pi, -0.5 * math.pi), arc(0.0, math.pi)),
                 wp=(arc(0.0, 0.5 * math.pi), arc(-0.5 * math.pi, 0.0)))


def _blocked_levels(u, I, J, m, same):
    levels = []
    for mm in (m, 2 * m, 4 * m):
        h1, h2 = I.length / mm, J.length / mm
        th1 = I.start.angle + (np.arange(mm) + 0.5) * h1
        th2 = J.start.angle + (np.arange(mm) + 0.5) * h2
        u1 = np.asarray(u(th1), dtype=float)
        u2 = u1 if same else np.asarray(u(th2), dtype=float)
        levels.append(oracles.blocked_chordal_sum(th1, u1, th2, u2, same) * h1 * h2)
    return tuple(levels)


@pytest.mark.parametrize("func", ["trig", "offset", "zero_on_J"])
@pytest.mark.parametrize("pair", sorted(FFT_PAIRS))
def test_fft_kernel_matches_blocked_reference(rng, pair, func):
    I, J = FFT_PAIRS[pair]
    if func == "trig":
        u, _ = oracles.trig_poly(rng, 4)
    elif func == "offset":
        def u(th):
            return 5.0 + 0.1 * np.sin(th)
    else:
        # exactly 0 on J, so the sums run against a zero partner (on A x A,
        # where u is 0 on both grids, every level is 0)
        trig, _ = oracles.trig_poly(rng, 4)

        def u(th):
            return np.where(np.mod(th - J.start.angle, 2.0 * math.pi) < J.length, 0.0, trig(th))
    got = h_half_seminorm_detail(u, I, J, normalization="raw", m=1024, strict=False)
    want = _blocked_levels(u, I, J, 1024, pair == "AxA")
    assert got["levels"] == pytest.approx(want, rel=1e-11)


def test_incommensurate_arcs_are_rejected(rng):
    def never(th):
        raise AssertionError("u evaluated before the arcs were checked")

    with pytest.raises(ValidationError):
        h_half_seminorm_detail(never, arc(0.0, 1.0), arc(2.0, 3.5))
    u, _ = oracles.trig_poly(rng, 4)
    short, long = arc(0.0, 0.5), arc(1.0, 2.5)   # steps 1 : 3
    tiny = arc(3.0, 3.05)                         # steps 1 : 30, more phases than m
    for I, J in ((short, long), (long, short), (tiny, long)):
        got = h_half_seminorm_detail(u, I, J, normalization="raw", m=16, strict=False)
        want = tuple(oracles.dense_chordal_level(u, I.start.angle, I.length, J.start.angle,
                                                 J.length, mm, False)
                     for mm in (16, 32, 64))
        assert got["levels"] == pytest.approx(want, rel=1e-12)


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
