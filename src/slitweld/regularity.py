"""Boundary regularity functionals for circle functions and weldings.

Double integrals against the chordal kernel |z1 - z2|^2 use midpoint tensor
quadrature at three dyadic levels with Richardson extrapolation; disagreement
between the two extrapolants signals an unconverged (possibly divergent)
integral and raises AccuracyError in strict mode.

Every level of every such integral is one call of _chordal_sum, which walks
the midpoint grid in row blocks of about _BLOCK_CELLS cells, so memory is
O(m) at any level.  The chord comes from the half-angle identity
sin((a - b)/2) = sin(a/2) cos(b/2) - cos(a/2) sin(b/2), whose sines and
cosines are taken once per midpoint, so no cell evaluates a transcendental.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arcfun import ArcFunction, ArcHomeomorphism
from .circle import TWO_PI, OrientedArc, arc
from .errors import AccuracyError, ValidationError
from .loewner import DrivingTerm
from .welding import Welding, _conjugated_welding, build_tau

__all__ = [
    "h_half_seminorm",
    "h_half_seminorm_detail",
    "wp_cross_condition",
    "vmo_modulus",
    "vmo_curve",
    "bmo_norm",
    "qs_constant",
    "mr_constant",
    "loewner_energy",
    "lip_half_norm",
]

# agreement is measured against max(|value|, floor): energies this small are
# noise-dominated (sampled data carries ~1e-6 node error) and already below
# every threshold of interest, so relative refinement cannot and need not hold
_AGREE_FLOOR = 1e-8

# cells per row block of _chordal_sum: its three float64 temporaries take
# 1.5 MiB, which stays in a core's L2 cache; blocks of 2^18 cells measured
# 1.3x slower at level 4096
_BLOCK_CELLS = 1 << 16


def _resolve(u):
    """Evaluation callable and natural domain of a sampled or closed-form u."""
    if isinstance(u, ArcFunction):
        return u.eval_angle, u.arc
    if callable(u):
        return (lambda th: np.asarray(u(th), dtype=float)), None
    raise ValidationError("u must be an ArcFunction or a callable of angles")


def _same_arc(a: OrientedArc | None, b: OrientedArc | None) -> bool:
    if a is None or b is None:
        return a is b or (a is None and b is None)
    return (abs(a.start.angle - b.start.angle) < 1e-12
            and abs(a.end.angle - b.end.angle) < 1e-12)


def _midpoints(a: OrientedArc | None, m: int):
    if a is None:
        start, span = 0.0, TWO_PI
    else:
        start, span = a.start.angle, a.length
    h = span / m
    return start + (np.arange(m) + 0.5) * h, h


def _chordal_sum(th1, u1, th2, u2, same: bool) -> float:
    """Sum of (u1_i - u2_j)^2 / |e^{i th1_i} - e^{i th2_j}|^2 over all cells.

    With same, th1 and th2 are one grid and the diagonal cells, the only
    colliding midpoints, are dropped.
    """
    s1, c1 = np.sin(0.5 * th1), np.cos(0.5 * th1)
    s2, c2 = np.sin(0.5 * th2), np.cos(0.5 * th2)
    rows = max(1, _BLOCK_CELLS // th2.size)
    total = 0.0
    for lo in range(0, th1.size, rows):
        hi = min(lo + rows, th1.size)
        half_chord = np.multiply.outer(s1[lo:hi], c2)
        half_chord -= np.multiply.outer(c1[lo:hi], s2)
        q = np.subtract.outer(u1[lo:hi], u2)
        if same:
            r = np.arange(hi - lo)
            half_chord[r, lo + r] = 1.0   # q is 0 there, so the cell drops out
        q /= half_chord
        q *= q
        total += float(q.sum())
    return 0.25 * total


def _level(f, I, J, m, same) -> float:
    th1, h1 = _midpoints(I, m)
    th2, h2 = _midpoints(J, m)
    u1 = f(th1)
    u2 = u1 if same else f(th2)
    return _chordal_sum(th1, u1, th2, u2, same) * h1 * h2


def _richardson(q, m: int, agree_tol: float, strict: bool):
    levels = (q(m), q(2 * m), q(4 * m))
    r12 = 2.0 * levels[1] - levels[0]
    r23 = 2.0 * levels[2] - levels[1]
    agreement = abs(r23 - r12) / max(abs(r23), _AGREE_FLOOR)
    if strict and agreement > agree_tol:
        raise AccuracyError(r12, r23)
    return r23, levels, (r12, r23), agreement


def h_half_seminorm_detail(u, I: OrientedArc | None = None, J: OrientedArc | None = None,
                           normalization: str = "two_pi", m: int = 256,
                           agree_tol: float = 0.01, strict: bool = True) -> dict:
    """Chordal-kernel energy of u over I x J with full convergence data.

    With I == J the reported value is the squared seminorm; h_half_seminorm
    takes the square root in that case.
    """
    if normalization not in ("two_pi", "raw"):
        raise ValidationError("normalization must be 'two_pi' or 'raw'")
    if m < 8:
        raise ValidationError("base quadrature level must be at least 8")
    f, dom = _resolve(u)
    I = dom if I is None else I
    J = I if J is None else J
    same = _same_arc(I, J)
    value, levels, extrap, agreement = _richardson(
        lambda mm: _level(f, I, J, mm, same), m, agree_tol, strict)
    scale = 1.0 / (TWO_PI * TWO_PI) if normalization == "two_pi" else 1.0
    return {
        "value": value * scale,
        "levels": tuple(x * scale for x in levels),
        "extrapolants": tuple(x * scale for x in extrap),
        "agreement": agreement,
        "same_arc": same,
        "normalization": normalization,
        "base_level": m,
    }


def h_half_seminorm(u, I: OrientedArc | None = None, J: OrientedArc | None = None,
                    normalization: str = "two_pi", m: int = 256,
                    agree_tol: float = 0.01, strict: bool = True) -> float:
    """Half-order seminorm of u on I (I == J), or the cross energy over I x J.

    With the two_pi normalization on the full circle the squared seminorm of
    sum a_n e^{i n theta} equals sum |n| |a_n|^2.
    """
    d = h_half_seminorm_detail(u, I, J, normalization, m, agree_tol, strict)
    if d["same_arc"]:
        return math.sqrt(max(d["value"], 0.0))
    return d["value"]


def wp_cross_condition(w: Welding, m: int = 256, include_alpha_cells: bool = False,
                       agree_tol: float = 0.02, strict: bool = False) -> dict:
    """Cross energy of log |(tau^-1 phi tau)'| between its domain and image arcs.

    The conjugated welding chi = tau^-1 phi tau carries the quarter arc from 1
    to i onto the quarter arc from -i to 1; the integral couples log |chi'| on
    the first arc to the second through the chordal kernel and is finite only
    when log |chi'| vanishes fast enough at the shared endpoint 1.  Cells next
    to i and -i rest on one-sided derivative data and are excluded unless
    include_alpha_cells is set; their contribution is reported separately.
    """
    _, log_chi_deriv = _conjugated_welding(w, build_tau(w.alpha_minus, w.alpha_plus))
    A1 = arc(0.0, 0.5 * math.pi)
    A2 = arc(-0.5 * math.pi, 0.0)
    alpha_masses = []   # the cells within one base-level cell of i or of -i

    def q(mm):
        th1, h1 = _midpoints(A1, mm)
        th2, h2 = _midpoints(A2, mm)
        u = log_chi_deriv(th1)
        zero = np.zeros(mm)
        k = mm // m   # cells per alpha cell: the last k of th1 and the first k of th2
        total = _chordal_sum(th1, u, th2, zero, False) * h1 * h2
        alpha_mass = (_chordal_sum(th1[-k:], u[-k:], th2, zero, False)
                      + _chordal_sum(th1[:-k], u[:-k], th2[:k], zero[:k], False)) * h1 * h2
        alpha_masses.append(alpha_mass)
        return total if include_alpha_cells else total - alpha_mass

    value, levels, extrap, agreement = _richardson(q, m, agree_tol, strict)
    return {
        "value": value,
        "levels": levels,
        "extrapolants": extrap,
        "agreement": agreement,
        "converged": agreement <= agree_tol,
        "alpha_cell_mass": alpha_masses[-1],   # the finest level, q(4 m)
        "alpha_cells_included": include_alpha_cells,
        "base_level": m,
    }


def _window_setup(u, samples: int):
    f, dom = _resolve(u)
    if dom is None:
        span = TWO_PI
        start = 0.0
    else:
        span = dom.length
        start = dom.start.angle
    h = span / samples
    vals = f(start + (np.arange(samples) + 0.5) * h)
    return vals, span, h, dom is None


def vmo_modulus(u, scale: float, samples: int = 2048) -> float:
    """Largest mean oscillation over windows of the given arc length."""
    vals, span, h, periodic = _window_setup(u, samples)
    if not 0.0 < scale <= span + 1e-12:
        raise ValidationError("window scale must lie in (0, span]")
    wlen = int(np.clip(round(scale / h), 2, samples))
    if periodic:
        vals = np.concatenate((vals, vals[: wlen - 1]))
    windows = sliding_window_view(vals, wlen)
    means = windows.mean(axis=1)
    # the deviations from the window means are taken in row blocks of about
    # _BLOCK_CELLS samples, so memory is O(samples) at any window length
    osc = np.empty_like(means)
    rows = max(1, _BLOCK_CELLS // wlen)
    for lo in range(0, means.size, rows):
        dev = windows[lo:lo + rows] - means[lo:lo + rows, None]
        osc[lo:lo + rows] = np.abs(dev, out=dev).mean(axis=1)
    return float(osc.max())


def vmo_curve(u, samples: int = 2048, min_window: int = 8) -> list:
    """[scale, vmo_modulus] pairs at the dyadic scales span, span / 2, ...

    Scales stop before a window would hold fewer than min_window samples.
    """
    _, span, h, _ = _window_setup(u, samples)
    curve = []
    scale = span
    while scale / h >= min_window:
        curve.append([scale, vmo_modulus(u, scale, samples)])
        scale *= 0.5
    return curve


def bmo_norm(u, samples: int = 2048, min_window: int = 8) -> float:
    """Supremum of vmo_modulus over dyadic window scales."""
    return max((m for _, m in vmo_curve(u, samples, min_window)), default=0.0)


def qs_constant(h: ArcHomeomorphism, max_depth: int = 9, positions: int = 256) -> float:
    """Quasisymmetry constant over symmetric triples at dyadic separations.

    Compares chordal image lengths of adjacent equal-length arcs; a degenerate
    image chord yields inf.
    """
    L = h.domain.length
    worst = 1.0
    for j in range(1, max_depth + 1):
        delta = L / 2.0 ** j
        inner = L - 2.0 * delta
        if inner < 0.0:
            continue
        ys = np.linspace(delta, L - delta, positions) if inner > 0 else np.array([delta])
        left = h.eval_offset(ys - delta)
        mid = h.eval_offset(ys)
        right = h.eval_offset(ys + delta)
        c1 = 2.0 * np.abs(np.sin(0.5 * (right - mid)))
        c2 = 2.0 * np.abs(np.sin(0.5 * (mid - left)))
        if np.any(c1 <= 0.0) or np.any(c2 <= 0.0):
            return math.inf
        r = c1 / c2
        worst = max(worst, float(r.max()), float((1.0 / r).max()))
    return worst


def mr_constant(w: Welding) -> float:
    """Worst chordal imbalance of welded pairs around the base point."""
    tp = w.theta_plus[1:]
    tm = w.theta_minus[1:]
    cp = np.sin(0.5 * tp)
    cm = np.sin(0.5 * np.abs(tm))
    if np.any(cp <= 0.0) or np.any(cm <= 0.0):
        return math.inf
    r = cm / cp
    return max(float(r.max()), float((1.0 / r).max()))


def loewner_energy(d: DrivingTerm) -> float:
    """Dirichlet energy of the driving term, exact for its linear pieces."""
    dt = np.diff(d.grid)
    ds = np.diff(d.sigma)
    return float(0.5 * np.sum(ds * ds / dt))


def lip_half_norm(d: DrivingTerm, dense_limit: int = 4096) -> float:
    """Largest chordal increment of e^{i sigma} against the square-root gap.

    All node gaps are scanned when the grid is small; larger grids fall back
    to dyadic index gaps.
    """
    t = d.grid
    s = d.sigma
    n = t.size
    if n < 2:
        return 0.0
    gaps = range(1, n) if n <= dense_limit else _dyadic_gaps(n)
    best = 0.0
    for g in gaps:
        chord = 2.0 * np.abs(np.sin(0.5 * (s[g:] - s[:-g])))
        best = max(best, float(np.max(chord / np.sqrt(t[g:] - t[:-g]))))
    return best


def _dyadic_gaps(n: int):
    g = 1
    while g < n:
        yield g
        g *= 2
