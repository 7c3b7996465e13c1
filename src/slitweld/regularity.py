"""Boundary regularity functionals for circle functions and weldings.

Double integrals against the chordal kernel |z1 - z2|^2 use midpoint tensor
quadrature at three dyadic levels with Richardson extrapolation; disagreement
between the two extrapolants signals an unconverged (possibly divergent)
integral and raises AccuracyError in strict mode.

Every level of every such integral is one call of _chordal_sum.  On two grids
of one step h the kernel 1 / (4 sin^2(((i - j) h + off) / 2)) depends only on
i - j, so the sum of (u1_i - u2_j)^2 K_ij is u1^2 . K1 + 1 . K u2^2
- 2 u1 . K u2: three Toeplitz products, taken together by one circulant
embedding and FFT (Strang 1986; Chan and Ng 1996) in O(m log m) time and O(m)
memory.  Against a partner u2 that is identically 0 (the wp cross integral,
and log |psi'| on the arc where psi is the identity) the sum is u1^2 . K1, one
product.  When one arc's step is r times the other's, the finer grid is split
into its r interleaved phases, each a product on the coarser step, so every
level sums exactly the midpoint cells of the dense formula.  With a nonzero
partner, both functions are first centered on one shared constant: the
differences u1_i - u2_j do not change, and the squared terms no longer dwarf
the cross term they cancel against.  What cancellation is left is rounding
error that grows about as m times the machine epsilon: against a direct sum
of the same cells, about 1e-12 relative at 4096 points per arc and 4e-12 at
32768.
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

# samples per row block of the window deviations in _mean_oscillation: the
# float64 block takes 0.5 MiB, which stays in a core's L2 cache
_BLOCK_CELLS = 1 << 16

_STEP_RATIO_TOL = 1e-9   # how far two arcs' step ratio may sit from an integer

_MIN_WINDOW = 8      # vmo_curve's smallest window, in samples
_QS_DEPTH = 9        # qs_constant's separations L / 2^j run over j = 1 .. _QS_DEPTH
_DENSE_GAPS = 4096   # lip_half_norm scans every node gap up to this many nodes


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


def _kernel(a1: float, M: int, a2: float, N: int, h: float, same: bool):
    """1 / |e^{i t1_i} - e^{i t2_j}|^2 at the lags i - j = -(N - 1) .. M - 1.

    The grids are t1_i = a1 + i h and t2_j = a2 + j h; lag 0 sits at index
    N - 1.  With same, they are one grid and the lag-0 entry, the colliding
    midpoints, is 0.
    """
    half_chord = np.sin(0.5 * (np.arange(1 - N, M) * h + (a1 - a2)))
    if same:
        half_chord[N - 1] = 1.0
    kernel = 0.25 / (half_chord * half_chord)
    if same:
        kernel[N - 1] = 0.0   # u1 - u2 is 0 there, so the cell drops out
    return kernel


def _toeplitz_rows(kernel, rows, M: int, N: int):
    """Each row of length N times the kernel's M x N Toeplitz matrix, by FFT."""
    from numpy.fft import irfft, rfft   # not imported with numpy; costs about 1.7 ms

    size = 1 << (M + N - 2).bit_length()   # a power of two >= M + N - 1
    return irfft(rfft(rows, size) * rfft(kernel, size), size)[..., N - 1:N - 1 + M]


def _chordal_sum(a1: float, u1, a2: float, u2, h: float, same: bool) -> float:
    """Sum of (u1_i - u2_j)^2 / |e^{i t1_i} - e^{i t2_j}|^2 over all cells.

    The grids are t1_i = a1 + i h and t2_j = a2 + j h.  With same, they are
    one grid and the diagonal cells, the only colliding midpoints, are dropped.
    """
    M, N = u1.size, u2.size
    if not u2.any():
        return 0.0 if same else _zero_partner_sum(a1, u1, a2, N, h)
    shift = 0.5 * (u1.mean() + u2.mean())
    u1 = u1 - shift
    u2 = u2 - shift
    rows = np.stack((np.ones(N), u2 * u2, u2))
    k1, ku2sq, ku2 = _toeplitz_rows(_kernel(a1, M, a2, N, h, same), rows, M, N)
    return float(np.dot(u1 * u1, k1) + ku2sq.sum() - 2.0 * np.dot(u1, ku2))


def _zero_partner_sum(a1: float, u1, a2: float, N: int, h: float) -> float:
    """_chordal_sum of u1 against u2 = 0 on N points of a distinct grid.

    The sum is u1^2 . K 1: one Toeplitz product, and with no cross term to
    cancel against, no centering shift.
    """
    M = u1.size
    k1 = _toeplitz_rows(_kernel(a1, M, a2, N, h, False), np.ones(N), M, N)
    return float(np.dot(u1 * u1, k1))


def _level(I, u1, J, u2, same) -> float:
    """One midpoint level of the raw chordal energy of the samples u1 on I, u2 on J.

    The samples are taken at the m midpoints of each arc (_midpoints), m equal
    on both; with same, u2 is u1.
    """
    m = u1.size
    th1, h1 = _midpoints(I, m)
    th2, h2 = _midpoints(J, m)
    if h1 > h2:   # the sum is symmetric in the two grids: make grid 1 the finer
        th1, u1, h1, th2, u2, h2 = th2, u2, h2, th1, u1, h1
    # h2 is r h1 (_check_commensurate): grid 1 is summed as its r interleaved
    # phases, each on the step h2; with r > m the phases past the m-th are empty
    r = round(h2 / h1)
    total = sum(_chordal_sum(th1[p], u1[p::r], th2[0], u2, h2, same) for p in range(min(r, m)))
    return total * h1 * h2


def _check_commensurate(I: OrientedArc | None, J: OrientedArc | None):
    """Reject arcs whose m-point steps are not integer multiples of each other."""
    lengths = [TWO_PI if a is None else a.length for a in (I, J)]
    ratio = max(lengths) / min(lengths)
    if abs(ratio - round(ratio)) > _STEP_RATIO_TOL:
        raise ValidationError("the two arcs' lengths must be integer multiples of each other")


def _richardson(levels, agree_tol: float, strict: bool):
    """Extrapolated value, levels, extrapolants and agreement of three dyadic levels."""
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
    takes the square root in that case.  One arc's length must be an integer
    multiple of the other's; other pairs raise ValidationError before u is
    evaluated.
    """
    if normalization not in ("two_pi", "raw"):
        raise ValidationError("normalization must be 'two_pi' or 'raw'")
    if m < 8:
        raise ValidationError("base quadrature level must be at least 8")
    f, dom = _resolve(u)
    I = dom if I is None else I
    J = I if J is None else J
    _check_commensurate(I, J)
    same = _same_arc(I, J)

    def q(mm):
        u1 = f(_midpoints(I, mm)[0])
        return _level(I, u1, J, u1 if same else f(_midpoints(J, mm)[0]), same)

    value, levels, extrap, agreement = _richardson((q(m), q(2 * m), q(4 * m)),
                                                   agree_tol, strict)
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
        th1, h = _midpoints(A1, mm)
        th2, _ = _midpoints(A2, mm)
        u = log_chi_deriv(th1)
        k = mm // m   # cells per alpha cell: the last k of th1 and the first k of th2
        total = _zero_partner_sum(th1[0], u, th2[0], mm, h) * h * h
        alpha_mass = (_zero_partner_sum(th1[-k], u[-k:], th2[0], mm, h)
                      + _zero_partner_sum(th1[0], u[:-k], th2[0], k, h)) * h * h
        alpha_masses.append(alpha_mass)
        return total if include_alpha_cells else total - alpha_mass

    value, levels, extrap, agreement = _richardson((q(m), q(2 * m), q(4 * m)),
                                                   agree_tol, strict)
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


def _mean_oscillation(vals, scale: float, h: float, periodic: bool) -> float:
    """Largest mean oscillation of the samples vals over windows of length scale."""
    samples = vals.size
    wlen = int(np.clip(round(scale / h), 2, samples))
    if periodic:
        vals = np.concatenate((vals, vals[: wlen - 1]))
    windows = sliding_window_view(vals, wlen)
    means = windows.mean(axis=1)
    # the deviations from the window means are taken in row blocks of about
    # _BLOCK_CELLS samples, all in one buffer, so memory is O(samples) at any
    # window length and no block allocates (or page-faults in) its own array
    osc = np.empty_like(means)
    rows = max(1, _BLOCK_CELLS // wlen)
    buf = np.empty((min(rows, means.size), wlen))
    for lo in range(0, means.size, rows):
        dev = buf[:min(rows, means.size - lo)]
        np.subtract(windows[lo:lo + rows], means[lo:lo + rows, None], out=dev)
        osc[lo:lo + rows] = np.abs(dev, out=dev).mean(axis=1)
    return float(osc.max())


def vmo_curve(u, samples: int = 2048) -> list:
    """[scale, largest mean oscillation] pairs at the dyadic scales span, span / 2, ...

    The windows are arcs of length scale; u is sampled once, at the midpoints
    of samples equal cells, for all scales.  Scales stop before a window would
    hold fewer than _MIN_WINDOW samples.
    """
    f, dom = _resolve(u)
    span, start = (TWO_PI, 0.0) if dom is None else (dom.length, dom.start.angle)
    h = span / samples
    vals = f(start + (np.arange(samples) + 0.5) * h)
    curve = []
    scale = span
    while scale / h >= _MIN_WINDOW:
        curve.append([scale, _mean_oscillation(vals, scale, h, dom is None)])
        scale *= 0.5
    return curve


def bmo_norm(u, samples: int = 2048) -> float:
    """Supremum of the mean oscillation over the dyadic window scales of vmo_curve."""
    return max((m for _, m in vmo_curve(u, samples)), default=0.0)


def qs_constant(h: ArcHomeomorphism, positions: int = 256) -> float:
    """Quasisymmetry constant over symmetric triples at dyadic separations.

    Compares chordal image lengths of adjacent equal-length arcs; a degenerate
    image chord yields inf.
    """
    L = h.domain.length
    worst = 1.0
    for j in range(1, _QS_DEPTH + 1):
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


def lip_half_norm(d: DrivingTerm) -> float:
    """Largest chordal increment of e^{i sigma} against the square-root gap.

    All node gaps are scanned when the grid is small; larger grids fall back
    to dyadic index gaps.
    """
    t = d.grid
    s = d.sigma
    n = t.size
    if n < 2:
        return 0.0
    gaps = range(1, n) if n <= _DENSE_GAPS else _dyadic_gaps(n)
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
