"""Boundary regularity functionals for circle functions and weldings.

Double integrals against the chordal kernel |z1 - z2|^2 use midpoint tensor
quadrature at three dyadic levels with Richardson extrapolation; disagreement
between the two extrapolants signals an unconverged (possibly divergent)
integral and raises AccuracyError in strict mode.

Every level of every such integral is one call of _chordal_sum.  On two grids
of one step h the kernel 1 / (4 sin^2(((i - j) h + off) / 2)) depends only on
i - j, so the sum of (u1_i - u2_j)^2 K_ij is u1^2 . K1 + u2^2 . K^T 1
- 2 u1 . K u2.  The row sums K1 and the column sums K^T 1 are runs of the
kernel array, taken from its compensated prefix sums (_prefix_sums); K u2 is
one Toeplitz product, by circulant embedding and FFT (Strang 1986; Chan and
Ng 1996), in O(m log m) time and O(m) memory.  Against a partner u2 that is
identically 0 (the wp cross integral, and log |psi'| on the arc where psi is
the identity) the sum is u1^2 . K1 and takes no product.  When one arc's step
is r times the other's, the finer grid is split into its r interleaved
phases, each summed on the coarser step, so every level sums exactly the
midpoint cells of the dense formula.  With a nonzero partner, both functions
are first centered on one shared constant: the differences u1_i - u2_j do not
change, and the squared terms no longer dwarf the cross term they cancel
against.  What cancellation is left is rounding error that grows about as m
times the machine epsilon: against a direct sum of the same cells, about
1e-12 relative at 4096 points per arc and 4e-12 at 32768.

vmo_curve's mean oscillation of a window is the mean of |u - m| over its
samples, m their mean.  The samples are cut once into maximal monotone runs.
On one run, the samples above m are one stretch at the run's upper end, found
by one binary search, so a window's sum is a few prefix-sum differences per
run it meets, and a scale costs O(window-run pairs x log n) in place of the
dense pass's O(samples x window) cells.  The prefix sums carry their own
rounding error beside them (Knuth's TwoSum), so the run sums stay within
1e-13 of the dense pass even at 8192 samples.  A scale takes the runs
only when its pairs cost less than its cells; short windows and samples of
many short runs (white noise) keep the dense pass.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arcfun import ArcFunction, ArcHomeomorphism
from .circle import TWO_PI, OrientedArc, arc
from .errors import AccuracyError, ValidationError
from .loewner import DrivingTerm
from .welding import Welding, _conjugated_welding

__all__ = [
    "h_half_seminorm",
    "h_half_seminorm_detail",
    "wp_cross_condition",
    "vmo_curve",
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
# (lip_half_norm's blocks of node pairs take a quarter of it)
_BLOCK_CELLS = 1 << 16

_STEP_RATIO_TOL = 1e-9   # how far two arcs' step ratio may sit from an integer

_MIN_WINDOW = 8      # vmo_curve's smallest window, in samples
# a window-run pair of vmo_curve's run sums costs about as much as this many
# cells of the dense pass (measured over 1024 to 8192 samples of one to 100
# runs on a 2-core x86-64 machine); a scale takes the run sums only when its
# pairs cost less
_PAIR_COST = 56
_PAIR_BLOCK = 2048   # window-run pairs per block of the run sums
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


def _toeplitz_rows(kernel, row, M: int, N: int):
    """The kernel's M x N Toeplitz matrix times a vector of length N, by FFT."""
    from numpy.fft import irfft, rfft   # not imported with numpy; costs about 1.7 ms

    size = 1 << (M + N - 2).bit_length()   # a power of two >= M + N - 1
    return irfft(rfft(row, size) * rfft(kernel, size), size)[N - 1:N - 1 + M]


def _chordal_sum(a1: float, u1, a2: float, u2, h: float, same: bool) -> float:
    """Sum of (u1_i - u2_j)^2 / |e^{i t1_i} - e^{i t2_j}|^2 over all cells.

    The grids are t1_i = a1 + i h and t2_j = a2 + j h.  With same, they are
    one grid and the diagonal cells, the only colliding midpoints, are dropped.
    """
    M, N = u1.size, u2.size
    kernel = _kernel(a1, M, a2, N, h, same)
    prefix, carry = _prefix_sums(kernel)
    rows = _segment_sums(prefix, carry, slice(0, M), slice(N, N + M))   # K 1
    if not u2.any():
        return float(np.dot(u1 * u1, rows))
    cols = _segment_sums(prefix, carry, slice(0, N), slice(M, M + N))[::-1]   # K^T 1
    shift = 0.5 * (u1.mean() + u2.mean())
    u1 = u1 - shift
    u2 = u2 - shift
    ku2 = _toeplitz_rows(kernel, u2, M, N)
    return float(np.dot(u1 * u1, rows) + np.dot(u2 * u2, cols) - 2.0 * np.dot(u1, ku2))


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


def _richardson(levels, agree_tol: float, strict: bool, integral: str):
    """Extrapolated value, levels, extrapolants and agreement of three dyadic
    levels of the named integral."""
    r12 = 2.0 * levels[1] - levels[0]
    r23 = 2.0 * levels[2] - levels[1]
    agreement = abs(r23 - r12) / max(abs(r23), _AGREE_FLOOR)
    if strict and agreement > agree_tol:
        raise AccuracyError(r12, r23, integral)
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
                                                   agree_tol, strict, "the seminorm")
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


def wp_cross_condition(w: Welding, m: int = 256, agree_tol: float = 0.02,
                       strict: bool = False) -> dict:
    """Cross energy of log |(tau^-1 phi tau)'| between its domain and image arcs.

    The conjugated welding chi = tau^-1 phi tau carries the quarter arc from 1
    to i onto the quarter arc from -i to 1; the integral couples log |chi'| on
    the first arc to 0 on the second through the chordal kernel and is finite
    only when log |chi'| vanishes fast enough at the shared endpoint 1.  Every
    cell is summed, those next to i and -i included.
    """
    if m < 8:
        raise ValidationError("base quadrature level must be at least 8")
    _, log_chi_deriv = _conjugated_welding(w)
    A1 = arc(0.0, 0.5 * math.pi)
    A2 = arc(-0.5 * math.pi, 0.0)

    def q(mm):
        return _level(A1, log_chi_deriv(_midpoints(A1, mm)[0]), A2, np.zeros(mm), False)

    value, levels, extrap, agreement = _richardson((q(m), q(2 * m), q(4 * m)),
                                                   agree_tol, strict, "the wp cross integral")
    return {
        "value": value,
        "levels": levels,
        "extrapolants": extrap,
        "agreement": agreement,
        "converged": agreement <= agree_tol,
        "base_level": m,
    }


def _window_length(scale: float, h: float, samples: int) -> int:
    """Samples per window of length scale on a grid of step h."""
    return int(np.clip(round(scale / h), 2, samples))


def _prefix_sums(vals):
    """Prefix sums of vals from 0, and beside them the running sum of each
    addition's rounding error (Knuth's TwoSum).

    With both, a segment sum (_segment_sums) is exact to its own rounding,
    however large the prefix sums around it have grown.
    """
    prefix = np.zeros(vals.size + 1)
    np.cumsum(vals, out=prefix[1:])
    added = prefix[1:] - prefix[:-1]
    error = prefix[1:] - added
    np.subtract(prefix[:-1], error, out=error)
    error += np.subtract(vals, added, out=added)
    carry = np.zeros_like(prefix)
    np.cumsum(error, out=carry[1:])
    return prefix, carry


def _segment_sums(prefix, carry, lo, hi):
    """Sums of the samples lo .. hi - 1 from their _prefix_sums (indices or slices)."""
    return (prefix[hi] - prefix[lo]) + (carry[hi] - carry[lo])


def _mean_oscillation(vals, scale: float, h: float, periodic: bool) -> float:
    """Largest mean oscillation of the samples vals over windows of length scale.

    The dense pass: each window's deviations from its mean, one cell each.
    """
    wlen = _window_length(scale, h, vals.size)
    if periodic:
        vals = np.concatenate((vals, vals[: wlen - 1]))
    windows = sliding_window_view(vals, wlen)
    means = _segment_sums(*_prefix_sums(vals), slice(None, -wlen), slice(wlen, None)) / wlen
    # the deviations from the window means are taken in row blocks of about
    # _BLOCK_CELLS samples, all in one buffer, so memory is O(samples) at any
    # window length and no block allocates (or page-faults in) its own array
    largest = []
    rows = max(1, _BLOCK_CELLS // wlen)
    buf = np.empty((min(rows, means.size), wlen))
    for lo in range(0, means.size, rows):
        dev = buf[:min(rows, means.size - lo)]
        np.subtract(windows[lo:lo + rows], means[lo:lo + rows, None], out=dev)
        largest.append(np.abs(dev, out=dev).mean(axis=1).max())
    return float(np.max(largest))   # a nan sample stays nan


def _monotone_runs(vals):
    """Starts and directions (True: rising) of the maximal monotone runs of vals.

    Runs are cut greedily from the left.  A run's first step that moves sets
    its direction; the run then takes every flat step and every step that
    moves the same way.  The first step against it is its cut: the next run
    starts at the sample after that step.
    """
    step = np.diff(vals)
    moves = np.flatnonzero(step)
    if moves.size == 0:
        return np.zeros(1, dtype=np.intp), np.ones(1, dtype=bool)
    up = step[moves] > 0
    first = np.flatnonzero(np.concatenate(([True], up[1:] != up[:-1])))   # blocks of like moves
    # A cut is the first move of a block.  The run after it goes on with the
    # block's other moves, and the next block is cut.  After a block of one
    # move, it goes on with the whole next block instead, and the cut is two
    # blocks on.  So in a stretch of one-move blocks the cuts fall on the
    # first block and every other one after it, and any other block is cut
    # unless the block before it is a cut one-move block.
    lone = np.diff(np.append(first, moves.size)) == 1
    lone[0] = False   # the first block opens the first run
    block = np.arange(first.size)
    into_stretch = block - np.maximum.accumulate(np.where(lone, 0, block))
    cut_lone = lone & (into_stretch % 2 == 1)
    cut = np.where(lone, cut_lone, ~np.concatenate(([False], cut_lone[:-1])))
    cut[0] = False
    cuts = np.flatnonzero(cut)
    starts = np.concatenate(([0], moves[first[cuts]] + 1))
    rising = np.concatenate((up[:1], up[first[cuts]] != lone[cuts]))
    return starts, rising


def _pair_count(starts, wlen: int, count: int) -> int:
    """Window-run pairs of the count windows of wlen samples that start at 0, 1, ..."""
    inner = starts[1:]   # a later run start lies in the windows at inner - wlen + 1 .. inner - 1
    met = np.minimum(inner - 1, count - 1) - np.maximum(inner - wlen + 1, 0) + 1
    return count + int(np.maximum(met, 0).sum())


class _RunSums:
    """Centred samples cut into monotone runs, with what a window's run sums need.

    On one run, the samples of a window that lie above the window's mean form
    one stretch at the run's upper end, so the window's sum of |u - mean| is
    a few segment sums per run it meets.  Where that stretch begins is one
    search of keys, which ascend over all n samples: run (n + 1) + rank on a
    rising run and run (n + 1) + n - rank on a falling one, rank being the
    number of samples below.
    """

    def __init__(self, vals, periodic: bool, starts, rising):
        # centred, the prefix sums stay near the samples' spread; periodic
        # samples are read twice over, as a window may wrap past the last
        centred = vals - vals.mean()
        if periodic:
            centred = np.concatenate((centred, centred[:-1]))
        n = centred.size
        self.prefix, self.carry = _prefix_sums(centred)
        lengths = np.diff(np.append(starts, n))
        self.n, self.starts, self.ends = n, starts, np.append(starts[1:], n)
        self.rising, self.sign = rising, np.where(rising, 1.0, -1.0)
        self.sorted = np.sort(centred)
        keys = np.searchsorted(self.sorted, centred)   # the rank
        np.subtract(n, keys, out=keys, where=np.repeat(~rising, lengths))
        keys += np.repeat(np.arange(starts.size) * (n + 1), lengths)
        self.keys = keys

    def mean_oscillation(self, wlen: int, count: int) -> float:
        """Largest mean oscillation of the count windows of wlen samples at 0, 1, ..."""
        # windows in blocks of at most about _PAIR_BLOCK window-run pairs, so
        # memory stays O(samples): a window meets one run, and one more for
        # each run start among its other samples
        inner = self.starts[1:]
        most = 1 + int(np.max(np.searchsorted(inner, inner + wlen - 1) - np.arange(inner.size),
                              initial=0))
        step = max(1, _PAIR_BLOCK // most)
        best = max(self._largest_sum(wlen, np.arange(a, min(a + step, count)))
                   for a in range(0, count, step))
        return max(best, 0.0) / wlen   # rounding may leave a flat window's sum below 0

    def _largest_sum(self, wlen: int, win) -> float:
        """Largest sum of |u - mean| over the windows of wlen samples at win."""
        n, prefix, carry = self.n, self.prefix, self.carry
        mean = _segment_sums(prefix, carry, win, win + wlen) / wlen
        below = np.searchsorted(self.sorted, mean, "right")   # samples at or below the mean
        first_run = np.searchsorted(self.starts, win, "right") - 1
        runs_met = np.searchsorted(self.starts, win + wlen - 1, "right") - first_run
        pair_win = np.repeat(np.arange(win.size), runs_met)
        opens = np.cumsum(runs_met) - runs_met   # each window's first pair
        run = first_run[pair_win] + (np.arange(pair_win.size) - opens[pair_win])
        lo = np.maximum(win[pair_win], self.starts[run])
        hi = np.minimum(win[pair_win] + wlen, self.ends[run])
        below = below[pair_win]
        # the first sample above the mean on a rising run, at or below it on a falling one
        split = np.searchsorted(self.keys, run * (n + 1)
                                + np.where(self.rising[run], below, n + 1 - below))
        np.clip(split, lo, hi, out=split)
        # on a rising run the samples above the mean less those below, less
        # the mean as often; a falling run has them the other way round
        at = prefix[split]
        dev = (((prefix[hi] - at) - (at - prefix[lo]))
               + (carry[hi] - 2.0 * carry[split] + carry[lo])
               - mean[pair_win] * ((hi - split) - (split - lo)))
        dev *= self.sign[run]
        return float(np.add.reduceat(dev, opens).max())


def vmo_curve(u, samples: int = 2048) -> list:
    """[scale, largest mean oscillation] pairs at the dyadic scales span, span / 2, ...

    The windows are arcs of length scale; u is sampled once, at the midpoints
    of samples equal cells, for all scales.  Scales stop before a window would
    hold fewer than _MIN_WINDOW samples.  A scale sums over monotone runs
    (_RunSums) when its window-run pairs cost less than the cells of the
    dense pass (_mean_oscillation), which takes every other scale.
    """
    if samples < _MIN_WINDOW:
        raise ValidationError(f"vmo_curve needs at least {_MIN_WINDOW} samples")
    f, dom = _resolve(u)
    periodic = dom is None
    span, start = (TWO_PI, 0.0) if periodic else (dom.length, dom.start.angle)
    h = span / samples
    vals = f(start + (np.arange(samples) + 0.5) * h)
    scales = []
    scale = span
    while scale / h >= _MIN_WINDOW:
        scales.append(scale)
        scale *= 0.5
    # the longest scales whose window-run pairs cost less than their dense
    # cells: a window meets at least one run, so windows shorter than
    # _PAIR_COST never qualify, nor, once one scale has not, do shorter ones,
    # whose windows meet more runs per sample.  Periodic windows wrap past the
    # last sample: theirs are the runs of the samples read twice over.
    # Non-finite samples stay dense.
    by_runs = []
    if np.isfinite(vals).all():
        starts, rising = _monotone_runs(np.concatenate((vals, vals[:-1])) if periodic else vals)
        for scale in scales:
            wlen = _window_length(scale, h, samples)
            count = samples if periodic else samples - wlen + 1
            if wlen < _PAIR_COST or _PAIR_COST * _pair_count(starts, wlen, count) > wlen * count:
                break
            by_runs.append((wlen, count))
    # the dense scales first: the runs then reuse the memory of their blocks
    osc = [_mean_oscillation(vals, scale, h, periodic) for scale in scales[len(by_runs):]]
    if by_runs:
        runs = _RunSums(vals, periodic, starts, rising)
        osc = [runs.mean_oscillation(wlen, count) for wlen, count in by_runs] + osc
    return [[scale, m] for scale, m in zip(scales, osc)]


def qs_constant(h: ArcHomeomorphism, positions: int = 256) -> float:
    """Quasisymmetry constant over symmetric triples at dyadic separations.

    Compares chordal image lengths of adjacent equal-length arcs; a degenerate
    image chord yields inf.
    """
    if positions < 1:
        raise ValidationError("qs_constant needs at least one position")
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
    best = 0.0
    if n > _DENSE_GAPS:
        for g in _dyadic_gaps(n):
            chord = 2.0 * np.abs(np.sin(0.5 * (s[g:] - s[:-g])))
            best = max(best, float(np.max(chord / np.sqrt(t[g:] - t[:-g]))))
        return best
    # every pair i < j, each computed as by the gap loop above, in blocks of
    # rows i whose pairs j > i take at most a quarter of _BLOCK_CELLS cells:
    # a block holds about four arrays of them at once
    lo = 0
    while lo < n - 1:
        hi = min(n - 1, lo + max(1, _BLOCK_CELLS // 4 // (n - 1 - lo)))
        pair = ~np.tri(hi - lo, n - 1 - lo, -1, dtype=bool)   # row i, column j = lo + 1 + c
        chord = 2.0 * np.abs(np.sin(0.5 * (s[lo + 1:] - s[lo:hi, None])[pair]))
        best = max(best, float(np.max(chord / np.sqrt((t[lo + 1:] - t[lo:hi, None])[pair]))))
        lo = hi
    return best


def _dyadic_gaps(n: int):
    g = 1
    while g < n:
        yield g
        g *= 2
