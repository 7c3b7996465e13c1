"""Explicit boundary homeomorphisms and disk maps for the welding pipeline.

welding_construction builds, once per welding, the chain that describes the
slit through its welding: the boundary normalizer tau of welding.build_tau,
the piecewise circle extension psi, its harmonic interior extension, the
sector-shear map q with exact Beltrami data and the closed-form slit-disk map
h.  The module also holds the six-term energy decomposition of psi, the
reflection extension and Poincare-weighted dilatation integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arcfun import ArcHomeomorphism
from .circle import TWO_PI, OrientedArc, arc, canonical_angle
from .errors import AccuracyError, IntegrationError, ValidationError
from .regularity import _level, _midpoints, _richardson
from .welding import Welding, _conjugated_welding, build_tau

__all__ = [
    "CirclePiece",
    "PiecewiseCircleMap",
    "DiskMapEvaluator",
    "BeltramiField",
    "build_psi",
    "psi_j_decomposition",
    "reflect_half_extension",
    "slit_map_h",
    "lemma_q_map",
    "poincare_l2_integral",
    "welding_construction",
]

_HALF_PI = 0.5 * math.pi

_POINCARE_AGREE_TOL = 0.02  # relative agreement of poincare_l2_integral's two levels


def _circle_dist(a, b):
    return abs(canonical_angle(a - b))


@dataclass
class CirclePiece:
    """One arc of a piecewise circle map with its angle rule and log |rule'|."""

    arc: OrientedArc
    angle_map: Callable
    log_deriv: Callable
    label: str = ""


class PiecewiseCircleMap:
    """Sense-preserving circle homeomorphism assembled from arc pieces.

    Pieces must chain head to tail around the circle; values are checked to
    agree at every junction and the assembled map to be globally monotone.
    A piece's angle rule receives a float array and may return any lift of
    its images: apply_angle reduces the assembled output once, with
    canonical_angle.
    """

    def __init__(self, pieces: list[CirclePiece]):
        if not pieces:
            raise ValidationError("need at least one piece")
        total = sum(p.arc.length for p in pieces)
        if abs(total - TWO_PI) > 1e-9:
            raise ValidationError("pieces must cover the full circle")
        for p, p_next in zip(pieces, pieces[1:] + pieces[:1]):
            gap = _circle_dist(p.arc.end.angle, p_next.arc.start.angle)
            if gap > 1e-12:
                raise ValidationError("pieces must chain without gaps")
            end = p.arc.end.angle
            v1 = float(np.asarray(p.angle_map(np.array([end]))).ravel()[0])
            v2 = float(np.asarray(p_next.angle_map(np.array([end]))).ravel()[0])
            if _circle_dist(v1, v2) > 1e-9:
                raise ValidationError(
                    f"pieces disagree at junction angle {end:.6f}: {v1:.12f} vs {v2:.12f}")
        self.pieces = list(pieces)
        self._start = pieces[0].arc.start.angle
        self._ends = np.cumsum([p.arc.length for p in pieces])
        th = np.linspace(0.0, TWO_PI, 360, endpoint=False)
        lifted = np.unwrap(self.apply_angle(th))
        if np.any(np.diff(lifted) <= 0.0):
            raise ValidationError("assembled map is not sense-preserving")

    def _owner(self, theta: np.ndarray):
        """Index of the first piece that holds each angle."""
        # closed at both ends so junction angles always land in some piece;
        # values there agree to 1e-9, so the choice is immaterial.  An angle
        # past the last end, within the cover tolerance, goes to piece 0
        rel = np.mod(theta - self._start, TWO_PI)
        return np.searchsorted(self._ends + 1e-12, rel) % len(self.pieces)

    def _by_piece(self, theta, rules):
        """Each angle through the rule of the piece that owns it; a float for a scalar."""
        scalar = np.ndim(theta) == 0
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        owner = self._owner(theta)
        out = np.empty_like(theta)
        for i, rule in enumerate(rules):
            sel = owner == i
            if np.any(sel):
                out[sel] = rule(theta[sel])
        return float(out[0]) if scalar else out

    def apply_angle(self, theta):
        return canonical_angle(self._by_piece(theta, [p.angle_map for p in self.pieces]))

    def log_deriv_angle(self, theta):
        return self._by_piece(theta, [p.log_deriv for p in self.pieces])


@dataclass
class DiskMapEvaluator:
    """Conformal or quasiconformal map evaluator with optional inverse."""

    domain: str
    codomain: str
    fn: Callable
    inverse: Callable | None = None

    def __call__(self, z):
        return self.fn(z)


@dataclass
class BeltramiField:
    """Complex dilatation rule with its domain and uniform bound."""

    domain: str
    mu: Callable
    k_bound: float

    def __post_init__(self):
        if not 0.0 <= self.k_bound < 1.0:
            raise ValidationError("dilatation bound must satisfy 0 <= k < 1")

    def __call__(self, z):
        return self.mu(z)


def build_psi(w: Welding) -> PiecewiseCircleMap:
    """Sense-preserving extension of the conjugated welding to the full circle.

    The welding is conjugated by the endpoint normalizer tau of build_tau.
    Identity on the upper half arc; the conjugated welding (against complex
    conjugation) on the quarter arc before 1; its reflection through z -> -z
    on the quarter arc after -1.
    """
    chi, chi_ld = _conjugated_welding(w)

    pieces = [
        CirclePiece(arc(0.0, math.pi), lambda th: th, np.zeros_like, "identity"),
        CirclePiece(arc(math.pi, -_HALF_PI),
                    lambda th: math.pi - chi(th - math.pi),
                    lambda th: chi_ld(th - math.pi),
                    "reflected conjugated welding"),
        CirclePiece(arc(-_HALF_PI, 0.0),
                    lambda th: chi(-th),
                    lambda th: chi_ld(-th),
                    "conjugated welding"),
    ]
    return PiecewiseCircleMap(pieces)


def psi_j_decomposition(w: Welding, m: int = 256, agree_tol: float = 0.02) -> dict:
    """Raw chordal energies of log |psi'| over the arcs of build_psi(w) and their pairs.

    The arcs are A, the upper half (psi is the identity there), B from -i to 1
    and C from -1 to -i.  psi commutes with the mirror theta -> pi - theta,
    which maps A onto itself and swaps B and C, so J1 (A x A) is 0, J3 (C x C)
    is J2 (B x B) and J6 (C x A) is J5 (B x A); only J2, J4 (C x B) and J5 are
    summed.  Weighted as J1 + J2 + J3 + 2 (J4 + J5 + J6), the terms tile the
    full circle-squared energy.
    """
    if m < 8:
        raise ValidationError("base quadrature level must be at least 8")
    _, chi_ld = _conjugated_welding(w)
    A, B, C = arc(0.0, math.pi), arc(-_HALF_PI, 0.0), arc(math.pi, -_HALF_PI)
    quarter = arc(0.0, _HALF_PI)
    levels = {"J2": [], "J4": [], "J5": []}
    for mm in (m, 2 * m, 4 * m):
        # log |psi'| at C's midpoints is log |chi'| at those of the quarter arc
        # from 1 to i, in order; at B's it is the same samples reversed
        u_c = chi_ld(_midpoints(quarter, mm)[0])
        u_b = u_c[::-1]
        levels["J2"].append(_level(B, u_b, B, u_b, True))
        levels["J4"].append(_level(C, u_c, B, u_b, False))
        levels["J5"].append(_level(B, u_b, A, np.zeros(mm), False))
    # checked in the order J2, J4, J5: the first pair whose levels disagree raises
    j2, j4, j5 = (_richardson(tuple(lv), agree_tol, True, f"psi's {name}")[0]
                  for name, lv in levels.items())
    return {"J1": 0.0, "J2": j2, "J3": j2, "J4": j4, "J5": j5, "J6": j5,
            "weighted_sum": 2.0 * (j2 + j4) + 4.0 * j5}


def _check_self_map(h: ArcHomeomorphism, a: OrientedArc, name: str, arc_name: str,
                    ends: str):
    """Reject h unless it carries the arc a onto itself and fixes both its endpoints."""
    for b in (h.domain, h.codomain):
        if (_circle_dist(b.start.angle, a.start.angle) > 1e-12
                or abs(b.length - a.length) > 1e-12):
            raise ValidationError(f"{name} must be a self-map of {arc_name}")
    for end in (a.start.angle, a.end.angle):
        if _circle_dist(h.angle_map(end), end) > 1e-9:
            raise ValidationError(f"{name} must fix the endpoints {ends}")


def reflect_half_extension(psi_half: ArcHomeomorphism) -> PiecewiseCircleMap:
    """Extend a self-map of the right half circle by z -> -conj(psi(-conj(z))).

    psi_half must carry the arc from -i through 1 to i onto itself with both
    endpoints fixed; the extension satisfies |ext'(z)| = |psi'(-conj(z))| on
    the reflected side.
    """
    right = arc(-_HALF_PI, _HALF_PI)
    _check_self_map(psi_half, right, "psi_half", "the right half circle", "-i and i")

    def direct_ld(th):
        return psi_half.log_deriv_offset(np.mod(th - right.start.angle, TWO_PI))

    return PiecewiseCircleMap([
        CirclePiece(right, psi_half.angle_map, direct_ld, "half map"),
        CirclePiece(arc(_HALF_PI, -_HALF_PI),
                    lambda th: math.pi - psi_half.angle_map(math.pi - th),
                    lambda th: direct_ld(math.pi - th), "reflection"),
    ])


def _cayley(z):
    return (1.0 - z) / (1.0 + z)


def slit_map_h(beta: float):
    """Conformal map of the disk onto the disk slit along [t_slit, 1).

    Returns (evaluator, t_slit, c).  Normalizations: h(beta) = 0,
    h(i) = h(-i) = 1, h(1) = t_slit; the arcs from 1 to i and from -i to 1
    both cover the slit.
    """
    beta = float(beta)
    if not -1.0 < beta < 1.0:
        raise ValidationError("beta must lie in (-1, 1)")
    w0 = (1.0 - beta) / (1.0 + beta)
    c = 1.0 / math.sqrt(w0 * w0 + 1.0)
    t_slit = (1.0 - c) / (1.0 + c)

    def forward(z):
        z = np.asarray(z, dtype=complex)
        out = _cayley(c * np.sqrt(_cayley(z) ** 2 + 1.0))
        return out if out.ndim else complex(out)

    def inverse(x):
        x = np.asarray(x, dtype=complex)
        out = _cayley(np.sqrt((_cayley(x) / c) ** 2 - 1.0))
        return out if out.ndim else complex(out)

    ev = DiskMapEvaluator("unit_disk", "slit_disk", forward, inverse)
    return ev, t_slit, c


def lemma_q_map(z0: complex, r: float):
    """Quasiconformal self-map of the disk moving z0 to the real axis.

    Identity outside |z| = r exactly; inside, conjugate an angular shear of
    the upper half-plane by the Cayley-type map T of the subdisk.  Returns
    (evaluator, Beltrami field); q(z0) is real with |q(z0)| < r.
    """
    z0 = complex(z0)
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValidationError("r must lie in (0, 1)")
    if abs(z0) >= r:
        raise ValidationError("z0 must lie strictly inside the subdisk of radius r")

    def T(z):
        return 1j * (r + z) / (r - z)

    def T_inv(w):
        return r * (w - 1j) / (w + 1j)

    ap = cmath.phase(T(z0))
    a1 = _HALF_PI / ap
    a2 = _HALF_PI / (math.pi - ap)

    def shear(w):
        w = np.asarray(w, dtype=complex)
        th = np.angle(w)
        out_th = np.where(th <= ap, a1 * th, math.pi - a2 * (math.pi - th))
        return np.abs(w) * np.exp(1j * out_th)

    def shear_inv(v):
        v = np.asarray(v, dtype=complex)
        ph = np.angle(v)
        out_th = np.where(ph <= _HALF_PI, ph / a1, math.pi - (math.pi - ph) / a2)
        return np.abs(v) * np.exp(1j * out_th)

    def inside_only(move):
        """z -> T^-1(move(T(z))) on |z| < r, the identity elsewhere."""
        def apply(z):
            z = np.asarray(z, dtype=complex)
            out = np.atleast_1d(z).copy()
            inside = np.abs(out) < r
            if np.any(inside):
                out[inside] = T_inv(move(T(out[inside])))
            return out if z.ndim else complex(out[0])

        return apply

    q, q_inv = inside_only(shear), inside_only(shear_inv)

    def mu(z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.zeros(z.shape, dtype=complex)
        inside = np.abs(z) < r
        if np.any(inside):
            zi = z[inside]
            w = T(zi)
            th = np.angle(w)
            rate = np.where(th <= ap, a1, a2)
            sector_mu = np.exp(2j * th) * (1.0 - rate) / (1.0 + rate)
            tp = 2j * r / (r - zi) ** 2
            out[inside] = sector_mu * np.conj(tp) / tp
        return complex(out[0]) if scalar else out

    k = max(abs(1.0 - a1) / (1.0 + a1), abs(1.0 - a2) / (1.0 + a2))
    return DiskMapEvaluator("unit_disk", "unit_disk", q, q_inv), BeltramiField("unit_disk", mu, k)


def poincare_l2_integral(mu: BeltramiField, conf: DiskMapEvaluator | None = None,
                         n_r: int = 128, strict: bool = True) -> float:
    """Squared Poincare-weighted L2 mass of a dilatation field.

    Integrates |mu|^2 / (1 - |z|^2)^2 over the unit disk on a polar midpoint
    grid; with conf given, mu is evaluated at conf(z), which computes the
    integral over conf's image domain by conformal invariance.  Two dyadic
    levels must agree within _POINCARE_AGREE_TOL unless strict is off.
    """
    if conf is not None and conf.domain != "unit_disk":
        raise ValidationError("conf must parametrize from the unit disk")
    if n_r < 8:
        raise ValidationError("radial resolution must be at least 8")

    def level(nr):
        nt = 4 * nr
        rr = (np.arange(nr) + 0.5) / nr
        tt = (np.arange(nt) + 0.5) * TWO_PI / nt
        zz = rr[:, None] * np.exp(1j * tt[None, :])
        pts = conf.fn(zz) if conf is not None else zz
        m = np.abs(mu.mu(pts)) ** 2
        dens = (rr / (1.0 - rr * rr) ** 2)[:, None]
        return float(np.sum(m * dens) * (1.0 / nr) * (TWO_PI / nt))

    q1 = level(n_r)
    q2 = level(2 * n_r)
    value = 2.0 * q2 - q1
    agreement = abs(q2 - q1) / max(abs(value), 1e-12)
    if strict and agreement > _POINCARE_AGREE_TOL:
        raise AccuracyError(q1, q2, "the Poincare L2 mass")
    return value


def _powers(z: complex, n: int):
    """1, z, ..., z^(n - 1) as running products."""
    p = np.full(n, z, dtype=complex)
    p[0] = 1.0
    return np.cumprod(p, out=p)


class _HarmonicExtension:
    """Interior extension of a circle homeomorphism by its Poisson integral."""

    def __init__(self, psi: PiecewiseCircleMap):
        samples = 2048
        th = np.arange(samples) * TWO_PI / samples
        vals = np.exp(1j * psi.apply_angle(th))
        coef = np.fft.fft(vals) / samples
        half = samples // 2
        self._pos = coef[: half + 1]     # z^k terms, k = 0 .. half
        self._neg = coef[:half:-1]       # conj(z)^k terms, k = 1 .. half - 1
        # the same series differentiated: dA/dz and dB/dzbar, power k - 1 at index k - 1
        self._dpos = np.arange(1, half + 1) * self._pos[1:]
        self._dneg = np.arange(1, half) * self._neg

    def __call__(self, z: complex) -> complex:
        zb = z.conjugate()
        return complex(_powers(z, self._pos.size) @ self._pos
                       + _powers(zb, self._neg.size) @ self._neg * zb)

    def _derivs(self, z: complex):
        return (complex(_powers(z, self._dpos.size) @ self._dpos),
                complex(_powers(z.conjugate(), self._dneg.size) @ self._dneg))

    def inverse(self, w: complex) -> complex:
        """Newton's method from w itself, kept inside the disk."""
        z = complex(w)
        if abs(z) > 0.999999:
            z = 0.999999 * z / abs(z)
        for _ in range(60):
            rho = complex(w) - self(z)
            if abs(rho) < 1e-12:
                return z
            da, db = self._derivs(z)
            den = abs(da) ** 2 - abs(db) ** 2
            if den <= 0.0:
                break
            z = z + (da.conjugate() * rho - db * rho.conjugate()) / den
            if abs(z) >= 1.0:
                z = 0.999999 * z / abs(z)
        raise IntegrationError("interior extension inverse did not converge")


def welding_construction(w: Welding) -> dict:
    """All the explicit maps a welding pins down, chained consistently.

    tau normalizes the welded endpoints to +-i, psi extends the conjugated
    welding to the circle, ext is its interior extension, the shear q moves
    u0 = ext^-1(tau's zero preimage) to the real point beta, and h opens the
    disk slit at t_slit = (1-c)/(1+c).
    """
    tau = build_tau(w.alpha_minus, w.alpha_plus)
    psi = build_psi(w)
    ext = _HarmonicExtension(psi)
    u0 = ext.inverse(tau.pole)
    r_q = 0.5 * (1.0 + abs(u0))
    q_ev, mu_q = lemma_q_map(u0, r_q)
    beta = complex(q_ev(u0)).real
    h_ev, t_slit, c = slit_map_h(beta)
    return {"tau": tau, "psi": psi, "ext": ext, "u0": complex(u0), "r_q": r_q,
            "q": q_ev, "mu_q": mu_q, "beta": beta, "h": h_ev,
            "t_slit": t_slit, "c": c}

