"""Explicit boundary homeomorphisms and disk maps for the welding pipeline.

Builds, from the boundary normalizer tau of welding.build_tau, the piecewise
circle extension psi of a welding with its six-term energy decomposition,
reflection extensions, the closed-form slit-disk map h, the sector-shear map
q with exact Beltrami data, Poincare-weighted dilatation integrals, and the
composite interior map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .arcfun import ArcHomeomorphism
from .circle import TWO_PI, CirclePoint, MobiusCircleMap, OrientedArc, arc
from .errors import AccuracyError, IntegrationError, ValidationError
from .loewner import DEFAULT_FLOW_PARAMS, DrivingTerm, FlowParams, upward_flow
from .regularity import h_half_seminorm_detail
from .welding import Welding, _conjugated_welding, build_tau

__all__ = [
    "CirclePiece",
    "PiecewiseCircleMap",
    "DiskMapEvaluator",
    "BeltramiField",
    "build_psi",
    "psi_j_decomposition",
    "reflect_half_extension",
    "build_capital_psi",
    "capital_psi_composite_residual",
    "slit_map_h",
    "lemma_q_map",
    "qtilde_beltrami",
    "poincare_l2_integral",
    "welding_construction",
    "compose_f",
]

_HALF_PI = 0.5 * math.pi


def _canon(a):
    """Vectorized reduction to (-pi, pi]."""
    return -(np.mod(-np.asarray(a, dtype=float) + math.pi, TWO_PI) - math.pi)


def _circle_dist(a: float, b: float) -> float:
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return abs(d)


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
    """

    def __init__(self, pieces: list[CirclePiece], junction_tol: float = 1e-9,
                 monotone_samples: int = 360):
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
            if _circle_dist(v1, v2) > junction_tol:
                raise ValidationError(
                    f"pieces disagree at junction angle {end:.6f}: {v1:.12f} vs {v2:.12f}")
        self.pieces = list(pieces)
        self._starts = np.array([p.arc.start.angle for p in pieces])
        self._lengths = np.array([p.arc.length for p in pieces])
        if monotone_samples:
            th = np.linspace(0.0, TWO_PI, monotone_samples, endpoint=False)
            lifted = np.unwrap(self.apply_angle(th))
            if np.any(np.diff(lifted) <= 0.0):
                raise ValidationError("assembled map is not sense-preserving")

    def _piece_masks(self, theta: np.ndarray):
        rel = np.mod(theta[None, :] - self._starts[:, None], TWO_PI)
        # closed at both ends so junction angles always land in some piece;
        # values there agree to junction_tol, so the choice is immaterial
        inside = rel <= self._lengths[:, None] + 1e-12
        return np.argmax(inside, axis=0)

    def apply_angle(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        owner = self._piece_masks(theta)
        out = np.empty_like(theta)
        for i, p in enumerate(self.pieces):
            sel = owner == i
            if np.any(sel):
                out[sel] = p.angle_map(theta[sel])
        return out if out.size > 1 else float(out[0])

    def __call__(self, p: CirclePoint) -> CirclePoint:
        return CirclePoint(self.apply_angle(p.angle))

    def log_deriv_angle(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        owner = self._piece_masks(theta)
        out = np.empty_like(theta)
        for i, p in enumerate(self.pieces):
            sel = owner == i
            if np.any(sel):
                out[sel] = p.log_deriv(theta[sel])
        return out if out.size > 1 else float(out[0])

    def sample(self, n: int):
        th = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return th, self.apply_angle(th)


@dataclass
class DiskMapEvaluator:
    """Conformal or quasiconformal map evaluator with optional inverse."""

    domain: str
    codomain: str
    fn: Callable
    inverse: Callable | None = None
    boundary: Callable | None = None
    params: dict = field(default_factory=dict)

    def __call__(self, z):
        return self.fn(z)


@dataclass
class BeltramiField:
    """Complex dilatation rule with its domain and uniform bound."""

    domain: str
    mu: Callable
    k_bound: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.k_bound < 1.0:
            raise ValidationError("dilatation bound must satisfy 0 <= k < 1")

    def __call__(self, z):
        return self.mu(z)


def build_psi(w: Welding, tau: MobiusCircleMap | None = None) -> PiecewiseCircleMap:
    """Sense-preserving extension of the conjugated welding to the full circle.

    Identity on the upper half arc; the conjugated welding (against complex
    conjugation) on the quarter arc before 1; its reflection through z -> -z
    on the quarter arc after -1.
    """
    if tau is None:
        tau = build_tau(w.alpha_minus, w.alpha_plus)
    else:
        for src, dst in ((_HALF_PI, w.alpha_plus.angle), (-_HALF_PI, w.alpha_minus.angle),
                         (0.0, 0.0)):
            if _circle_dist(tau.apply_angle(src), dst) > 1e-6:
                raise ValidationError("tau does not match the welding endpoints")
    chi, chi_ld = _conjugated_welding(w, tau)

    def zero(th):
        return np.zeros_like(np.asarray(th, dtype=float))

    pieces = [
        CirclePiece(arc(0.0, math.pi), lambda th: _canon(th), zero, "identity"),
        CirclePiece(arc(math.pi, -_HALF_PI),
                    lambda th: _canon(math.pi - chi(np.asarray(th) - math.pi)),
                    lambda th: chi_ld(np.asarray(th, dtype=float) - math.pi),
                    "reflected conjugated welding"),
        CirclePiece(arc(-_HALF_PI, 0.0),
                    lambda th: _canon(chi(-np.asarray(th, dtype=float))),
                    lambda th: chi_ld(-np.asarray(th, dtype=float)),
                    "conjugated welding"),
    ]
    return PiecewiseCircleMap(pieces)


def psi_j_decomposition(psi: PiecewiseCircleMap, m: int = 256,
                        agree_tol: float = 0.02) -> dict:
    """Raw chordal energies of log |psi'| over the three arcs and cross pairs.

    Weighted as J1 + J2 + J3 + 2 (J4 + J5 + J6), the terms tile the full
    circle-squared energy.
    """
    A = arc(0.0, math.pi)
    B = arc(-_HALF_PI, 0.0)
    C = arc(math.pi, -_HALF_PI)
    u = psi.log_deriv_angle

    def energy(I, J):
        return h_half_seminorm_detail(u, I, J, normalization="raw", m=m,
                                      agree_tol=agree_tol, strict=True)["value"]

    out = {
        "J1": energy(A, A),
        "J2": energy(B, B),
        "J3": energy(C, C),
        "J4": energy(C, B),
        "J5": energy(B, A),
        "J6": energy(C, A),
    }
    out["weighted_sum"] = (out["J1"] + out["J2"] + out["J3"]
                           + 2.0 * (out["J4"] + out["J5"] + out["J6"]))
    return out


def reflect_half_extension(psi_half: ArcHomeomorphism) -> PiecewiseCircleMap:
    """Extend a self-map of the right half circle by z -> -conj(psi(-conj(z))).

    psi_half must carry the arc from -i through 1 to i onto itself with both
    endpoints fixed; the extension satisfies |ext'(z)| = |psi'(-conj(z))| on
    the reflected side.
    """
    right = arc(-_HALF_PI, _HALF_PI)
    for a in (psi_half.domain, psi_half.codomain):
        if (_circle_dist(a.start.angle, right.start.angle) > 1e-12
                or abs(a.length - right.length) > 1e-12):
            raise ValidationError("psi_half must be a self-map of the right half circle")
    if (_circle_dist(psi_half.angle_map(-_HALF_PI), -_HALF_PI) > 1e-9
            or _circle_dist(psi_half.angle_map(_HALF_PI), _HALF_PI) > 1e-9):
        raise ValidationError("psi_half must fix the endpoints -i and i")

    def direct(th):
        return _canon(psi_half.angle_map(np.asarray(th, dtype=float)))

    def direct_ld(th):
        rel = np.mod(np.asarray(th, dtype=float) - right.start.angle, TWO_PI)
        return psi_half.log_deriv_offset(rel)

    def mirrored(th):
        return _canon(math.pi - direct(_canon(math.pi - np.asarray(th, dtype=float))))

    def mirrored_ld(th):
        return direct_ld(_canon(math.pi - np.asarray(th, dtype=float)))

    return PiecewiseCircleMap([
        CirclePiece(right, direct, direct_ld, "half map"),
        CirclePiece(arc(_HALF_PI, -_HALF_PI), mirrored, mirrored_ld, "reflection"),
    ])


def build_capital_psi(inner: ArcHomeomorphism) -> PiecewiseCircleMap:
    """Fourfold reflection of a self-map of the quarter arc from 1 to i.

    Quadrant rules: inner itself; conj o inner o conj below the axis; the
    z -> -conj(z) reflection on the second quadrant; z -> -inner(-z) on the
    third.
    """
    quarter = arc(0.0, _HALF_PI)
    for a in (inner.domain, inner.codomain):
        if (_circle_dist(a.start.angle, 0.0) > 1e-12
                or abs(a.length - quarter.length) > 1e-12):
            raise ValidationError("inner must be a self-map of the arc from 1 to i")
    if (_circle_dist(inner.angle_map(0.0), 0.0) > 1e-9
            or _circle_dist(inner.angle_map(_HALF_PI), _HALF_PI) > 1e-9):
        raise ValidationError("inner must fix the endpoints 1 and i")

    def ia(th):
        return _canon(inner.angle_map(np.asarray(th, dtype=float)))

    def ild(th):
        return inner.log_deriv_offset(np.mod(np.asarray(th, dtype=float), TWO_PI))

    return PiecewiseCircleMap([
        CirclePiece(quarter, ia, ild, "inner"),
        CirclePiece(arc(_HALF_PI, math.pi),
                    lambda th: _canon(math.pi - ia(math.pi - np.asarray(th, dtype=float))),
                    lambda th: ild(math.pi - np.asarray(th, dtype=float)),
                    "second quadrant reflection"),
        CirclePiece(arc(math.pi, -_HALF_PI),
                    lambda th: _canon(math.pi + ia(np.asarray(th, dtype=float) - math.pi)),
                    lambda th: ild(np.asarray(th, dtype=float) - math.pi),
                    "antipodal copy"),
        CirclePiece(arc(-_HALF_PI, 0.0),
                    lambda th: _canon(-ia(-np.asarray(th, dtype=float))),
                    lambda th: ild(-np.asarray(th, dtype=float)),
                    "conjugated copy"),
    ])


def capital_psi_composite_residual(big_psi: PiecewiseCircleMap,
                                   inner: ArcHomeomorphism, n: int = 400) -> float:
    """Residual of undoing the conjugated-copy branch on the arc from -i to 1.

    Composing with the inverse of conj o inner o conj must restore the
    identity there; the maximum circle distance over n interior samples is
    returned.
    """
    inv = inner.inverse()
    th = np.linspace(-_HALF_PI, 0.0, n + 2)[1:-1]
    img = np.atleast_1d(big_psi.apply_angle(th))
    undone = -_canon(inv.angle_map(-img))
    d = np.abs(_canon(undone - th))
    return float(d.max())


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

    def boundary(x):
        """Both circle preimages of a point on the closed slit."""
        x = float(x)
        if not t_slit <= x <= 1.0:
            raise ValidationError("slit positions lie in [t_slit, 1]")
        v = (1.0 - x) / (1.0 + x)
        s = max(0.0, 1.0 - (v / c) ** 2)
        th = 2.0 * math.atan(math.sqrt(s))
        return CirclePoint(th), CirclePoint(-th)

    ev = DiskMapEvaluator("unit_disk", "slit_disk", forward, inverse, boundary,
                          {"beta": beta, "c": c, "t_slit": t_slit})
    return ev, t_slit, c


def qtilde_beltrami(p: complex, z: complex) -> complex:
    """Dilatation of the two-sector angular shear of the upper half-plane.

    The shear sends arg p to pi/2 linearly within each sector, so mu has
    constant modulus |1 - a| / (1 + a) per sector with a the angular rate.
    """
    ap = cmath.phase(complex(p))
    az = cmath.phase(complex(z))
    if not 0.0 < ap < math.pi:
        raise ValidationError("p must lie in the open upper half-plane")
    if not 0.0 < az < math.pi:
        raise ValidationError("z must lie in the open upper half-plane")
    a = _HALF_PI / ap if az <= ap else _HALF_PI / (math.pi - ap)
    return cmath.exp(2j * az) * (1.0 - a) / (1.0 + a)


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

    p = T(z0)
    ap = cmath.phase(p)
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

    def q(z):
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) < r
        out = z.copy() if z.ndim else np.array(z, dtype=complex)
        if np.any(inside):
            zi = z[inside] if z.ndim else z
            moved = T_inv(shear(T(zi)))
            if z.ndim:
                out[inside] = moved
            else:
                out = moved
        return out if out.ndim else complex(out)

    def q_inv(z):
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) < r
        out = z.copy() if z.ndim else np.array(z, dtype=complex)
        if np.any(inside):
            zi = z[inside] if z.ndim else z
            moved = T_inv(shear_inv(T(zi)))
            if z.ndim:
                out[inside] = moved
            else:
                out = moved
        return out if out.ndim else complex(out)

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
    params = {"z0": z0, "r": r, "p": p, "arg_p": ap, "rate_low": a1, "rate_high": a2}
    ev = DiskMapEvaluator("unit_disk", "unit_disk", q, q_inv, None, dict(params))
    return ev, BeltramiField("unit_disk", mu, k, dict(params))


def poincare_l2_integral(mu: BeltramiField, domain: str | None = None,
                         conf: DiskMapEvaluator | None = None,
                         n_r: int = 128, agree_tol: float = 0.02,
                         strict: bool = True) -> float:
    """Squared Poincare-weighted L2 mass of a dilatation field.

    Integrates |mu|^2 / (1 - |z|^2)^2 over the unit disk on a polar midpoint
    grid; with conf given, mu is evaluated at conf(z), which computes the
    integral over conf's image domain by conformal invariance.  Two dyadic
    levels must agree within agree_tol.
    """
    if domain is not None and conf is None and domain != mu.domain:
        raise ValidationError("domain descriptor does not match the field")
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
    if strict and agreement > agree_tol:
        raise AccuracyError(q1, q2)
    return value


class _HarmonicExtension:
    """Interior extension of a circle homeomorphism by its Poisson integral."""

    def __init__(self, psi: PiecewiseCircleMap, samples: int = 2048):
        th = np.arange(samples) * TWO_PI / samples
        vals = np.exp(1j * np.asarray(psi.apply_angle(th)))
        coef = np.fft.fft(vals) / samples
        half = samples // 2
        self._pos = coef[: half + 1]     # z^k terms, k ascending 0 .. half
        self._neg = coef[half + 1:]      # conj(z)^k terms, k descending half-1 .. 1

    def _parts(self, z: complex):
        a = 0j
        for cft in self._pos[::-1]:
            a = a * z + cft
        zb = z.conjugate()
        b = 0j
        for cft in self._neg:
            b = b * zb + cft
        b *= zb
        return a, b

    def __call__(self, z: complex) -> complex:
        a, b = self._parts(z)
        return a + b

    def _derivs(self, z: complex):
        # dA/dz and dB/dzbar by Horner on the shifted coefficient arrays
        da = 0j
        for k in range(len(self._pos) - 1, 0, -1):
            da = da * z + k * self._pos[k]
        zb = z.conjugate()
        db = 0j
        n_neg = len(self._neg)
        for i, cft in enumerate(self._neg):
            k = n_neg - i
            db = db * zb + k * cft
        return da, db

    def inverse(self, w: complex, z0: complex | None = None,
                tol: float = 1e-12, max_iter: int = 60) -> complex:
        z = complex(w) if z0 is None else complex(z0)
        if abs(z) > 0.999999:
            z = 0.999999 * z / abs(z)
        for _ in range(max_iter):
            rho = complex(w) - self(z)
            if abs(rho) < tol:
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
    disk slit at t_slit = (1-c)/(1+c).  compose_f appends the horizon flow.
    """
    tau = build_tau(w.alpha_minus, w.alpha_plus)
    psi = build_psi(w, tau)
    ext = _HarmonicExtension(psi)
    u0 = ext.inverse(tau.pole)
    r_q = 0.5 * (1.0 + abs(u0))
    q_ev, mu_q = lemma_q_map(u0, r_q)
    beta = complex(q_ev(u0)).real
    h_ev, t_slit, c = slit_map_h(beta)
    return {"tau": tau, "psi": psi, "ext": ext, "u0": complex(u0), "r_q": r_q,
            "q": q_ev, "mu_q": mu_q, "beta": beta, "h": h_ev,
            "t_slit": t_slit, "c": c}


def compose_f(d: DrivingTerm, w: Welding, beta_policy: str | float = "auto",
              params: FlowParams = DEFAULT_FLOW_PARAMS) -> DiskMapEvaluator:
    """Map of the reference slit disk onto the complement of the grown slit.

    Chains the inverse slit parametrization, the inverse shear q, the interior
    extension of psi, the endpoint normalizer tau, and the horizon flow.  With
    the auto policy the slit parameter beta is the real image of the preimage
    of tau's zero, which pins f(0) = 0.
    """
    built = welding_construction(w)
    tau, ext, q_ev = built["tau"], built["ext"], built["q"]
    if beta_policy == "auto":
        beta = built["beta"]
        h_ev, t_slit, c = built["h"], built["t_slit"], built["c"]
    elif isinstance(beta_policy, (int, float)):
        beta = float(beta_policy)
        h_ev, t_slit, c = slit_map_h(beta)
    else:
        raise ValidationError("beta_policy must be 'auto' or a real number")

    def f(x):
        z = h_ev.inverse(complex(x))
        z = q_ev.inverse(complex(z))
        z = ext(complex(z))
        z = tau(z)
        return upward_flow(d, z, d.T, params)

    pars = {
        "beta": beta, "t_slit": t_slit, "c": c,
        "r_q": built["r_q"], "u0": built["u0"], "T": d.T,
        "alpha_plus": w.alpha_plus.angle, "alpha_minus": w.alpha_minus.angle,
    }
    return DiskMapEvaluator("slit_disk", "slit_complement", f, None, None, pars)
