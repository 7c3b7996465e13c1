"""Command-line front end.

Subcommands: trace, weld, analyze, construct, selftest, plot.  All data files
are deterministic: identical inputs and options produce byte-identical output.
Exit codes: 0 success, 2 validation, 3 integration failure, 4 quadrature
accuracy, 5 extraction failure, 6 operating-system or memory failure
(selftest failures exit 1).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .circle import arc, canonical_angle
from .constructions import psi_j_decomposition, welding_construction
from .errors import (AccuracyError, ExtractionError, IntegrationError, SlitWeldError,
                     ValidationError)
from .loewner import DrivingTerm, _tip_pieces, boundary_flow, trace_curve, upward_flow
from .regularity import (h_half_seminorm, h_half_seminorm_detail, loewner_energy,
                         lip_half_norm, mr_constant, qs_constant, vmo_curve,
                         wp_cross_condition)
from .serialize import (json_dumps, load_csv_columns, load_driver, load_welding_csv,
                        remove_if_exists, save_trace_csv, save_welding_csv, write_text)
from .svgplot import LineSeries, save_svg
from .welding import (Welding, extract_welding, pair_residuals, welding_as_homeomorphism,
                      welding_log_derivative)

__all__ = ["RunConfig", "main", "run_command"]

_COUNT_MINIMUMS = {
    "welding_samples": 8,
    "trace_count": 1,
    "quad_level": 16,
    "boundary_samples": 16,
    "profile_samples": 8,         # extract_welding's floor
    "window_samples": 64,
    "qs_positions": 16,
}

# Caps keep one stage within about 256 MiB of working memory and about a
# minute on a 2-core x86-64 machine; the costs behind them, measured there:
_COUNT_MAXIMUMS = {
    "welding_samples": 32768,     # one angle sweep, 0.1-0.25 us per sample and cell; _SWEEP_WORK
    "trace_count": 4096,          # one tip sweep; _SWEEP_WORK
    "quad_level": 65536,          # FFT chordal sums: construct 1.3 s and 105 MiB at the cap
    "boundary_samples": 65536,    # 360 bytes of JSON and 0.03 ms per sample
    "profile_samples": 32768,     # as welding_samples
    "window_samples": 8192,       # mean oscillation over monotone runs: 0.8 MiB, 0.02-0.07 s
    "qs_positions": 1 << 20,      # about 140 bytes and 2 us per position
}


@dataclass
class RunConfig:
    """Validated plumbing for one subcommand run."""

    command: str
    inputs: tuple = ()
    outputs: tuple = ()
    counts: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, n in self.counts.items():
            lo = _COUNT_MINIMUMS.get(name, 1)
            if int(n) < lo:
                raise ValidationError(f"{name} must be at least {lo}, got {n}")
            hi = _COUNT_MAXIMUMS.get(name)
            if hi is not None and int(n) > hi:
                raise ValidationError(f"{name} must be at most {hi}, got {n}")
        for name, tol in self.tolerances.items():
            if not (isinstance(tol, (int, float)) and tol > 0.0 and math.isfinite(tol)):
                raise ValidationError(f"{name} must be a positive number, got {tol}")
        seen = set()
        for out in self.outputs:
            a = os.path.abspath(out)
            if a in seen:
                raise ValidationError(f"output path {out} repeated")
            seen.add(a)
            folder = os.path.dirname(a)
            if not os.path.isdir(folder):
                raise ValidationError(f"output directory {folder} does not exist")
            if not os.access(folder, os.W_OK):
                raise ValidationError(f"output directory {folder} is not writable")
            if os.path.isdir(a):
                raise ValidationError(f"output path {out} is a directory")
        for inp in self.inputs:
            if os.path.abspath(inp) in seen:
                raise ValidationError(f"output path {inp} would overwrite an input")

    def echo(self) -> dict:
        return {
            "command": self.command,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "counts": dict(self.counts),
            "tolerances": dict(self.tolerances),
        }


# Bound on driver cells x (samples + _SWEEP_CELL_SAMPLES) for weld,
# trace --profile-samples and construct --driver, each one angle sweep, and
# for the tip sweep of trace --count.  An angle sweep costs about 0.1 to 0.25
# us per sample and cell, plus about 0.06 to 0.12 ms per cell, less than 512
# samples cost; a tip sweep about 0.15 to 0.2 us per tip and cut cell, plus
# about 0.15 ms per cut cell.  So a run at the bound takes 2 to 3.5 s on a
# 2-core x86-64 machine.
_SWEEP_WORK = 1 << 24
_SWEEP_CELL_SAMPLES = 512


def _check_sweep(d: DrivingTerm, name: str, samples: int, cells: int | None = None):
    """Reject a sweep over cells (the driver's by default) whose work exceeds
    _SWEEP_WORK before it starts."""
    cells = d.grid.size - 1 if cells is None else cells
    if cells * (samples + _SWEEP_CELL_SAMPLES) > _SWEEP_WORK:
        raise ValidationError(
            f"driver cells x ({name} + {_SWEEP_CELL_SAMPLES}) = {cells} x "
            f"({samples} + {_SWEEP_CELL_SAMPLES}) exceeds {_SWEEP_WORK}")


def _cmd_trace(args, outputs: list) -> int:
    RunConfig(
        "trace",
        inputs=(args.driver,),
        outputs=tuple(p for p in (args.out, args.profile_out) if p),
        counts={"trace_count": args.count, "profile_samples": args.profile_samples},
    )
    d = load_driver(args.driver)
    _check_sweep(d, "trace_count", args.count, int(_tip_pieces(d).sum()))
    if args.profile_out:
        _check_sweep(d, "profile_samples", args.profile_samples)
    outputs.append(args.out)
    samples = trace_curve(d, args.count)
    save_trace_csv(args.out, [s.t for s in samples], [s.tip for s in samples],
                   [s.residual for s in samples])
    if args.profile_out:
        outputs.append(args.profile_out)
        save_welding_csv(args.profile_out, extract_welding(d, args.profile_samples))
    print(f"trace: {len(samples)} samples -> {args.out}")
    return 0


def _cmd_weld(args, outputs: list) -> int:
    RunConfig(
        "weld",
        inputs=(args.driver,),
        outputs=(args.out,),
        counts={"welding_samples": args.samples},
    )
    d = load_driver(args.driver)
    _check_sweep(d, "welding_samples", args.samples)
    outputs.append(args.out)
    w = extract_welding(d, args.samples)
    save_welding_csv(args.out, w)
    print(f"weld: {w.times.size} pairs, alpha+ {w.alpha_plus.angle:.6f}, "
          f"alpha- {w.alpha_minus.angle:.6f} -> {args.out}")
    return 0


def _trimmed_plus_arc(w: Welding):
    """Plus arc with the two endpoint cells dropped (one-sided derivative data)."""
    tp = w.theta_plus
    if tp.size < 4:
        raise ValidationError("welding too coarse to trim endpoint cells")
    return arc(float(tp[1]), float(tp[-2]))


def _cmd_analyze(args, outputs: list) -> int:
    cfg = RunConfig(
        "analyze",
        inputs=tuple(p for p in (args.welding, args.driver) if p),
        outputs=(args.out,),
        counts={"quad_level": args.quad_level, "window_samples": args.window_samples,
                "qs_positions": args.qs_positions},
        tolerances={"quad_agree": args.agree_tol},
    )
    w = load_welding_csv(args.welding)
    d = load_driver(args.driver) if args.driver else None
    outputs.append(args.out)

    u = welding_log_derivative(w)
    trimmed = _trimmed_plus_arc(w)
    semi = h_half_seminorm_detail(u, trimmed, trimmed, m=args.quad_level,
                                  agree_tol=args.agree_tol, strict=not args.keep_going)
    semi_value = math.sqrt(max(semi["value"], 0.0))

    vmo = vmo_curve(u, samples=args.window_samples)
    bmo = max(m for _, m in vmo)

    hom = welding_as_homeomorphism(w)
    qs = qs_constant(hom, positions=args.qs_positions)
    qs_fine = qs_constant(hom, positions=2 * args.qs_positions)
    qs_change = abs(qs_fine - qs) / max(abs(qs), 1e-12)

    wp = wp_cross_condition(w, m=args.quad_level, agree_tol=args.agree_tol,
                            strict=not args.keep_going)

    report = {
        "config": cfg.echo(),
        "normalization": semi["normalization"],
        "T": w.T,
        "alpha_plus": w.alpha_plus.angle,
        "alpha_minus": w.alpha_minus.angle,
        "seminorm_log_phi_prime": semi_value,
        "seminorm_domain": {
            "start": trimmed.start.angle,
            "end": trimmed.end.angle,
            "note": "one welding cell trimmed at each endpoint; derivative data "
                    "there is one-sided",
        },
        "bmo": bmo,
        "vmo_curve": vmo,
        "qs_constant": qs,
        "mr_constant": mr_constant(w),
        "wp_cross_integral": wp["value"],
        "loewner_energy": loewner_energy(d) if d is not None else None,
        "lip_half_norm": lip_half_norm(d) if d is not None else None,
        "refinement_flags": {
            "seminorm_agreement": semi["agreement"],
            "seminorm_converged": bool(semi["agreement"] <= args.agree_tol),
            "wp_agreement": wp["agreement"],
            "wp_converged": bool(wp["converged"]),
            "qs_relative_change": qs_change,
            "qs_stable": bool(qs_change <= 0.10),
        },
        "tolerances": dict(cfg.tolerances),
    }
    write_text(args.out, json_dumps(report))
    print(f"analyze: seminorm {semi_value:.6g}, qs {qs:.6g}, "
          f"mr {report['mr_constant']:.6g}, wp {wp['value']:.6g} -> {args.out}")
    return 0


def _cmd_construct(args, outputs: list) -> int:
    cfg = RunConfig(
        "construct",
        inputs=tuple(p for p in (args.welding, args.driver) if p),
        outputs=(args.out,),
        counts={"quad_level": args.quad_level, "boundary_samples": args.boundary_samples},
        tolerances={"quad_agree": args.agree_tol},
    )
    w = load_welding_csv(args.welding)
    d = load_driver(args.driver) if args.driver else None
    if d is not None:
        _check_sweep(d, "welding pairs", w.times.size)
        res = pair_residuals(d, w)
    outputs.append(args.out)

    built = welding_construction(w)
    tau, psi = built["tau"], built["psi"]
    nb = args.boundary_samples
    # midpoint grid: stays clear of z = -1 where the slit chart degenerates
    th = -math.pi + (np.arange(nb) + 0.5) * (2.0 * math.pi / nb)

    j_dec = psi_j_decomposition(w, m=args.quad_level, agree_tol=args.agree_tol)

    h_bnd = built["h"](np.exp(1j * th))

    mu_q = built["mu_q"]
    maps = {
        "tau": {
            "kind": "endpoint_normalizer",
            "parameters": {
                "rotation": tau.rotation,
                "pole": built["tau"].pole,
                "alpha_plus": w.alpha_plus.angle,
                "alpha_minus": w.alpha_minus.angle,
            },
            "boundary_samples": np.column_stack((th, tau.apply_angle(th))).tolist(),
        },
        "psi": {
            "kind": "welding_circle_extension",
            "parameters": {
                "pieces": [{"label": p.label,
                            "start": p.arc.start.angle,
                            "end": p.arc.end.angle} for p in psi.pieces],
            },
            "boundary_samples": np.column_stack((th, psi.apply_angle(th))).tolist(),
            "j_decomposition": j_dec,
        },
        "h": {
            "kind": "disk_slit_parametrization",
            "parameters": {"beta": built["beta"], "c": built["c"],
                           "t_slit": built["t_slit"]},
            "boundary_samples": np.column_stack((th, h_bnd.real, h_bnd.imag)).tolist(),
        },
        "q": {
            "kind": "interior_shear",
            "parameters": {"r": built["r_q"], "u0": built["u0"],
                           "beta": built["beta"], "mu_bound": mu_q.k_bound},
            "boundary_samples": np.column_stack((th, th)).tolist(),
        },
    }

    composite = None
    if d is not None:
        # the chain's image of 0, then the horizon flow: that fixes 0 with
        # derivative e^-T, and pair_residuals has matched w.T to d.T
        z0 = tau(built["ext"](built["q"].inverse(built["h"].inverse(0j))))
        composite = {
            "f0_abs": math.exp(-w.T) * abs(z0),
            "pair_residual_max": float(np.max(res)),
            "pair_residual_count": int(res.size),
            "note": "residuals are the angle gaps between each welded pair and the "
                    "pair the driver absorbs at its time, by exact cell maps",
        }

    doc = {
        "config": cfg.echo(),
        "T": w.T,
        "alpha_plus": w.alpha_plus.angle,
        "alpha_minus": w.alpha_minus.angle,
        "beta": built["beta"],
        "maps": maps,
        "composite": composite,
    }
    write_text(args.out, json_dumps(doc))
    msg = f"construct: beta {built['beta']:.6g}, t_slit {built['t_slit']:.6g}"
    if composite is not None:
        msg += f", |f(0)| {composite['f0_abs']:.3g}"
    print(msg + f" -> {args.out}")
    return 0


def _cmd_plot(args, outputs: list) -> int:
    RunConfig("plot", inputs=(args.input,), outputs=(args.out,))
    names, cols = load_csv_columns(args.input)
    outputs.append(args.out)
    if names[:3] == ["t", "x", "y"]:
        # from the slit's base point gamma(0) = 1, so one tip is a segment too
        series = [LineSeries(np.insert(cols[1], 0, 1.0), np.insert(cols[2], 0, 0.0), "trace")]
        save_svg(args.out, series, title="slit trace", xlabel="x", ylabel="y",
                 equal_aspect=True)
    elif names == ["t", "theta_plus", "theta_minus"]:
        series = [LineSeries(cols[0], cols[1], "theta_plus"),
                  LineSeries(cols[0], cols[2], "theta_minus")]
        save_svg(args.out, series, title="welding pairing", xlabel="t",
                 ylabel="angle")
    else:
        x = cols[0]
        series = [LineSeries(x, c, n) for n, c in zip(names[1:], cols[1:])
                  if np.all(np.isfinite(c))]
        if not series:
            raise ValidationError("no numeric columns to plot")
        save_svg(args.out, series, title=os.path.basename(args.input),
                 xlabel=names[0], ylabel="")
    print(f"plot: {args.input} -> {args.out}")
    return 0


def _selftest_checks():
    """Fast invariant checks of the flow and the seminorm; each raises on failure."""
    d_const = DrivingTerm([0.0, math.log(2.0)], [0.0, 0.0])

    def flow_normalization():
        eps = 1e-7
        g = upward_flow(d_const, complex(eps, 0.0), 0.25)
        assert abs(g / eps - math.exp(-0.25)) < 1e-5
        assert upward_flow(d_const, 0.0, 0.25) == 0.0

    def boundary_symmetry():
        # end angles live in the lifted chart (0, 2 pi); reduce before comparing
        _, a, _ = boundary_flow(d_const, 1.2, 0.3)
        _, b, _ = boundary_flow(d_const, -1.2, 0.3)
        assert abs(canonical_angle(a) + canonical_angle(b)) < 1e-8

    def seminorm_cos():
        val = h_half_seminorm(lambda t: np.cos(t), m=64)
        assert abs(val - math.sqrt(0.5)) < 0.01 * math.sqrt(0.5)

    return [
        ("flow normalization at 0", flow_normalization),
        ("constant-driver boundary symmetry", boundary_symmetry),
        ("seminorm of cos", seminorm_cos),
    ]


def _cmd_selftest(args, outputs: list) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:   # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures} failures")
        return 1
    print("selftest: all checks passed")
    return 0


# built by the first command, not at import, and kept: a parse leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slitweld",
        description="Conformal weldings of slit disks from Loewner driving terms.")
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("trace", help="slit trace tips by exact driver-cell maps to CSV")
    tr.add_argument("--driver", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--count", type=int, default=128)
    tr.add_argument("--profile-out", default=None)
    tr.add_argument("--profile-samples", type=int, default=64)
    tr.set_defaults(fn=_cmd_trace)

    we = sub.add_parser("weld", help="extract the conformal welding to CSV")
    we.add_argument("--driver", required=True)
    we.add_argument("--out", required=True)
    we.add_argument("--samples", type=int, default=256)
    we.set_defaults(fn=_cmd_weld)

    an = sub.add_parser("analyze", help="regularity functionals to a report JSON")
    an.add_argument("--welding", required=True)
    an.add_argument("--driver", default=None)
    an.add_argument("--out", required=True)
    an.add_argument("--quad-level", type=int, default=256)
    an.add_argument("--agree-tol", type=float, default=0.02)
    an.add_argument("--window-samples", type=int, default=2048)
    an.add_argument("--qs-positions", type=int, default=256)
    an.add_argument("--keep-going", action="store_true",
                    help="record disagreeing quadrature levels instead of failing")
    an.set_defaults(fn=_cmd_analyze)

    co = sub.add_parser("construct", help="explicit proof maps to a maps JSON")
    co.add_argument("--welding", required=True)
    co.add_argument("--driver", default=None)
    co.add_argument("--out", required=True)
    co.add_argument("--quad-level", type=int, default=128)
    co.add_argument("--agree-tol", type=float, default=0.05)
    co.add_argument("--boundary-samples", type=int, default=64)
    co.set_defaults(fn=_cmd_construct)

    st = sub.add_parser("selftest", help="run fast invariant checks")
    st.set_defaults(fn=_cmd_selftest)

    pl = sub.add_parser("plot", help="render a CSV artifact to SVG")
    pl.add_argument("--input", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(fn=_cmd_plot)
    return p


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (OSError, MemoryError)):
        return 6
    if isinstance(exc, ValidationError):
        return 2
    if isinstance(exc, ExtractionError):
        return 5
    if isinstance(exc, AccuracyError):
        return 4
    if isinstance(exc, IntegrationError):
        return 3
    return 2


def run_command(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    outputs: list = []
    try:
        return args.fn(args, outputs)
    except (SlitWeldError, OSError, MemoryError) as exc:
        for path in outputs:
            remove_if_exists(path)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _exit_code(exc)


def main(argv=None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
