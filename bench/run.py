"""Benchmark of the slitweld pipeline: trace -> weld -> analyze -> construct.

    python3 bench/run.py --workload weld-linear --seed 0 --seconds 30 --trace 0

Generates the workload's input files from the seed, runs its CLI stages
in-process through ``slitweld.cli.run_command`` for about ``--seconds``
seconds (at least twice, so reruns can be compared byte for byte), checks
every output, and prints the metrics.  ``--trace 1`` instead runs the
pipeline twice untraced and twice under ``tracer.Tracer``, alternating, and
prints the per-layer metrics; it ignores ``--seconds`` and takes four
pipelines, about 30 s on functionals-closedform, 45 s on weld-linear and
60 s on weld-sqrt on a 2-core x86-64 machine.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from the ``src`` directory next to this one; the run
refuses to start if that import fails or resolves elsewhere.  Files go to
``.bench_run/<workload>/seed-<n>/`` under the same root.  See README.md in
this directory for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import closedform  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
REFERENCE_C = 0.4             # the ROADMAP reference drivers, used by the default seed
C_RANGE = (0.2, 0.6)          # every stage of every workload exits 0 on this range
HORIZON = closedform.HORIZON
SQRT_CELLS = 256              # the graded driver of tests/conftest.py
WELD_SAMPLES = {"weld-linear": 128, "weld-sqrt": 64}   # construct needs 128 to exit 0
CLOSED_FORM_SAMPLES = 256     # 257 welded pairs
WELD_ERR_LIMIT = 1e-6         # endpoint bisection tolerance of the weld stage
MIN_REPEATS = 2
SETUP_LAUNCHES = 9

WORKLOADS = ("weld-linear", "weld-sqrt", "functionals-closedform")
STAGES = ("trace", "weld", "analyze", "construct")

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}


def parameter(seed: int) -> float:
    """The driver slope c (or the square-root coefficient kappa) for a seed."""
    if seed == DEFAULT_SEED:
        return REFERENCE_C
    return random.Random(seed).uniform(*C_RANGE)


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def make_input(workload: str, c: float, work: Path) -> str:
    """Write the workload's input file, a driver or a welding; returns its path."""
    if workload == "weld-linear":
        path = work / "driver.json"
        _write_json(path, {"T": HORIZON, "grid": [0.0, HORIZON], "sigma": [0.0, c]})
        return str(path)
    if workload == "weld-sqrt":
        # same nodes as DrivingTerm.from_function(lambda t: c sqrt(t), 1, 256, power=2)
        t = HORIZON * (np.arange(SQRT_CELLS + 1) / SQRT_CELLS) ** 2
        t[0], t[-1] = 0.0, HORIZON
        sigma = [c * math.sqrt(x) for x in t.tolist()]
        path = work / "driver.json"
        _write_json(path, {"T": HORIZON, "grid": t.tolist(), "sigma": sigma})
        return str(path)
    path = work / "closedform_welding.csv"
    path.write_text(closedform.welding_csv(c, CLOSED_FORM_SAMPLES), encoding="utf-8")
    return str(path)


def stage_commands(workload: str, inp: str, work: Path) -> dict:
    """Stage name -> (argv, output paths), in pipeline order."""
    out = {name: str(work / name) for name in
           ("trace.csv", "profile.csv", "welding.csv", "report.json", "maps.json")}
    if workload == "functionals-closedform":
        return {
            "analyze": (["analyze", "--welding", inp, "--out", out["report.json"],
                         "--keep-going", "--quad-level", "1024"], [out["report.json"]]),
            "construct": (["construct", "--welding", inp, "--out", out["maps.json"],
                           "--quad-level", "1024"], [out["maps.json"]]),
        }
    d = inp
    samples = str(WELD_SAMPLES[workload])
    cmds = {
        "trace": (["trace", "--driver", d, "--out", out["trace.csv"],
                   "--profile-out", out["profile.csv"]],
                  [out["trace.csv"], out["profile.csv"]]),
        "weld": (["weld", "--driver", d, "--out", out["welding.csv"], "--samples", samples],
                 [out["welding.csv"]]),
        "analyze": (["analyze", "--welding", out["welding.csv"], "--driver", d,
                     "--out", out["report.json"], "--keep-going"], [out["report.json"]]),
    }
    if workload == "weld-linear":
        cmds["construct"] = (["construct", "--welding", out["welding.csv"], "--driver", d,
                              "--out", out["maps.json"]], [out["maps.json"]])
    return cmds


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _nonfinite(obj, where="$"):
    """JSON paths of numbers that are not finite."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [where]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite(v, f"{where}[{i}]")]
    return []


def weld_error(welding_csv: str, c: float) -> float:
    """Largest angle error of a written welding against the closed form."""
    rows = np.loadtxt(welding_csv, delimiter=",", skiprows=1, ndmin=2)
    t = rows[:, 0]
    err_p = np.abs(rows[:, 1] - closedform.plus_angle(t, c))
    err_m = np.abs(rows[:, 2] + closedform.plus_angle(t, -c))
    return float(max(err_p.max(), err_m.max()))


class Run:
    """One workload at one seed: inputs, repeated pipelines and their checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.c = parameter(seed)
        self.commands = stage_commands(workload, make_input(workload, self.c, work), work)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = None
        self.report = None
        self.weld_err_max = 0.0

    def fail(self, stage: str, why: str):
        self.failed += 1
        self.failures.append(f"{stage}: {why}")
        print(f"FAILED {self.workload} {stage}: {why}", file=sys.stderr)

    def pipeline(self) -> dict:
        """Run every stage once and check its outputs; returns stage -> seconds.

        Each stage call is one operation.  It fails on a non-zero exit, on an
        exception, on a failed output check, or when an output differs from
        the first run's.
        """
        from slitweld.cli import run_command

        times = {}
        first = self.hashes is None
        if first:
            self.hashes = {}
        for stage, (argv, outputs) in self.commands.items():
            self.attempted += 1
            gc.collect()
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = run_command(argv)
                why = f"exit code {code}" if code != 0 else None
            except Exception as exc:   # a crash counts as a failed operation
                why = f"raised {exc!r}"
            times[stage] = time.perf_counter() - t0
            if why:
                self.fail(stage, f"{why}: {sink.getvalue().strip()}")
                continue
            try:
                problem = self.check(stage, outputs)
            except Exception as exc:
                problem = f"output check raised {exc!r}"
            if problem is None:
                for path in outputs:
                    digest = _sha256(path)
                    if first:
                        self.hashes[path] = digest
                    elif self.hashes.get(path) != digest:
                        problem = f"{os.path.basename(path)} differs from the first run"
            if problem:
                self.fail(stage, problem)
        return times

    def check(self, stage: str, outputs) -> str | None:
        for path in outputs:
            if not os.path.isfile(path):
                return f"{os.path.basename(path)} was not written"
        if stage == "weld" and self.workload == "weld-linear":
            self.weld_err_max = weld_error(outputs[0], self.c)
            if not self.weld_err_max <= WELD_ERR_LIMIT:
                return f"weld_err_max {self.weld_err_max:.3g} > {WELD_ERR_LIMIT:g}"
        if stage in ("analyze", "construct"):
            with open(outputs[0], encoding="utf-8") as fh:
                doc = json.load(fh)
            bad = _nonfinite(doc)
            if bad:
                return f"non-finite values at {', '.join(bad[:5])}"
            if stage == "analyze":
                self.report = doc
        return None

    def accuracy(self) -> dict:
        flags = self.report["refinement_flags"] if self.report else {}
        unconverged = sum(1 for k, v in flags.items()
                          if (k.endswith("_converged") or k == "qs_stable") and v is False)
        return {"weld_err_max": self.weld_err_max,
                "wp_agreement": flags.get("wp_agreement", 0.0),
                "unconverged_flags": unconverged,
                "error_rate": self.failed / max(self.attempted, 1)}


def measure_setup(launches: int) -> float:
    """Median wall time of a fresh interpreter importing slitweld.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import slitweld.cli"]
    subprocess.run(argv, env=env, check=True, cwd=ROOT)   # warm the bytecode cache
    samples = []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: str, seed: int, c: float) -> dict:
    # the ceiling keeps git from reporting a repository that encloses this tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"workload": workload, "seed": seed, "c": c, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "commit": commit or "unknown"}


def stage_medians(reps) -> dict:
    return {s: (statistics.median(r[s] for r in reps) if s in reps[0] else 0.0)
            for s in STAGES}


def run_untraced(run: Run, seconds: float) -> dict:
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run.pipeline())
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPEATS and elapsed + sum(reps[-1].values()) > seconds:
            break
    stages = stage_medians(reps)
    return {
        "metrics": {
            "setup_s": measure_setup(SETUP_LAUNCHES),
            "pipeline_s": statistics.median(sum(r.values()) for r in reps),
            "peak_rss_mib": peak_rss_mib(),
        },
        "units": END_TO_END_UNITS,
        "report": {**{f"{s}_s": v for s, v in stages.items()}, **run.accuracy(),
                   "repeats": len(reps)},
        "repeat_times": reps,
    }


PER_LAYER_UNITS = {
    "trace_s": "s", "weld_s": "s", "analyze_s": "s", "construct_s": "s",
    "weld_err_max": "rad", "wp_agreement": "1", "unconverged_flags": "count",
    "error_rate": "1",
    "loewner.flows": "count", "loewner.driver_evals": "count",
    "loewner.driver_evals_per_flow": "evals/flow", "loewner.errors": "count",
    "loewner.slit_preimage_endpoints.s": "s", "loewner.hitting_profile.s": "s",
    "loewner.trace_curve.s": "s", "loewner.upward_flow.calls": "count",
    "welding.extract_welding.self_s": "s", "welding.flows_per_pair": "flows/pair",
    "welding.pair_residuals.s": "s",
    "regularity.h_half_seminorm.s": "s", "regularity.wp_cross_condition.s": "s",
    "regularity.bmo_vmo.s": "s", "regularity.qs_constant.s": "s",
    "arcfun.eval_angle.calls": "count",
    "constructions.psi_j_decomposition.s": "s",
    "constructions.welding_construction.s": "s", "constructions.compose_f.s": "s",
    "serialize.read_s": "s", "serialize.write_s": "s", "serialize.bytes_written": "B",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(tr: Tracer, pairs: int) -> dict:
    """Per-layer numbers of one traced pipeline that welds pairs pairs."""
    self_t = tr.self_times()
    children_raised = {s["parent"] for s in tr.spans
                       if s["error"] and s["name"].startswith("loewner.")}
    weld_spans = [s for s in tr.spans if s["name"] == "welding.extract_welding"]
    weld_flows = sum(s["flows"] for s in weld_spans)

    def total(*names):
        return tr.outermost_time(names)

    return {
        "loewner.flows": tr.flows,
        "loewner.driver_evals": tr.driver_evals,
        "loewner.driver_evals_per_flow": tr.driver_evals / tr.flows if tr.flows else 0.0,
        "loewner.errors": sum(1 for s in tr.spans if s["error"]
                              and s["name"].startswith("loewner.")
                              and s["id"] not in children_raised),
        "loewner.slit_preimage_endpoints.s": total("loewner.slit_preimage_endpoints"),
        "loewner.hitting_profile.s": total("loewner.hitting_profile"),
        "loewner.trace_curve.s": total("loewner.trace_curve"),
        "loewner.upward_flow.calls": sum(1 for s in tr.spans
                                         if s["name"] == "loewner.upward_flow"),
        "welding.extract_welding.self_s": sum(self_t[s["id"]] for s in weld_spans),
        "welding.flows_per_pair": weld_flows / pairs if pairs else 0.0,
        "welding.pair_residuals.s": total("welding.pair_residuals"),
        "regularity.h_half_seminorm.s": total("regularity.h_half_seminorm",
                                              "regularity.h_half_seminorm_detail"),
        "regularity.wp_cross_condition.s": total("regularity.wp_cross_condition"),
        "regularity.bmo_vmo.s": total("regularity.bmo_norm", "regularity.vmo_modulus"),
        "regularity.qs_constant.s": total("regularity.qs_constant"),
        "arcfun.eval_angle.calls": tr.eval_angle,
        "constructions.psi_j_decomposition.s": total("constructions.psi_j_decomposition"),
        "constructions.welding_construction.s": total("constructions.welding_construction"),
        "constructions.compose_f.s": total("constructions.compose_f"),
        "serialize.read_s": total("serialize.load_driver", "serialize.load_welding_csv",
                                  "serialize.load_csv_columns"),
        "serialize.write_s": total("serialize.json_dumps", "serialize.write_text",
                                   "serialize.save_welding_csv", "serialize.save_trace_csv",
                                   "serialize.save_profile_csv"),
        "serialize.bytes_written": tr.bytes_written,
        "cli.self_s": sum(self_t[s["id"]] for s in tr.spans if s["name"] == "cli.run_command"),
    }


# layer metrics that count work, which must repeat exactly between traced runs
_COUNTS = ("loewner.flows", "loewner.driver_evals", "loewner.errors",
           "loewner.upward_flow.calls", "arcfun.eval_angle.calls", "serialize.bytes_written")


def run_traced(run: Run, work: Path, meta: dict) -> dict:
    """Untraced and traced pipelines, alternated so that drift hits both alike."""
    untraced = []
    passes = []
    for _ in range(2):
        untraced.append(run.pipeline())
        tr = Tracer()
        with tr.installed():
            times = run.pipeline()
        passes.append((tr, times))
    layers = [layer_metrics(tr, WELD_SAMPLES.get(run.workload, 0)) for tr, _ in passes]
    run.attempted += 1
    changed = [f"{name} {layers[0][name]} vs {layers[1][name]}" for name in _COUNTS
               if layers[0][name] != layers[1][name]]
    if changed:
        run.fail("trace", "counts differ between traced runs: " + ", ".join(changed))
    metrics = {name: (statistics.mean(layer[name] for layer in layers) if name not in _COUNTS
                      else layers[0][name]) for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.mean(sum(t.values()) for _, t in passes)
                                   - statistics.mean(sum(t.values()) for t in untraced))
    stages = stage_medians(untraced)
    metrics.update({f"{s}_s": stages[s] for s in STAGES})
    metrics.update(run.accuracy())
    passes[0][0].write(str(work / "spans.json"), meta)
    return {"metrics": {name: metrics[name] for name in PER_LAYER_UNITS},
            "units": PER_LAYER_UNITS, "report": {},
            "repeat_times": {"untraced": untraced, "traced": [t for _, t in passes]}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import slitweld.cli  # fails here when the source tree is missing
    if Path(slitweld.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"slitweld imported from {slitweld.__file__}, not from {SRC}")

    work = ROOT / ".bench_run" / args.workload / f"seed-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, work)
    env = environment(args.workload, args.seed, run.c)
    if args.trace:
        result = run_traced(run, work, env)
    else:
        result = run_untraced(run, args.seconds)

    metrics = {name: {"value": value, "unit": result["units"][name]}
               for name, value in result["metrics"].items()}
    for name, value in {**result["metrics"], **result["report"]}.items():
        unit = result["units"].get(name) or PER_LAYER_UNITS.get(name, "")
        print(f"{name:40s} {value!r:>24} {unit}")
    print("env: " + json.dumps(env))
    _write_json(work / f"result-trace{args.trace}.json",
                {"env": env, "metrics": metrics, "report": result["report"],
                 "repeat_times": result["repeat_times"], "failures": run.failures})
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
