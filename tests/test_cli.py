"""End-to-end subcommand runs plus RunConfig and exit-code plumbing."""

import json
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import slitweld.cli as cli
import slitweld.constructions as constructions
from slitweld.cli import _COUNT_MAXIMUMS, _COUNT_MINIMUMS, RunConfig, _exit_code, main
from slitweld.errors import (AccuracyError, ExtractionError, HitSingularityError,
                             IntegrationError, SlitWeldError, ValidationError)
from slitweld.serialize import WELDING_HEADER, load_welding_csv, save_welding_csv
from slitweld.welding import radial_slit_welding

T_LOG2 = math.log(2.0)
T_SLIT_LOG2 = 3.0 - 2.0 * math.sqrt(2.0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def driver_path(workdir):
    p = workdir / "driver.json"
    p.write_text(json.dumps({"T": T_LOG2, "grid": [0.0, T_LOG2],
                             "sigma": [0.0, 0.0]}))
    return str(p)


@pytest.fixture(scope="module")
def extracted_path(workdir, driver_path):
    out = str(workdir / "extracted.csv")
    assert main(["weld", "--driver", driver_path, "--out", out,
                 "--samples", "16"]) == 0
    return out


@pytest.fixture(scope="module")
def closed_form_path(workdir):
    out = str(workdir / "closed.csv")
    save_welding_csv(out, radial_slit_welding(T_SLIT_LOG2, 64))
    return out


def test_runconfig_count_minimums():
    with pytest.raises(ValidationError):
        RunConfig("weld", counts={"welding_samples": 4})
    with pytest.raises(ValidationError):
        RunConfig("x", counts={"unknown_knob": 0})
    RunConfig("weld", counts={"welding_samples": 8, "unknown_knob": 1})


def test_runconfig_tolerances():
    for bad in (0.0, -1.0, math.nan, math.inf, "0.1"):
        with pytest.raises(ValidationError):
            RunConfig("x", tolerances={"tol": bad})
    RunConfig("x", tolerances={"tol": 1e-9})


def test_runconfig_normalization():
    RunConfig("x", normalization="raw")
    with pytest.raises(ValidationError):
        RunConfig("x", normalization="both")


def test_runconfig_path_collisions(tmp_path):
    a = str(tmp_path / "a.json")
    with pytest.raises(ValidationError):
        RunConfig("x", outputs=(a, str(tmp_path) + "/./a.json"))
    with pytest.raises(ValidationError):
        RunConfig("x", inputs=(a,), outputs=(a,))
    RunConfig("x", inputs=(a,), outputs=(str(tmp_path / "b.json"),))


def test_exit_code_mapping():
    assert _exit_code(ValidationError("x")) == 2
    assert _exit_code(IntegrationError("x")) == 3
    assert _exit_code(AccuracyError(1.0, 2.0)) == 4
    assert _exit_code(HitSingularityError(0.5)) == 3
    assert _exit_code(ExtractionError("x")) == 5
    assert _exit_code(SlitWeldError("x")) == 2


def test_trace_end_to_end(workdir, driver_path):
    out = str(workdir / "trace.csv")
    prof = str(workdir / "profile.csv")
    rc = main(["trace", "--driver", driver_path, "--out", out, "--count", "4",
               "--profile-out", prof, "--profile-samples", "8"])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "t,x,y,residual"
    assert len(lines) == 5
    tip = float(lines[-1].split(",")[1])
    assert abs(tip - T_SLIT_LOG2) < 1e-4
    plines = Path(prof).read_text().splitlines()
    assert plines[0] == "theta,tau,side"
    sides = {ln.split(",")[2] for ln in plines[1:]}
    assert sides == {"plus", "minus"}


def test_weld_output_and_determinism(workdir, driver_path, extracted_path):
    lines = Path(extracted_path).read_text().splitlines()
    assert lines[0] == WELDING_HEADER
    assert lines[1] == "0,0,0"
    w = load_welding_csv(extracted_path)
    assert abs(w.T - T_LOG2) < 1e-12
    assert abs(w.alpha_plus.angle - 0.5 * math.pi) < 1e-4
    again = str(workdir / "extracted2.csv")
    assert main(["weld", "--driver", driver_path, "--out", again,
                 "--samples", "16"]) == 0
    assert Path(extracted_path).read_bytes() == Path(again).read_bytes()


_REPORT_FIELDS = [
    "config", "normalization", "T", "alpha_plus", "alpha_minus",
    "seminorm_log_phi_prime", "seminorm_domain", "bmo", "vmo_curve",
    "qs_constant", "mr_constant", "wp_cross_integral", "wp_alpha_cell_mass",
    "loewner_energy", "lip_half_norm", "refinement_flags", "tolerances",
]


def test_analyze_closed_form(workdir, driver_path, closed_form_path):
    out = str(workdir / "report.json")
    argv = ["analyze", "--welding", closed_form_path, "--driver", driver_path,
            "--out", out, "--quad-level", "64", "--window-samples", "64",
            "--qs-positions", "16"]
    assert main(argv) == 0
    first = Path(out).read_bytes()
    rep = json.loads(first)
    for field in _REPORT_FIELDS:
        assert field in rep
    # the radial welding is conjugation: every functional sits at its floor
    assert rep["seminorm_log_phi_prime"] < 1e-6
    assert abs(rep["qs_constant"] - 1.0) < 1e-9
    assert abs(rep["mr_constant"] - 1.0) < 1e-9
    assert abs(rep["wp_cross_integral"]) < 1e-9
    assert rep["loewner_energy"] == 0.0
    assert rep["lip_half_norm"] == 0.0
    assert rep["normalization"] == "two_pi"
    flags = rep["refinement_flags"]
    assert flags["seminorm_converged"] and flags["wp_converged"]
    assert flags["qs_stable"]
    scales = [s for s, _ in rep["vmo_curve"]]
    assert len(scales) >= 3 and all(b < a for a, b in zip(scales, scales[1:]))
    assert main(argv) == 0
    assert Path(out).read_bytes() == first


def test_analyze_without_driver(workdir, closed_form_path):
    out = str(workdir / "report_nodriver.json")
    assert main(["analyze", "--welding", closed_form_path, "--out", out,
                 "--quad-level", "64", "--window-samples", "64",
                 "--qs-positions", "16"]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["loewner_energy"] is None
    assert rep["lip_half_norm"] is None


def test_analyze_extracted_keep_going(workdir, driver_path, extracted_path):
    # coarse extraction noise can stall quadrature agreement; keep-going
    # records it instead of failing
    out = str(workdir / "report_extracted.json")
    assert main(["analyze", "--welding", extracted_path, "--driver", driver_path,
                 "--out", out, "--quad-level", "64", "--window-samples", "64",
                 "--qs-positions", "16", "--keep-going"]) == 0
    rep = json.loads(Path(out).read_text())
    assert abs(rep["qs_constant"] - 1.0) < 5e-3
    assert abs(rep["mr_constant"] - 1.0) < 5e-3
    assert rep["seminorm_log_phi_prime"] < 1e-2


def test_construct_closed_form(workdir, driver_path, closed_form_path):
    out = str(workdir / "maps.json")
    argv = ["construct", "--welding", closed_form_path, "--driver", driver_path,
            "--out", out, "--quad-level", "16", "--boundary-samples", "16",
            "--residual-count", "2"]
    assert main(argv) == 0
    first = Path(out).read_bytes()
    doc = json.loads(first)
    maps = doc["maps"]
    assert maps["tau"]["kind"] == "endpoint_normalizer"
    assert maps["psi"]["kind"] == "welding_circle_extension"
    assert maps["h"]["kind"] == "disk_slit_parametrization"
    assert maps["q"]["kind"] == "interior_shear"
    assert abs(doc["beta"]) < 1e-6
    hp = maps["h"]["parameters"]
    assert {"beta", "c", "t_slit"} <= set(hp)
    assert abs(hp["t_slit"] - T_SLIT_LOG2) < 1e-6
    assert {"r", "u0", "beta", "mu_bound"} <= set(maps["q"]["parameters"])
    assert maps["q"]["parameters"]["mu_bound"] < 1e-4
    jd = maps["psi"]["j_decomposition"]
    assert {"J1", "J2", "J3", "J4", "J5", "J6"} <= set(jd)
    assert len(maps["h"]["boundary_samples"]) == 16
    assert len(maps["h"]["boundary_samples"][0]) == 3
    comp = doc["composite"]
    assert comp["f0_abs"] < 1e-5
    assert comp["pair_residual_max"] < 5e-3
    assert comp["pair_residual_count"] == 2
    assert main(argv) == 0
    assert Path(out).read_bytes() == first


def test_plot_variants(workdir):
    ns = "{http://www.w3.org/2000/svg}"
    for src, n_series in (("trace.csv", 1), ("extracted.csv", 2),
                          ("profile.csv", 1)):
        out = str(workdir / (src + ".svg"))
        assert main(["plot", "--input", str(workdir / src), "--out", out]) == 0
        root = ET.fromstring(Path(out).read_text())
        assert len(root.findall(f"{ns}polyline")) == n_series
    generic = workdir / "generic.csv"
    generic.write_text("s,v\n0,1\n1,2\n2,4\n")
    out = str(workdir / "generic.svg")
    assert main(["plot", "--input", str(generic), "--out", out]) == 0


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_validation_exit_codes(tmp_path, driver_path):
    out = str(tmp_path / "w.csv")
    assert main(["weld", "--driver", driver_path, "--out", out,
                 "--samples", "4"]) == 2
    assert main(["trace", "--driver", str(tmp_path / "missing.json"),
                 "--out", out, "--count", "2"]) == 2
    assert main(["analyze", "--welding", driver_path, "--out", driver_path]) == 2
    assert not os.path.exists(out)


def test_accuracy_failure_removes_output(tmp_path):
    # the asymmetric welding of a moving driver cannot satisfy a 1e-12
    # agreement demand; the stale file at the output path must not survive
    # the failed run
    driver = tmp_path / "linear.json"
    driver.write_text(json.dumps({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, 0.4]}))
    welding = str(tmp_path / "linear.csv")
    assert main(["weld", "--driver", str(driver), "--out", welding,
                 "--samples", "16"]) == 0
    out = tmp_path / "report.json"
    out.write_text("stale\n")
    rc = main(["analyze", "--welding", welding, "--out", str(out),
               "--quad-level", "64", "--window-samples", "64",
               "--qs-positions", "16", "--agree-tol", "1e-12"])
    assert rc == 4
    assert not out.exists()


def test_plot_failure_removes_output(tmp_path):
    src = tmp_path / "letters.csv"
    src.write_text("a,b\n0,x\n1,y\n")
    out = tmp_path / "letters.svg"
    out.write_text("stale\n")
    assert main(["plot", "--input", str(src), "--out", str(out)]) == 2
    assert not out.exists()


def _forbid_compute(monkeypatch):
    """Make any input load fail the test: validation must stop the run first."""
    def reached(*args, **kwargs):
        raise AssertionError("the run started before validation rejected it")

    for name in ("load_driver", "load_welding_csv"):
        monkeypatch.setattr(cli, name, reached)


def test_runconfig_count_maximums():
    assert set(_COUNT_MAXIMUMS) == set(_COUNT_MINIMUMS)
    for name, hi in _COUNT_MAXIMUMS.items():
        RunConfig("x", counts={name: hi})
        with pytest.raises(ValidationError):
            RunConfig("x", counts={name: hi + 1})


def test_runconfig_output_directory(tmp_path):
    RunConfig("x", outputs=(str(tmp_path / "a.json"),))
    blocker = tmp_path / "file.txt"
    blocker.write_text("x\n")
    for bad in (tmp_path / "missing" / "a.json", blocker / "a.json", tmp_path):
        with pytest.raises(ValidationError):
            RunConfig("x", outputs=(str(bad),))


def test_missing_output_directory_exits_2_before_compute(tmp_path, driver_path,
                                                         closed_form_path, monkeypatch):
    _forbid_compute(monkeypatch)
    missing = tmp_path / "no" / "such"
    assert main(["weld", "--driver", driver_path, "--out", str(missing / "w.csv")]) == 2
    assert main(["analyze", "--welding", closed_form_path,
                 "--out", str(missing / "report.json")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_quad_level_cap_exits_2_before_compute(tmp_path, closed_form_path, monkeypatch):
    _forbid_compute(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["analyze", "--welding", closed_form_path, "--out", str(out),
                 "--quad-level", "100000000"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), MemoryError()])
def test_os_and_memory_failures_exit_6_and_remove_output(tmp_path, driver_path,
                                                         monkeypatch, exc):
    # a writer that dies halfway leaves a partial file, which must not survive
    def failing_writer(path, w):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(WELDING_HEADER + "\n0,")
        raise exc

    monkeypatch.setattr(cli, "save_welding_csv", failing_writer)
    out = tmp_path / "w.csv"
    assert main(["weld", "--driver", driver_path, "--out", str(out),
                 "--samples", "16"]) == 6
    assert not out.exists()
    assert _exit_code(exc) == 6


@pytest.mark.parametrize("stage", ["analyze", "construct"])
def test_header_only_welding_exits_2_without_output(tmp_path, stage):
    welding = tmp_path / "empty.csv"
    welding.write_text(WELDING_HEADER + "\n")
    out = tmp_path / "out.json"
    assert main([stage, "--welding", str(welding), "--out", str(out)]) == 2
    assert not out.exists()


def test_driver_with_more_cells_than_a_flow_has_steps_exits_2_before_flows(
        tmp_path, closed_form_path, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a flow started on a driver that no flow can cross")

    for name in ("trace_curve", "hitting_profile", "extract_welding", "welding_construction",
                 "pair_residuals", "compose_f"):
        monkeypatch.setattr(cli, name, reached)
    cells = cli.DEFAULT_FLOW_PARAMS.max_steps + 1
    driver = tmp_path / "fine.json"
    driver.write_text(json.dumps({"T": 1.0, "grid": np.linspace(0.0, 1.0, cells + 1).tolist(),
                                  "sigma": [0.0] * (cells + 1)}))
    out = tmp_path / "out"
    for argv in (["trace", "--driver", str(driver), "--out", str(out)],
                 ["weld", "--driver", str(driver), "--out", str(out)],
                 ["construct", "--welding", closed_form_path, "--driver", str(driver),
                  "--out", str(out)]):
        assert main(argv) == 2
        assert not out.exists()
    # analyze runs no flow, so the driver's own functionals still take it
    assert main(["analyze", "--welding", closed_form_path, "--driver", str(driver),
                 "--out", str(out), "--quad-level", "64", "--window-samples", "64",
                 "--qs-positions", "16"]) == 0


def test_construct_with_driver_builds_the_chain_once(tmp_path, driver_path, closed_form_path,
                                                     monkeypatch):
    built = []

    class CountingExtension(constructions._HarmonicExtension):
        def __init__(self, psi):
            built.append(psi)
            super().__init__(psi)

    monkeypatch.setattr(constructions, "_HarmonicExtension", CountingExtension)
    assert main(["construct", "--welding", closed_form_path, "--driver", driver_path,
                 "--out", str(tmp_path / "maps.json"), "--quad-level", "16",
                 "--boundary-samples", "16", "--residual-count", "1"]) == 0
    assert len(built) == 1
