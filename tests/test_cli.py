"""End-to-end subcommand runs plus RunConfig and exit-code plumbing."""

import json
import math
import os
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import slitweld.cli as cli
import slitweld.constructions as constructions
from slitweld.cli import _COUNT_MAXIMUMS, _COUNT_MINIMUMS, RunConfig, _exit_code, main
from slitweld.errors import (AccuracyError, ExtractionError, HitSingularityError,
                             IntegrationError, SlitWeldError, ValidationError)
from slitweld.loewner import DEFAULT_FLOW_PARAMS, PRECISE_FLOW_PARAMS, DrivingTerm, upward_flow
from slitweld.serialize import (WELDING_HEADER, load_csv_columns, load_welding_csv,
                                save_welding_csv)

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
    save_welding_csv(out, oracles.radial_slit_welding(T_SLIT_LOG2, 64))
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
    assert plines[0] == WELDING_HEADER
    assert len(plines) == 10   # the base pair and 8 more


def test_profile_and_welding_share_one_sweep(tmp_path, d_sqrt):
    # the profile is the welding, byte for byte
    driver = tmp_path / "sqrt.json"
    driver.write_text(json.dumps({"T": d_sqrt.T, "grid": d_sqrt.grid.tolist(),
                                  "sigma": d_sqrt.sigma.tolist()}))
    prof, weld = tmp_path / "profile.csv", tmp_path / "welding.csv"
    assert main(["trace", "--driver", str(driver), "--out", str(tmp_path / "trace.csv"),
                 "--count", "1", "--profile-out", str(prof), "--profile-samples", "64"]) == 0
    assert main(["weld", "--driver", str(driver), "--out", str(weld), "--samples", "64"]) == 0
    assert len(weld.read_text().splitlines()) == 66   # header, base pair, 64 pairs
    assert prof.read_bytes() == weld.read_bytes()


def test_profile_samples_floor_exits_2_before_compute(tmp_path, driver_path, monkeypatch):
    _forbid_compute(monkeypatch)
    assert _COUNT_MINIMUMS["profile_samples"] == _COUNT_MINIMUMS["welding_samples"] == 8
    for n in (2, 7):
        assert main(["trace", "--driver", driver_path, "--out", str(tmp_path / "t.csv"),
                     "--profile-out", str(tmp_path / "p.csv"),
                     "--profile-samples", str(n)]) == 2
    assert list(tmp_path.iterdir()) == []


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


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), const=st.floats(0.05, 0.5))
def test_weld_reruns_are_byte_identical_on_random_drivers(seed, const):
    grid, sigma = oracles.random_lip_half_nodes(np.random.default_rng(seed), n=32,
                                                const=const)
    with tempfile.TemporaryDirectory() as tmp:
        driver = Path(tmp) / "driver.json"
        driver.write_text(json.dumps({"T": float(grid[-1]), "grid": grid.tolist(),
                                      "sigma": sigma.tolist()}))
        outs = [Path(tmp) / f"welding{k}.csv" for k in (1, 2)]
        for out in outs:
            assert main(["weld", "--driver", str(driver), "--out", str(out),
                         "--samples", "8"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


_REPORT_FIELDS = [
    "config", "normalization", "T", "alpha_plus", "alpha_minus",
    "seminorm_log_phi_prime", "seminorm_domain", "bmo", "vmo_curve",
    "qs_constant", "mr_constant", "wp_cross_integral",
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
            "--out", out, "--quad-level", "16", "--boundary-samples", "16"]
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
    # one array call per map gives what one scalar call per sample gives
    built = constructions.welding_construction(load_welding_csv(closed_form_path))
    for name in ("tau", "psi"):
        samples = np.array(maps[name]["boundary_samples"])
        assert samples.shape == (16, 2)
        ref = [built[name].apply_angle(float(a)) for a in samples[:, 0]]
        assert np.max(np.abs(samples[:, 1] - ref)) <= 4.4e-16
    h_samples = np.array(maps["h"]["boundary_samples"])
    h_ref = [built["h"](complex(np.exp(1j * a))) for a in h_samples[:, 0]]
    assert np.max(np.abs(h_samples[:, 1] + 1j * h_samples[:, 2] - h_ref)) <= 4.4e-16
    comp = doc["composite"]
    assert comp["f0_abs"] < 1e-5
    assert comp["pair_residual_max"] <= 1e-13
    assert comp["pair_residual_count"] == 64
    assert main(argv) == 0
    assert Path(out).read_bytes() == first


@pytest.mark.parametrize("driver, rel", [("radial", 1e-8), ("linear", 1e-8), ("sqrt", 1e-12)])
def test_construct_f0_is_the_horizon_flow_of_the_chain_image_of_0(tmp_path, d_sqrt, driver,
                                                                   rel):
    # f0_abs is e^-T |chain(0)|: the horizon flow at chain(0), which fixes 0
    # with derivative e^-T.  |chain(0)| is about 1e-16 on the 2-node drivers,
    # where the flow's own error is set by its atol, not its rtol
    d = {"radial": DrivingTerm([0.0, T_LOG2], [0.0, 0.0]),
         "linear": DrivingTerm([0.0, 1.0], [0.0, 0.4]), "sqrt": d_sqrt}[driver]
    driver_json = tmp_path / "driver.json"
    driver_json.write_text(json.dumps({"T": d.T, "grid": d.grid.tolist(),
                                       "sigma": d.sigma.tolist()}))
    welding, out = str(tmp_path / "w.csv"), tmp_path / "maps.json"
    assert main(["weld", "--driver", str(driver_json), "--out", welding,
                 "--samples", "64"]) == 0
    # the psi energies' quadrature is not what is checked here; on d_sqrt its
    # levels 16 and 32 differ by 19%, which exits 4 at the default tolerance
    assert main(["construct", "--welding", welding, "--driver", str(driver_json),
                 "--out", str(out), "--quad-level", "16", "--boundary-samples", "16",
                 "--agree-tol", "0.5"]) == 0
    got = json.loads(out.read_text())["composite"]["f0_abs"]
    built = constructions.welding_construction(load_welding_csv(welding))
    z0 = built["tau"](built["ext"](built["q"].inverse(built["h"].inverse(0j))))
    want = abs(upward_flow(d, z0, d.T, PRECISE_FLOW_PARAMS))
    assert abs(got - want) <= rel * want


def test_plot_variants(workdir):
    ns = "{http://www.w3.org/2000/svg}"
    for src, n_series in (("trace.csv", 1), ("extracted.csv", 2),
                          ("profile.csv", 2)):
        out = str(workdir / (src + ".svg"))
        assert main(["plot", "--input", str(workdir / src), "--out", out]) == 0
        root = ET.fromstring(Path(out).read_text())
        assert len(root.findall(f"{ns}polyline")) == n_series
    generic = workdir / "generic.csv"
    generic.write_text("s,v\n0,1\n1,2\n2,4\n")
    out = str(workdir / "generic.svg")
    assert main(["plot", "--input", str(generic), "--out", out]) == 0


def test_plot_draws_a_one_tip_trace_from_the_base_point(tmp_path):
    driver = tmp_path / "linear.json"
    driver.write_text(json.dumps({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, 0.4]}))
    trace, out = str(tmp_path / "one.csv"), str(tmp_path / "one.svg")
    assert main(["trace", "--driver", str(driver), "--out", trace, "--count", "1"]) == 0
    assert main(["plot", "--input", trace, "--out", out]) == 0
    (line,) = ET.fromstring(Path(out).read_text()).findall(
        "{http://www.w3.org/2000/svg}polyline")
    assert len(line.get("points").split()) == 2   # gamma(0) = 1, then the tip


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok   flow normalization at 0",
        "ok   constant-driver boundary symmetry",
        "ok   seminorm of cos",
        "selftest: all checks passed",
    ]


def test_selftest_failing_check_exits_1(monkeypatch, capsys):
    def broken():
        raise AssertionError("off by one")

    monkeypatch.setattr(cli, "_selftest_checks", lambda: [("broken check", broken)])
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL broken check: off by one",
        "selftest: 1 failures",
    ]


def test_parser_is_built_once_and_parses_as_before(tmp_path, driver_path, capsys):
    cli._build_parser.cache_clear()
    for k in (1, 2):
        assert main(["weld", "--driver", driver_path, "--out", str(tmp_path / f"w{k}.csv"),
                     "--samples", "8"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    fresh = cli._build_parser.__wrapped__()   # built anew, as each command used to
    argv = ["analyze", "--welding", "w.csv", "--out", "r.json", "--keep-going",
            "--window-samples", "8192"]
    assert vars(cli._build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
    # --help exits 0 and an argparse error exits 2, with the same text as before
    for argv, code in ((["analyze", "--help"], 0), (["analyze", "--quad-level", "x"], 2),
                       (["unweld"], 2)):
        outputs = []
        for parse in (fresh.parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]


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


def test_exit_4_names_the_integral_whose_levels_disagree(tmp_path, d_sqrt, capsys):
    # the README quick-start verdicts: on the linear driver wp's levels
    # disagree, on the sqrt fixture also psi's J5; the seminorm fails first
    # under a 1e-12 demand
    linear, sqrt = tmp_path / "linear.json", tmp_path / "sqrt.json"
    linear.write_text(json.dumps({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, 0.4]}))
    sqrt.write_text(json.dumps({"T": d_sqrt.T, "grid": d_sqrt.grid.tolist(),
                                "sigma": d_sqrt.sigma.tolist()}))
    for driver in (linear, sqrt):
        assert main(["weld", "--driver", str(driver), "--out", str(driver) + ".csv"]) == 0
    out = str(tmp_path / "out.json")
    for driver, stage, integral, flags in (
            (linear, "analyze", "the wp cross integral", []),
            (linear, "analyze", "the seminorm", ["--agree-tol", "1e-12"]),
            (sqrt, "construct", "psi's J5", [])):
        capsys.readouterr()
        assert main([stage, "--welding", str(driver) + ".csv", "--out", out] + flags) == 4
        err = capsys.readouterr().err
        assert f"quadrature levels of {integral} disagree beyond tolerance" in err
        assert "not resolved at this quadrature level and welding resolution" in err


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
        raise AssertionError("a sweep started on a driver above the work cap")

    for name in ("trace_curve", "extract_welding", "welding_construction", "pair_residuals"):
        monkeypatch.setattr(cli, name, reached)
    # the fewest cells whose sweeps exceed _SWEEP_WORK at any sample count;
    # no stage caps cells at a flow's step budget, so the work cap is what holds
    cells = cli._SWEEP_WORK // cli._SWEEP_CELL_SAMPLES
    assert cells > DEFAULT_FLOW_PARAMS.max_steps
    driver = _write_fine_driver(tmp_path, cells)
    out = tmp_path / "out"
    for argv in (["trace", "--driver", driver, "--out", str(out), "--count", "1"],
                 ["construct", "--welding", closed_form_path, "--driver", driver,
                  "--out", str(out)]):
        assert main(argv) == 2
        assert not out.exists()
    # analyze runs no sweep, so the driver's own functionals still take it
    assert main(["analyze", "--welding", closed_form_path, "--driver", driver,
                 "--out", str(out), "--quad-level", "64", "--window-samples", "64",
                 "--qs-positions", "16"]) == 0


@pytest.mark.parametrize("stage", ["trace", "weld", "analyze"])
@pytest.mark.parametrize("grid, sigma", [([0.0, 0.5, 1.0], [0.0, 1e308, -1e308]),
                                         ([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0])],
                         ids=["increment", "slope"])
def test_driver_whose_cells_overflow_exits_2_at_load(tmp_path, closed_form_path,
                                                     monkeypatch, stage, grid, sigma):
    def reached(*args, **kwargs):
        raise AssertionError("a sweep started on a driver with a non-finite slope")

    for name in ("_tip_pieces", "trace_curve", "extract_welding", "loewner_energy",
                 "lip_half_norm"):
        monkeypatch.setattr(cli, name, reached)
    driver = tmp_path / "overflow.json"
    driver.write_text(json.dumps({"T": grid[-1], "grid": grid, "sigma": sigma}))
    out = tmp_path / "out"
    argv = {"trace": ["trace", "--driver", str(driver), "--out", str(out)],
            "weld": ["weld", "--driver", str(driver), "--out", str(out)],
            "analyze": ["analyze", "--welding", closed_form_path, "--driver", str(driver),
                        "--out", str(out)]}[stage]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert not out.exists()


def _write_fine_driver(tmp_path, cells: int) -> str:
    driver = tmp_path / "fine.json"
    driver.write_text(json.dumps({"T": 1.0, "grid": np.linspace(0.0, 1.0, cells + 1).tolist(),
                                  "sigma": [0.0] * (cells + 1)}))
    return str(driver)


def test_weld_takes_a_driver_finer_than_a_flow_can_cross(tmp_path, closed_form_path):
    # the welded angles, the trace tips and construct's pair residuals come
    # from exact cell maps, not from flow steps, so no stage caps the cells
    # at the 4096 steps a flow may take
    driver = _write_fine_driver(tmp_path, 4097)
    out = tmp_path / "out.csv"
    assert main(["weld", "--driver", driver, "--out", str(out), "--samples", "8"]) == 0
    w = load_welding_csv(str(out))
    want = oracles.radial_theta_of_time(1.0)
    assert abs(w.theta_plus[-1] - want) < 1e-13 and abs(w.theta_minus[-1] + want) < 1e-13
    trace = tmp_path / "t.csv"
    assert main(["trace", "--driver", driver, "--out", str(trace), "--count", "8"]) == 0
    _, (_, x, y, _) = load_csv_columns(str(trace))
    assert abs(x[-1] - oracles.radial_tip(1.0)) < 1e-13 and abs(y[-1]) < 1e-13
    maps = tmp_path / "maps.json"
    assert main(["construct", "--welding", str(out), "--driver", driver,
                 "--out", str(maps), "--quad-level", "16", "--boundary-samples", "16"]) == 0
    comp = json.loads(maps.read_text())["composite"]
    assert comp["pair_residual_count"] == 8 and comp["pair_residual_max"] <= 1e-13
    # analyze runs no flow, so the driver's own functionals take it too
    assert main(["analyze", "--welding", closed_form_path, "--driver", driver,
                 "--out", str(tmp_path / "report.json"), "--quad-level", "64",
                 "--window-samples", "64", "--qs-positions", "16"]) == 0


def test_sweep_work_cap_exits_2_before_compute(tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("an angle sweep started above the work cap")

    for name in ("trace_curve", "extract_welding"):
        monkeypatch.setattr(cli, name, reached)
    cells = 1024
    over = cli._SWEEP_WORK // cells - cli._SWEEP_CELL_SAMPLES + 1
    driver = _write_fine_driver(tmp_path, cells)
    out = tmp_path / "out"
    assert main(["weld", "--driver", driver, "--out", str(out), "--samples", str(over)]) == 2
    assert main(["trace", "--driver", driver, "--out", str(out), "--profile-out",
                 str(tmp_path / "p.csv"), "--profile-samples", str(over)]) == 2
    # the tip sweep has the same bound, over the cells cut to |delta sigma| <= 1
    assert main(["trace", "--driver", _write_fine_driver(tmp_path, 8 * cells),
                 "--out", str(out), "--count", "4096"]) == 2
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, 8.0 * cells]}))
    assert main(["trace", "--driver", str(steep), "--out", str(out), "--count", "4096"]) == 2
    assert not out.exists()


def test_construct_checks_the_driver_before_construction(tmp_path, closed_form_path,
                                                          monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("construction started on a welding its driver rejects")

    monkeypatch.setattr(cli, "welding_construction", reached)
    out = tmp_path / "maps.json"
    other_horizon = _write_fine_driver(tmp_path, 4)
    assert main(["construct", "--welding", closed_form_path, "--driver", other_horizon,
                 "--out", str(out)]) == 2
    assert not out.exists()

    # a welding CSV has no row cap, so its pairs meet the sweep bound here
    monkeypatch.setattr(cli, "pair_residuals", reached)
    cells = 4096
    pairs = cli._SWEEP_WORK // cells - cli._SWEEP_CELL_SAMPLES + 1
    w = oracles.radial_slit_welding(T_SLIT_LOG2, pairs - 1)
    welding = str(tmp_path / "long.csv")
    save_welding_csv(welding, w)
    driver = tmp_path / "const.json"
    driver.write_text(json.dumps({"T": w.T, "grid": np.linspace(0.0, w.T, cells + 1).tolist(),
                                  "sigma": [0.0] * (cells + 1)}))
    assert main(["construct", "--welding", welding, "--driver", str(driver),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_trace_count_cap_on_the_linear_driver(tmp_path):
    # all 4096 tips are born in the driver's one cell and move as one array
    driver = tmp_path / "linear.json"
    driver.write_text(json.dumps({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, 0.4]}))
    out = tmp_path / "trace.csv"
    assert main(["trace", "--driver", str(driver), "--out", str(out),
                 "--count", str(_COUNT_MAXIMUMS["trace_count"])]) == 0
    assert len(out.read_text().splitlines()) == _COUNT_MAXIMUMS["trace_count"] + 1


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
                 "--boundary-samples", "16"]) == 0
    assert len(built) == 1
