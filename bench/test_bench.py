"""Tests of the benchmark's own pieces: the closed form and the tracer.

    python3 -m pytest bench -q

The closed form is checked against direct quadrature with numpy, never
against slitweld, because it is what scores slitweld.
"""

from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import closedform  # noqa: E402
from tracer import Tracer  # noqa: E402


def _quadrature_tau(u0: float, c: float, nodes: int = 200) -> float:
    """Integral of du / (cot(u/2) + c) over [0, u0] by Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * u0 * (x + 1.0)
    return float(0.5 * u0 * np.sum(w / (1.0 / np.tan(0.5 * u) + c)))


@pytest.mark.parametrize("c", [-0.6, -0.2, 0.0, 0.3, 0.6])
def test_hitting_time_matches_quadrature(c):
    top = math.pi + 2.0 * math.atan(c)
    for u0 in (1e-3, 0.3, 0.5 * top, 0.9 * top):
        assert closedform.hitting_time(u0, c) == pytest.approx(_quadrature_tau(u0, c),
                                                                rel=1e-11, abs=1e-15)


@pytest.mark.parametrize("c", [-0.5, 0.2, 0.4, 0.6])
def test_plus_angle_inverts_hitting_time(c):
    t = np.array([0.0, 1e-4, 0.1, 0.5, 1.0, 3.0])
    u = closedform.plus_angle(t, c)
    assert np.all(np.diff(u) > 0.0)
    np.testing.assert_allclose(closedform.hitting_time(u, c), t, rtol=1e-12, atol=1e-15)


def test_zero_slope_is_the_radial_slit():
    # sigma = 0 absorbs theta at tau = -2 log cos(theta / 2) on both sides
    times, plus, minus = closedform.welding(0.0, 16)
    np.testing.assert_allclose(plus, 2.0 * np.arccos(np.exp(-0.5 * times)), atol=1e-14)
    np.testing.assert_array_equal(minus, -plus)


def test_welding_csv_rows():
    lines = closedform.welding_csv(0.4, 8).splitlines()
    assert lines[0] == "t,theta_plus,theta_minus"
    assert lines[1] == "0,0,0"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (9, 3) and rows[-1, 0] == 1.0
    assert np.all(np.diff(rows[:, 1]) > 0.0) and np.all(np.diff(rows[:, 2]) < 0.0)
    # the plus side runs ahead of the minus side when the driver moves up
    assert rows[-1, 1] > -rows[-1, 2]


def test_tracer_wraps_every_binding_and_restores():
    import slitweld.cli as cli
    import slitweld.loewner as loewner
    import slitweld.welding as welding

    originals = (cli.run_command, cli.extract_welding, welding.slit_preimage_endpoints,
                 loewner.DrivingTerm.sigma_at)
    tr = Tracer()
    with tr.installed():
        assert cli.extract_welding is not originals[1]
        assert welding.slit_preimage_endpoints is not originals[2]
        assert cli.extract_welding.__wrapped__ is originals[1]
        with redirect_stdout(io.StringIO()):
            assert cli.run_command(["selftest"]) == 0
    assert (cli.run_command, cli.extract_welding, welding.slit_preimage_endpoints,
            loewner.DrivingTerm.sigma_at) == originals

    names = {s["name"] for s in tr.spans}
    assert {"cli.run_command", "loewner.upward_flow", "loewner.boundary_flow",
            "regularity.h_half_seminorm"} <= names
    assert tr.flows > 0 and tr.driver_evals > 0
    root = tr.spans[0]
    assert root["name"] == "cli.run_command" and root["parent"] is None
    assert all(s["parent"] is not None for s in tr.spans[1:])
    assert root["flows"] == tr.flows and root["driver_evals"] == tr.driver_evals
    self_t = tr.self_times()
    assert sum(self_t.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert tr.outermost_time(["cli.run_command"]) == root["end"] - root["start"]
