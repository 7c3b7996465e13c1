"""SVG rendering: structure, determinism, aspect handling."""

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from slitweld.errors import ValidationError
from slitweld.svgplot import LineSeries, render_svg, save_svg


def _series():
    t = np.linspace(0.0, 1.0, 40)
    return [LineSeries(t, np.sin(2.0 * math.pi * t), "sine"),
            LineSeries(t, t * t, "square")]


def test_line_series_validation():
    with pytest.raises(ValidationError):
        LineSeries([0.0], [1.0])
    with pytest.raises(ValidationError):
        LineSeries([0.0, 1.0], [1.0, np.inf])
    with pytest.raises(ValidationError):
        LineSeries([[0.0, 1.0]], [[1.0, 2.0]])


def test_render_svg_structure():
    text = render_svg(_series(), title="demo", xlabel="t", ylabel="v")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f"{ns}polyline")
    assert len(polys) == 2
    assert polys[0].get("stroke") != polys[1].get("stroke")
    texts = [el.text for el in root.findall(f"{ns}text")]
    for wanted in ("demo", "t", "v", "sine", "square"):
        assert wanted in texts
    with pytest.raises(ValidationError):
        render_svg([])


def test_render_svg_deterministic(tmp_path):
    s = _series()
    assert render_svg(s, title="x") == render_svg(s, title="x")
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    save_svg(p1, s, title="x")
    save_svg(p2, s, title="x")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_equal_aspect_pixels_per_unit():
    # a quarter circle: under equal aspect one data unit spans the same
    # number of pixels horizontally and vertically
    t = np.linspace(0.0, 0.5 * math.pi, 50)
    s = [LineSeries(np.cos(t), np.sin(t))]
    text = render_svg(s, equal_aspect=True)
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    pts = root.find(f"{ns}polyline").get("points").split()
    xy = np.array([[float(a) for a in p.split(",")] for p in pts])
    # chord lengths of a circle are equal in data space; compare in pixels
    seg = np.diff(xy, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    assert lens.max() - lens.min() < 0.1 * lens.mean() + 0.1


def test_degenerate_range_padding():
    s = [LineSeries([0.0, 1.0], [2.0, 2.0])]      # flat line
    text = render_svg(s)
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    pts = root.find(f"{ns}polyline").get("points")
    ys = {p.split(",")[1] for p in pts.split()}
    assert len(ys) == 1                            # rendered, horizontal
