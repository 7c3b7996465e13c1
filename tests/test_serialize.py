"""File formats: driver JSON, welding/trace/profile CSV, float formatting."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from slitweld.errors import ValidationError
from slitweld.serialize import (
    PROFILE_HEADER,
    TRACE_HEADER,
    WELDING_HEADER,
    format_float,
    json_dumps,
    load_csv_columns,
    load_driver,
    load_welding_csv,
    remove_if_exists,
    save_profile_csv,
    save_trace_csv,
    save_welding_csv,
    write_text,
)
from slitweld.welding import Welding


def test_format_float_17_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert format_float(0.0) == "0"
    assert format_float(math.pi) == "3.1415926535897931"
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"
    # round trip is exact at 17 significant digits
    for x in (1.0 / 3.0, 2.0 ** -52, 1e300, -1.2345678901234567e-8):
        assert float(format_float(x)) == x


def test_json_dumps_layout_and_types():
    doc = {
        "b_first": 1,
        "a_second": [1.5, None, True, False],
        "z": {"re_im": 0.25 + 0.5j},
        "arr": np.array([1.0, 2.0]),
        "empty_list": [],
        "empty_map": {},
    }
    text = json_dumps(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    # insertion order is preserved, not sorted
    assert list(parsed.keys()) == ["b_first", "a_second", "z", "arr",
                                   "empty_list", "empty_map"]
    assert parsed["z"]["re_im"] == {"re": 0.25, "im": 0.5}
    assert parsed["arr"] == [1.0, 2.0]
    assert parsed["a_second"] == [1.5, None, True, False]
    with pytest.raises(ValidationError):
        json_dumps({"bad": object()})


def test_json_dumps_deterministic():
    doc = {"x": [math.pi, 2.0 / 3.0], "y": {"k": 1e-17}}
    assert json_dumps(doc) == json_dumps(doc)


def test_load_driver_roundtrip(tmp_path):
    path = str(tmp_path / "driver.json")
    doc = {"T": 0.5, "grid": [0.0, 0.25, 0.5], "sigma": [0.0, 0.1, -0.05]}
    write_text(path, json_dumps(doc))
    d = load_driver(path)
    assert d.T == 0.5
    assert np.array_equal(d.grid, [0.0, 0.25, 0.5])
    assert np.array_equal(d.sigma, [0.0, 0.1, -0.05])


@pytest.mark.parametrize("doc,snippet", [
    ({"grid": [0.0, 1.0], "sigma": [0.0, 0.1]}, "'T' must be a number"),
    ({"T": True, "grid": [0.0, 1.0], "sigma": [0.0, 0.1]}, "'T' must be a number"),
    ({"T": 1.0, "sigma": [0.0, 0.1]}, "'grid' is missing"),
    ({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, "x"]}, "index 1 is not a finite number"),
    ({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0]}, "differ in length"),
    ({"T": 1.0, "grid": [0.1, 1.0], "sigma": [0.0, 0.1]}, "index 0 must be 0"),
    ({"T": 1.0, "grid": [0.0, 0.5, 0.5, 1.0], "sigma": [0.0, 0.1, 0.2, 0.3]},
     "not strictly increasing at index 2"),
    ({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.2, 0.1]}, "xi(0) = 1"),
    ({"T": 2.0, "grid": [0.0, 1.0], "sigma": [0.0, 0.1]}, "final grid node"),
    ({"T": math.nan, "grid": [0.0, 1.0], "sigma": [0.0, 0.1]}, "'T' must be finite"),
    ({"T": math.inf, "grid": [0.0, 1.0], "sigma": [0.0, 0.1]}, "'T' must be finite"),
])
def test_load_driver_schema_errors(tmp_path, doc, snippet):
    path = str(tmp_path / "bad.json")
    write_text(path, json.dumps(doc))
    with pytest.raises(ValidationError, match="driver"):
        try:
            load_driver(path)
        except ValidationError as exc:
            assert snippet in str(exc)
            raise


def test_load_driver_bad_json_and_missing_file(tmp_path):
    path = str(tmp_path / "broken.json")
    write_text(path, "{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_driver(path)
    with pytest.raises(ValidationError, match="cannot read"):
        load_driver(str(tmp_path / "absent.json"))
    write_text(path, "[1, 2]")
    with pytest.raises(ValidationError, match="JSON object"):
        load_driver(path)


def test_welding_csv_roundtrip(tmp_path):
    w = Welding([0.0, 0.5, 1.0], [0.0, 0.3, 0.7], [0.0, -0.2, -0.5])
    path = str(tmp_path / "weld.csv")
    save_welding_csv(path, w)
    text = Path(path).read_text(encoding="utf-8")
    assert text.splitlines()[0] == WELDING_HEADER
    back = load_welding_csv(path)
    assert np.array_equal(back.times, w.times)
    assert np.array_equal(back.theta_plus, w.theta_plus)
    assert np.array_equal(back.theta_minus, w.theta_minus)
    # identical content writes identical bytes
    path2 = str(tmp_path / "weld2.csv")
    save_welding_csv(path2, w)
    assert Path(path2).read_bytes() == Path(path).read_bytes()


def test_load_welding_csv_rejects_malformed(tmp_path):
    path = str(tmp_path / "w.csv")
    write_text(path, "time,plus,minus\n0,0,0\n")
    with pytest.raises(ValidationError, match="header"):
        load_welding_csv(path)
    write_text(path, WELDING_HEADER + "\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_welding_csv(path)
    write_text(path, WELDING_HEADER + "\n0,0\n")
    with pytest.raises(ValidationError, match="line 2 must have 3 columns"):
        load_welding_csv(path)
    write_text(path, WELDING_HEADER + "\n0,0,zero\n")
    with pytest.raises(ValidationError, match="non-numeric"):
        load_welding_csv(path)
    # structurally sound csv still goes through welding validation
    write_text(path, WELDING_HEADER + "\n0,0,0\n1,-0.1,-0.2\n")
    with pytest.raises(ValidationError):
        load_welding_csv(path)


def test_trace_and_profile_csv(tmp_path):
    tr = str(tmp_path / "trace.csv")
    save_trace_csv(tr, [0.5, 1.0], [0.3 + 0.1j, 0.2 - 0.05j], [1e-7, 2e-7])
    names, cols = load_csv_columns(tr)
    assert names == TRACE_HEADER.split(",")
    assert np.allclose(cols[1], [0.3, 0.2])
    assert np.allclose(cols[2], [0.1, -0.05])

    pr = str(tmp_path / "profile.csv")
    save_profile_csv(pr, [0.2, -0.2], [0.01, 0.01], ["plus", "minus"])
    names, cols = load_csv_columns(pr)
    assert names == PROFILE_HEADER.split(",")
    # the side column is textual, parsed as nan placeholders
    assert np.all(np.isnan(cols[2]))


def test_load_csv_columns_validation(tmp_path):
    path = str(tmp_path / "c.csv")
    write_text(path, "a,b\n")
    with pytest.raises(ValidationError, match="at least one data row"):
        load_csv_columns(path)
    write_text(path, "a,b\n1,2,3\n")
    with pytest.raises(ValidationError, match="expected 2"):
        load_csv_columns(path)


def test_remove_if_exists(tmp_path):
    path = str(tmp_path / "x.txt")
    write_text(path, "data")
    remove_if_exists(path)
    assert not (tmp_path / "x.txt").exists()
    remove_if_exists(path)     # absent path is not an error
