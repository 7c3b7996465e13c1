"""File formats: driver JSON, welding/trace CSV, float formatting."""

import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from slitweld import serialize

from slitweld.errors import ValidationError
from slitweld.serialize import (
    TRACE_HEADER,
    WELDING_HEADER,
    format_float,
    json_dumps,
    load_csv_columns,
    load_driver,
    load_welding_csv,
    remove_if_exists,
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


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.lists(_FLOATS, max_size=4),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=_JSON_DOCS)
@example(doc=[1.5, math.nan, -0.0])
@example(doc={"inf": [math.inf, 1.0], "ninf": (2.0, -math.inf), "bool": [0.5, True], "int": [1.0, 2]})
def test_json_dumps_matches_the_per_value_reference(doc):
    # rows of finite floats take one template; any other list, one holding
    # a nan, an infinity, a bool or an int included, goes value by value
    assert json_dumps(doc) == oracles.reference_json_dumps(doc)


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
    # integers beyond the float range
    ({"T": 10**400, "grid": [0.0, 1.0], "sigma": [0.0, 0.1]}, "'T' must be finite"),
    ({"T": 1.0, "grid": [0.0, 10**400], "sigma": [0.0, 0.1]},
     "'grid' index 1 is not a finite number"),
    ({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0, -10**400]},
     "'sigma' index 1 is not a finite number"),
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


_STEPS = st.floats(1e-6, 0.1, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
    st.lists(_STEPS, min_size=n, max_size=n),
    st.lists(_STEPS, min_size=n, max_size=n))))
def test_welding_csv_roundtrip_property(tmp_path_factory, steps):
    # any valid welding: increasing times and plus angles, decreasing minus
    # angles, both arcs together at most 6 < 2 pi long
    dt, dp, dm = (np.concatenate(([0.0], np.cumsum(s))) for s in steps)
    w = Welding(dt, dp, -dm)
    folder = tmp_path_factory.mktemp("csv")
    first, second = str(folder / "a.csv"), str(folder / "b.csv")
    save_welding_csv(first, w)
    save_welding_csv(second, w)
    assert Path(first).read_bytes() == Path(second).read_bytes()
    back = load_welding_csv(first)
    for got, want in ((back.times, w.times), (back.theta_plus, w.theta_plus),
                      (back.theta_minus, w.theta_minus)):
        assert got.tobytes() == want.tobytes()


def test_write_text_failure_leaves_no_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    # the text fails to encode partway; a plain open and write would leave an
    # empty file behind
    with pytest.raises(UnicodeEncodeError):
        write_text(str(target), "0" * 100000 + "\ud800")
    assert list(tmp_path.iterdir()) == []

    # an earlier complete file survives a failed rewrite unchanged
    write_text(str(target), "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text(str(target), "new\ud800")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text(encoding="utf-8") == "old\n"

    # interrupted after the data is written, before it is moved into place
    target.unlink()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(serialize.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_text(str(target), "complete\n")
    assert list(tmp_path.iterdir()) == []


def test_write_text_never_clobbers_an_existing_temp_name(tmp_path):
    target = tmp_path / "out.csv"
    stale = Path(f"{target}.{os.getpid()}.tmp")
    stale.write_text("someone else's\n")
    with pytest.raises(FileExistsError):
        write_text(str(target), "data\n")
    assert stale.read_text() == "someone else's\n" and not target.exists()


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


def test_trace_csv(tmp_path):
    tr = str(tmp_path / "trace.csv")
    save_trace_csv(tr, [0.5, 1.0], [0.3 + 0.1j, 0.2 - 0.05j], [1e-7, 2e-7])
    names, cols = load_csv_columns(tr)
    assert names == TRACE_HEADER.split(",")
    assert np.allclose(cols[1], [0.3, 0.2])
    assert np.allclose(cols[2], [0.1, -0.05])


def test_nan_and_inf_are_spelled_alike_in_csv_rows_and_json_lists(tmp_path):
    # a row or list with a non-finite value falls back to format_float value
    # by value; the finite row after it keeps the template
    nan, inf = math.nan, math.inf
    tr = tmp_path / "trace.csv"
    save_trace_csv(str(tr), [0.5, 1.0], [complex(0.25, nan), 0.5 + 0.5j], [inf, 0.125])
    assert tr.read_text() == TRACE_HEADER + "\n0.5,0.25,NaN,Infinity\n1,0.5,0.5,0.125\n"
    # a Welding rejects non-finite angles; the writer reads only its columns
    we = tmp_path / "welding.csv"
    save_welding_csv(str(we), SimpleNamespace(times=np.array([0.0, 0.5]),
                                              theta_plus=np.array([-inf, 0.25]),
                                              theta_minus=np.array([nan, -0.25])))
    assert we.read_text() == WELDING_HEADER + "\n0,-Infinity,NaN\n0.5,0.25,-0.25\n"
    assert json_dumps({"row": [0.5, nan, -inf, inf]}) == (
        '{\n  "row": [\n    0.5,\n    NaN,\n    -Infinity,\n    Infinity\n  ]\n}\n')


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
