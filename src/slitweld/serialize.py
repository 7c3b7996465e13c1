"""Deterministic JSON and CSV readers/writers for drivers, weldings, and reports.

All floats are emitted with 17 significant digits so outputs round-trip
losslessly and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ValidationError
from .loewner import DrivingTerm
from .welding import Welding

__all__ = [
    "format_float",
    "json_dumps",
    "load_driver",
    "save_welding_csv",
    "load_welding_csv",
    "save_trace_csv",
    "save_profile_csv",
    "load_csv_columns",
    "write_text",
    "remove_if_exists",
]

WELDING_HEADER = "t,theta_plus,theta_minus"
TRACE_HEADER = "t,x,y,residual"
PROFILE_HEADER = "theta,tau,side"


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _json_value(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return _json_value({"re": obj.real, "im": obj.imag}, indent, level)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_value(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(str(k))}: {_json_value(v, indent, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize with insertion-ordered keys and fixed float formatting."""
    return _json_value(obj, indent, 0) + "\n"


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _require_number_list(data: dict, name: str):
    if name not in data:
        raise ValidationError(f"driver field '{name}' is missing")
    val = data[name]
    if not isinstance(val, list) or not val:
        raise ValidationError(f"driver field '{name}' must be a non-empty list")
    for i, x in enumerate(val):
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
            raise ValidationError(f"driver field '{name}' index {i} is not a finite number")
    return [float(x) for x in val]


def load_driver(path: str) -> DrivingTerm:
    """Read and validate a driver file {"T": ..., "grid": [...], "sigma": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read driver file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"driver file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("driver file must contain a JSON object")
    grid = _require_number_list(data, "grid")
    sigma = _require_number_list(data, "sigma")
    if "T" not in data or isinstance(data["T"], bool) or not isinstance(data["T"], (int, float)):
        raise ValidationError("driver field 'T' must be a number")
    T = float(data["T"])
    if not math.isfinite(T):
        raise ValidationError("driver field 'T' must be finite")
    if len(grid) != len(sigma):
        raise ValidationError(
            f"driver fields 'grid' ({len(grid)}) and 'sigma' ({len(sigma)}) differ in length")
    d = DrivingTerm(grid, sigma)
    if abs(T - d.T) > 1e-12 * max(1.0, abs(T)):
        raise ValidationError("driver field 'T' must equal the final grid node")
    return d


def save_welding_csv(path: str, w: Welding):
    lines = [WELDING_HEADER]
    for t, tp, tm in zip(w.times, w.theta_plus, w.theta_minus):
        lines.append(f"{format_float(t)},{format_float(tp)},{format_float(tm)}")
    write_text(path, "\n".join(lines) + "\n")


def load_welding_csv(path: str) -> Welding:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read welding file: {exc}") from exc
    if not lines or lines[0] != WELDING_HEADER:
        raise ValidationError(f"welding file must start with header '{WELDING_HEADER}'")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValidationError(f"welding file line {i} must have 3 columns")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ValidationError(f"welding file line {i} has a non-numeric entry") from exc
    if not rows:
        raise ValidationError("welding file has a header but no data rows")
    arr = np.array(rows)
    return Welding(arr[:, 0], arr[:, 1], arr[:, 2])


def save_trace_csv(path: str, times, points, residuals):
    lines = [TRACE_HEADER]
    for t, z, r in zip(times, points, residuals):
        lines.append(",".join(format_float(v) for v in (t, z.real, z.imag, r)))
    write_text(path, "\n".join(lines) + "\n")


def save_profile_csv(path: str, angles, taus, sides):
    lines = [PROFILE_HEADER]
    for th, tau, side in zip(angles, taus, sides):
        lines.append(f"{format_float(th)},{format_float(tau)},{side}")
    write_text(path, "\n".join(lines) + "\n")


def load_csv_columns(path: str):
    """Header names and float-parsed columns (non-numeric cells become nan)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}") from exc
    if len(lines) < 2:
        raise ValidationError("csv file needs a header and at least one data row")
    names = lines[0].split(",")
    cols = [[] for _ in names]
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValidationError(f"csv line {i} has {len(parts)} columns, expected {len(names)}")
        for c, p in zip(cols, parts):
            try:
                c.append(float(p))
            except ValueError:
                c.append(math.nan)
    return names, [np.array(c) for c in cols]


def remove_if_exists(path: str):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
