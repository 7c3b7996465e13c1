"""Checks of the package's public surface: public names exist, imports are
used, and every public function runs on some pipeline stage.

No linter is required to run the suite, so the first two checks are done here
on the syntax tree of every module in src/slitweld.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from slitweld.cli import run_command

SRC = Path(__file__).resolve().parents[1] / "src" / "slitweld"
MODULES = sorted(SRC.glob("*.py"))

# Public functions that no stage below runs, each with the reason it stays public
STAGE_COVERAGE_ALLOWLIST = {
    "loewner.upward_flow": "run by selftest, which bench/test_bench.py traces",
    "loewner.boundary_flow": "run by selftest, which bench/test_bench.py traces",
    "regularity.h_half_seminorm": "run by selftest, which bench/test_bench.py traces",
    "loewner.slit_preimage_endpoints": "read by bench/test_bench.py",
    "welding.slit_preimage_endpoints": "re-exported for bench/test_bench.py, which reads it there",
    "loewner.downward_flow": "leaves src/ with the DP5(4) layer",
    "cli.main": "the console entry point; the stages run through run_command",
    "serialize.remove_if_exists": "runs only on the failure path of a stage",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
    return names


def _bound_names(node) -> list:
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _all_entries(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def test_modules_found():
    assert {"circle.py", "cli.py", "regularity.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    missing = set(_all_entries(tree)) - _top_level_names(tree)
    assert not missing, f"{path.name}: __all__ lists undefined names {sorted(missing)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py is skipped: its imports are the package's re-exported API
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(_bound_names(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - used - set(_all_entries(tree))
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def _public_functions() -> dict:
    """'module.name' -> function, for every function in a module's __all__."""
    found = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"slitweld.{path.stem}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[f"{path.stem}.{name}"] = inspect.unwrap(obj)
    return found


def test_every_public_function_runs_on_a_stage(tmp_path):
    """Run each stage once on the two-node driver sigma = 0.4 t and list every
    public function that none of them entered."""
    driver = str(tmp_path / "driver.json")
    Path(driver).write_text(json.dumps({"T": 1.0, "grid": [0.0, 1.0], "sigma": [0.0, 0.4]}))
    out = {name: str(tmp_path / name) for name in
           ("trace.csv", "profile.csv", "welding.csv", "report.json", "maps.json", "welding.svg")}
    stages = [
        ["trace", "--driver", driver, "--out", out["trace.csv"], "--count", "8",
         "--profile-out", out["profile.csv"], "--profile-samples", "8"],
        ["weld", "--driver", driver, "--out", out["welding.csv"], "--samples", "32"],
        ["analyze", "--welding", out["welding.csv"], "--driver", driver, "--out",
         out["report.json"], "--quad-level", "16", "--window-samples", "64",
         "--qs-positions", "16", "--keep-going"],
        ["construct", "--welding", out["welding.csv"], "--driver", driver, "--out",
         out["maps.json"], "--quad-level", "16", "--boundary-samples", "16",
         "--agree-tol", "1.0"],
        ["plot", "--input", out["welding.csv"], "--out", out["welding.svg"]],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [run_command(argv) for argv in stages]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(stages)
    public = _public_functions()
    assert set(STAGE_COVERAGE_ALLOWLIST) <= set(public)
    unused = sorted(name for name, fn in public.items()
                    if fn.__code__ not in entered and name not in STAGE_COVERAGE_ALLOWLIST)
    assert not unused, f"public functions that no stage runs: {unused}"
