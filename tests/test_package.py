"""Rules that hold for every module of the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import crsense

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    # input checks raise ValueError: python -O strips an assert, and with it
    # the check
    package = Path(crsense.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_private_names_imported_across_modules():
    # an underscore name belongs to its module: one that another module
    # needs is made public, so each rule keeps one owner
    package = Path(crsense.__file__).parent
    found = [f"{path.name}:{node.lineno} {alias.name}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "crsense")
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_bench_trace_points_resolve():
    # the benchmark's tracer patches these names from outside the package;
    # one that no longer resolves breaks only its slow traced run
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, attr) for module, attr in spans.WRAPPED]
    targets += [tuple(name.split(".")) for name, _ in spans.API_WRAPPED.values()]
    missing = [f"crsense.{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(f"crsense.{module}"), attr)]
    assert targets and missing == []
