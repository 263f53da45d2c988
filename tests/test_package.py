"""Rules that hold for every module of the package."""

import ast
from pathlib import Path

import crsense


def test_no_assert_statements():
    # input checks raise ValueError: python -O strips an assert, and with it
    # the check
    package = Path(crsense.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
