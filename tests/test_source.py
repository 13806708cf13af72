"""Checks on the package source itself."""

import ast
from pathlib import Path

import sal

SOURCES = sorted(Path(sal.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so no runtime check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
