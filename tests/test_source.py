"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinr"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no check may rest on one;
    # doctests live in docstrings and are not statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.rglob("*.py"))
    assert found == []
