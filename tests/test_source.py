"""Checks on the library source itself."""

import ast
from pathlib import Path

import twistdual

SOURCES = sorted(Path(twistdual.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "rootdata.py", "characters.py"}


def test_no_assert_statements():
    # `python -O` strips assert statements, so a guard on a result must raise
    found = [f"{p.name}:{node.lineno}"
             for p in SOURCES
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []
