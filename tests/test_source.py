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


def _names(path):
    """Every identifier a module's source mentions: names, attributes and
    imported names, with their line numbers."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_trusted_matrix_stays_in_lattice():
    # `_trusted_matrix` stores rows without checking them: only lattice's
    # own integer arithmetic may build a matrix that way
    uses = {p.name: [line for name, line in _names(p) if name == "_trusted_matrix"]
            for p in SOURCES}
    assert uses["lattice.py"]
    assert {name: lines for name, lines in uses.items()
            if lines and name != "lattice.py"} == {}
