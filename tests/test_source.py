"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import knotobstruct

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "knotobstruct").glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    """Float literals, the name `float` and imports of `math`, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}"
                      for a in node.names if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.append(f"line {node.lineno}: from math import")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    # all arithmetic is exact: int, Fraction and LaurentPoly
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


def assert_lines(tree: ast.AST) -> list[int]:
    """Lines of assert statements, which python -O strips."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_asserts(path):
    # a check that must hold raises a KnotObstructError instead
    assert assert_lines(ast.parse(path.read_text(), str(path))) == []


def test_asserts_are_found():
    assert assert_lines(ast.parse("x = 1\nassert x\nif x:\n    assert not x, 'no'\n")) == [2, 4]


def test_float_uses_are_found():
    assert SOURCES
    tree = ast.parse("import math\nfrom math import sqrt\nx = float(1) + 0.5\n")
    assert len(float_uses(tree)) == 4


def private_terms_lines(tree: ast.AST) -> list[int]:
    """Lines that read or write an attribute named `_terms`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_terms"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "laurent.py"],
                         ids=lambda p: p.name)
def test_terms_map_stays_in_laurent(path):
    # LaurentPoly's map holds no zero coefficients, which makes map equality
    # polynomial equality; only laurent.py may build or touch it
    assert private_terms_lines(ast.parse(path.read_text(), str(path))) == []


def test_private_terms_are_found():
    tree = ast.parse("p._terms = {}\nx = p.terms\ny = q._terms[0]\n_terms = 1\n")
    assert private_terms_lines(tree) == [1, 3]


def unused_imports(tree: ast.AST) -> list[str]:
    """Names an import binds that the module never reads, by line;
    `from __future__` imports are directives, not names."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {(a.asname or a.name): node.lineno for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imports_are_used(path):
    # a leftover import outlives the code that needed it; __init__.py
    # imports to re-export
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import re as regex\nfrom typing import Iterable, Union\n"
                     "x: Union[int, str] = regex.compile('x')\n")
    assert unused_imports(tree) == ["line 2: os", "line 4: Iterable"]


def json_dump_lines(tree: ast.AST) -> list[int]:
    """Lines that read an attribute named dump or dumps (json.dumps, under
    any module name) or import either name from json."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                  or isinstance(node, ast.ImportFrom) and node.module == "json"
                  and any(a.name in ("dump", "dumps") for a in node.names))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_json_writer(path):
    # obstruction.json_text writes every JSON document the program prints
    assert json_dump_lines(ast.parse(path.read_text(), str(path))) == []


def test_json_dumps_are_found():
    tree = ast.parse("import json\nx = json.dumps(1)\nfrom json import dumps as d\n"
                     "y = json.loads(d(2))\nimport json as j\nj.dump(x, f)\n")
    assert json_dump_lines(tree) == [2, 3, 6]


def test_exports_are_the_imports():
    # a deletion must not leave a stale export, nor a name imported but not exported
    init = SOURCES[0].parent / "__init__.py"
    tree = ast.parse(init.read_text(), str(init))
    imported = [a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(imported) == sorted(knotobstruct.__all__)
