"""The package computes with integers and cyclotomic integers only: no
source file may contain a float literal or a float(...) call, nor import
fractions or decimal. Rationals are (numerator, denominator) pairs or
numerators over a known denominator. Nor may a source file import json:
the CLI writes its reports itself, so no command pays for that import. Nor
typing: the records are plain classes, so start-up builds no NamedTuple."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "k3fermat"


def float_sites(source):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...) call"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    sites = [f"{path.name}:{line}: {what}" for line, what in float_sites(path.read_text())]
    assert not sites, "\n".join(sites)


FORBIDDEN_MODULES = {"fractions", "decimal", "json", "typing"}


def forbidden_imports(source):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] in FORBIDDEN_MODULES:
                yield node.lineno, name


def test_no_module_imports_a_forbidden_module():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    sites = [f"{p.name}:{line}: imports {name}"
             for p in sources for line, name in forbidden_imports(p.read_text())]
    assert sites == []


def test_import_scan_finds_every_form():
    source = ("from fractions import Fraction\nimport decimal as d\n"
              "import os, fractions\nfrom . import fractions_table\nimport numbers\n"
              "import json\nfrom json import dumps\nimport json.encoder as enc\n"
              "from . import json_report\nimport jsonschema\n"
              "from typing import NamedTuple\nimport typing_extensions\n")
    assert list(forbidden_imports(source)) == [
        (1, "fractions"), (2, "decimal"), (3, "fractions"),
        (6, "json"), (7, "json"), (8, "json.encoder"), (11, "typing")]


def test_scan_finds_both_kinds():
    assert (SRC / "jacobi_zeta.py").is_file()
    source = "bound = int(2 * p ** 0.5) + 2\nx = float(n)\ny = n // 2\n"
    assert sorted(line for line, _ in float_sites(source)) == [1, 2]
