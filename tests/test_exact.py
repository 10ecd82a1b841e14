"""The package computes with integers, Fractions and cyclotomic integers only:
no source file may contain a float literal or a float(...) call."""

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


def test_scan_finds_both_kinds():
    assert (SRC / "jacobi_zeta.py").is_file()
    source = "bound = int(2 * p ** 0.5) + 2\nx = float(n)\ny = n // 2\n"
    assert sorted(line for line, _ in float_sites(source)) == [1, 2]
