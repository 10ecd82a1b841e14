"""Every module-level function and class in the package is reached from
the package itself.

A name counts as reached when some ast.Name or ast.Attribute in src/k3fermat
reads it outside its own definition. A helper that only the tests call
belongs in the tests, as a reference (characters_reference.py and
zeta_reference.py hold such helpers). Names that only a caller outside the
package reads are listed in ALLOWED, each with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "k3fermat"

ALLOWED = {
    ("kernels", "backend_name"): "perfbench/worker.py reports the kernel backend",
    ("intmat", "det"): "perfbench/tracer.py wraps it; the tests use it as the integer determinant",
    ("cyclotomic", "orbit_product"):
        "perfbench/tracer.py wraps it; the tests use it as the orbit product of any value multiset",
    ("field", "QuadExtField"):
        "the tests count over F_{p^2} with it; its removal goes with the every-t count loop",
}


def definitions_and_reads():
    """([(module, name, first line, last line)], [(module, name read, line)])
    over every module of the package."""
    defined, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((path.stem, node.attr, node.lineno))
    return defined, reads


def unreached():
    defined, reads = definitions_and_reads()
    return sorted(
        (module, name) for module, name, first, last in defined
        if not any(read == name and not (where == module and first <= line <= last)
                   for where, read, line in reads))


def test_every_definition_in_the_package_is_reached_from_it():
    assert [key for key in unreached() if key not in ALLOWED] == []


def test_every_allowed_name_is_defined_and_unreached():
    # an entry whose name gained a caller in the package, or left it, goes
    assert sorted(ALLOWED) == [key for key in unreached() if key in ALLOWED]
