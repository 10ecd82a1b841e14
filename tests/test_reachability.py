"""Every module-level function and class in the package is reached from
the package itself.

A read is resolved through the reading module's imports before it counts.
It reaches a name in three places only: inside the defining module (outside
the name's own definition), as a name imported with `from .mod import
name`, or as an attribute of a module alias imported with `from . import
mod`, for example `delsarte.parse_surface`. Any other attribute read, such
as `self.signature` or `lattice.signature`, reaches nothing, so a method
or field of the same name cannot hide an unreached module function.

A helper that only the tests call belongs in the tests, as a reference
(characters_reference.py, field_reference.py and zeta_reference.py hold
such helpers). Names that only a caller outside the package reads are
listed in ALLOWED, each with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "k3fermat"

ALLOWED = {
    ("kernels", "backend_name"): "perfbench/worker.py reports the kernel backend",
    ("intmat", "det"): "perfbench/tracer.py wraps it; the tests use it as the integer determinant",
    ("intmat", "signature"):
        "perfbench/tracer.py wraps it; the tests use it as the signature of a symmetric matrix",
    ("cyclotomic", "orbit_product"):
        "perfbench/tracer.py wraps it; the tests use it as the orbit product of any value multiset",
    ("delsarte", "transcendental_characters"):
        "perfbench/tracer.py wraps it; the tests use it as the characters of a map not yet checked",
}


def package_sources():
    """{module name: source text} over every module of the package."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def definitions_and_reads(sources):
    """([(module, name, first line, last line)],
    [((defining module, name), reading module, line)]) over the modules in
    sources, each read resolved through the reading module's imports."""
    defined, reads = [], []
    for module, source in sources.items():
        tree = ast.parse(source, filename=f"{module}.py")
        imported, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:  # from . import mod
                        aliases[local] = alias.name
                    else:  # from .mod import name
                        imported[local] = (node.module, alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((imported.get(node.id, (module, node.id)), module, node.lineno))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                reads.append(((aliases[node.value.id], node.attr), module, node.lineno))
    return defined, reads


def unreached(sources):
    defined, reads = definitions_and_reads(sources)
    return sorted(
        (module, name) for module, name, first, last in defined
        if not any(target == (module, name) and not (where == module and first <= line <= last)
                   for target, where, line in reads))


def test_every_definition_in_the_package_is_reached_from_it():
    assert [key for key in unreached(package_sources()) if key not in ALLOWED] == []


def test_every_allowed_name_is_defined_and_unreached():
    # an entry whose name gained a caller in the package, or left it, goes
    assert sorted(ALLOWED) == [key for key in unreached(package_sources()) if key in ALLOWED]


def test_a_read_reaches_a_name_only_through_its_import():
    # a.signature is read only as an attribute of some other object, which
    # reaches nothing; a.det is reached under its import alias, a.rank
    # through the module alias, a.norm from inside a itself, and b.caller
    # by no one
    sources = {
        "a": "def signature(m):\n    return m\n\n"
             "def det(m):\n    return m\n\n"
             "def rank(m):\n    return m\n\n"
             "def norm(m):\n    return det(m)\n\n"
             "HOOK = norm\n",
        "b": "from . import a\nfrom .a import det as determinant\n\n"
             "def caller(lattice):\n"
             "    return lattice.signature, a.rank(lattice), determinant(lattice)\n",
    }
    assert unreached(sources) == [("a", "signature"), ("b", "caller")]
