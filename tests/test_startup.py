"""Start-up imports only what a call reads: no dataclasses (which pulls in
inspect, ast, dis and tokenize), a catalog built without parsing any
equation or building any lattice (neither lattice nor intmat is loaded
until a lattice is first read, and no zeta or count call reads one; the
first reads eliminate only the stated Gram blocks), a frozen set-up heap
once it is built, no argparse (nor the gettext and locale it pulls in)
for a well-formed command line, and no fractions (nor the decimal and
numbers it pulls in) and no json (nor its decoder, encoder, scanner and
_json accelerator) at all: --json reports come from the package's own
writer. Nor typing (nor the re it pulls in), and no collections.namedtuple
call: the records are plain classes. That last probe runs without site
(python -I -S), since site start-up may load typing and re itself.
Structural checks only; timings live in perfbench."""

import ast
import json
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import gc, json, sys
sys.path.insert(0, sys.argv[1])
import k3fermat.catalog, k3fermat.cli, k3fermat.delsarte
parsed = []
k3fermat.delsarte.parse_surface = (
    lambda text, parse=k3fermat.delsarte.parse_surface: parsed.append(text) or parse(text))
k3fermat.cli.load_catalog()
modules = sorted(sys.modules)
built = [k3fermat.catalog._block.cache_info().currsize,
         k3fermat.catalog.recipe_lattice.cache_info().currsize]
import k3fermat.lattice
eliminated = []
k3fermat.lattice.symmetric_invariants = (
    lambda rows, run=k3fermat.lattice.symmetric_invariants: eliminated.append(len(rows)) or run(rows))
at_load = list(eliminated)
for entry in k3fermat.cli.load_catalog():
    entry.s_gram, entry.t_gram
print(json.dumps({"modules": modules, "frozen": gc.get_freeze_count(), "parsed": parsed,
                  "built": built, "at_load": at_load, "eliminated": eliminated}))
"""


def test_cli_start_up_skips_dataclasses_and_freezes_the_heap():
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert "k3fermat.catalog" in doc["modules"]
    assert "dataclasses" not in doc["modules"]
    assert "inspect" not in doc["modules"]
    assert doc["frozen"] > 0
    # each entry's model is read off its equation on first use, not at build
    assert doc["parsed"] == []
    # and each lattice is assembled on first read: the set-up loads no
    # lattice code, builds no block or lattice and eliminates nothing
    assert "k3fermat.lattice" not in doc["modules"]
    assert "k3fermat.intmat" not in doc["modules"]
    assert doc["built"] == [0, 0]
    assert doc["at_load"] == []
    # reading every entry's lattices eliminates only the stated blocks
    # (U2, E8, E6, A2, A6, A10 and the explicit matrices, each distinct
    # one once); direct sums and twists take their invariants from the
    # blocks
    assert 0 < len(doc["eliminated"]) <= 18
    assert max(doc["eliminated"]) <= 10


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import\s+dataclasses|from\s+dataclasses\s+import)", re.M)
    sources = sorted((SRC / "k3fermat").glob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text())] == []


CALL_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import k3fermat.cli
k3fermat.cli.load_catalog()
lattice_code = {"k3fermat.lattice", "k3fermat.intmat"}
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["zeta", "--k", "66", "--q", "67", "--json"],
                 ["count", "--k", "19", "--q", "191", "--json"]):
        codes.append(k3fermat.cli.main(argv))
loaded = sorted({"argparse", "gettext", "locale"} & set(sys.modules))
after_calls = sorted(lattice_code & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(k3fermat.cli.main(["verify", "--k", "19", "--json"]))
after_verify = sorted(lattice_code & set(sys.modules))
try:
    with contextlib.redirect_stdout(io.StringIO()):
        k3fermat.cli.main(["zeta", "--help"])
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": loaded, "argparse": "argparse" in sys.modules,
                  "after_calls": after_calls, "after_verify": after_verify}))
"""


def test_well_formed_calls_import_no_argparse():
    proc = subprocess.run([sys.executable, "-I", "-c", CALL_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == []
    # zeta and count read no lattice, so they load no lattice code; verify
    # runs the lattice checks and loads both
    assert doc["after_calls"] == []
    assert doc["after_verify"] == ["k3fermat.intmat", "k3fermat.lattice"]
    # help still goes through argparse and exits 0
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["argparse"]


# The probe itself imports no json: the command lines come in as a repr and
# the result goes out as one.
COMMAND_PROBE = """
import ast, contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import k3fermat.cli
watched = {"fractions", "decimal", "numbers",
           "json", "json.decoder", "json.encoder", "json.scanner", "_json"}
k3fermat.cli.load_catalog()
seen = [["load_catalog", 0, sorted(watched & set(sys.modules))]]
for argv in ast.literal_eval(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = k3fermat.cli.main(argv)
    seen.append([" ".join(argv), code, sorted(watched & set(sys.modules))])
print(repr(seen))
"""

COMMAND_LINES = [
    ["catalog", "--json"],
    ["catalog", "--k", "19", "--json"],
    ["verify", "--all"],
    ["lattice", "--k", "19"],
    ["mirror", "--k", "12"],
    ["zeta", "--k", "66", "--q", "67"],
    ["count", "--k", "19", "--q", "191"],
    ["jacobi", "--m", "7", "--q", "29", "--alpha", "1,2,3"],
    ["delsarte", "--equation", "y^2 = x^3 + t^7*x - t"],
]


def test_no_command_imports_fractions():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", COMMAND_PROBE, str(SRC), repr(COMMAND_LINES)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = ast.literal_eval(proc.stdout)
    assert [name for name, _code, _loaded in seen] == ["load_catalog"] + [
        " ".join(argv) for argv in COMMAND_LINES]
    # every call is well formed and succeeds, and none loads a rational
    # module or json
    assert [(name, code, loaded) for name, code, loaded in seen if code or loaded] == []


# Without site nothing loads typing or re before the package does. The probe
# imports functools before patching collections.namedtuple, because functools
# builds its own CacheInfo namedtuple at import.
SITELESS_PROBE = """
import ast, collections, contextlib, functools, io, sys
sys.path.insert(0, sys.argv[1])
named = []
collections.namedtuple = (
    lambda name, *a, build=collections.namedtuple, **kw: named.append(name) or build(name, *a, **kw))
before = sorted({"typing", "re"} & set(sys.modules))
import k3fermat.cli
k3fermat.cli.load_catalog()
codes = []
for argv in ast.literal_eval(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(k3fermat.cli.main(argv))
print(repr({"before": before, "codes": codes, "named": named,
            "loaded": sorted({"typing", "re"} & set(sys.modules))}))
"""


def test_start_up_without_site_loads_no_typing_and_builds_no_namedtuple():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SITELESS_PROBE, str(SRC), repr(COMMAND_LINES)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = ast.literal_eval(proc.stdout)
    assert doc["before"] == []
    assert doc["codes"] == [0] * len(COMMAND_LINES)
    assert doc["named"] == []
    assert doc["loaded"] == []
