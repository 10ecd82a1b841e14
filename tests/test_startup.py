"""Start-up imports only what a call reads: no dataclasses (which pulls in
inspect, ast, dis and tokenize), a catalog built without parsing any
equation and eliminating only its stated Gram blocks, a frozen set-up heap
once it is built, and no argparse (nor the gettext and locale it pulls in)
for a well-formed command line. Structural checks only; timings live in
perfbench."""

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
eliminated = []
k3fermat.lattice.symmetric_invariants = (
    lambda rows, run=k3fermat.lattice.symmetric_invariants: eliminated.append(len(rows)) or run(rows))
k3fermat.cli.load_catalog()
print(json.dumps({"modules": sorted(sys.modules), "frozen": gc.get_freeze_count(),
                  "parsed": parsed, "eliminated": eliminated}))
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
    # only the stated blocks (U2, E8, E6, A2, A6, A10 and twelve explicit
    # matrices) are eliminated; direct sums and twists take their
    # invariants from the blocks
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
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["zeta", "--k", "66", "--q", "67", "--json"],
                 ["count", "--k", "19", "--q", "191", "--json"]):
        codes.append(k3fermat.cli.main(argv))
loaded = sorted({"argparse", "gettext", "locale"} & set(sys.modules))
try:
    with contextlib.redirect_stdout(io.StringIO()):
        k3fermat.cli.main(["zeta", "--help"])
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": loaded, "argparse": "argparse" in sys.modules}))
"""


def test_well_formed_calls_import_no_argparse():
    proc = subprocess.run([sys.executable, "-I", "-c", CALL_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == []
    # help still goes through argparse and exits 0
    assert doc["codes"] == [0, 0, 0]
    assert doc["argparse"]
