"""Start-up imports only what a call reads: no dataclasses (which pulls in
inspect, ast, dis and tokenize), and a frozen set-up heap once the catalog
is built. Structural checks only; timings live in perfbench."""

import json
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import gc, json, sys
sys.path.insert(0, sys.argv[1])
import k3fermat.cli
k3fermat.cli.load_catalog()
print(json.dumps({"modules": sorted(sys.modules), "frozen": gc.get_freeze_count()}))
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


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import\s+dataclasses|from\s+dataclasses\s+import)", re.M)
    sources = sorted((SRC / "k3fermat").glob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text())] == []
