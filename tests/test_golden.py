"""Golden reports, compared byte for byte.

One `--json` command per subcommand, `lattice` and `zeta` (at the first
stored zeta prime) for every catalog order, plus the geometric fiber rows
of every elliptic catalog model (no CLI report prints those). Every file
also equals json.dumps(json.loads(file), indent=2) plus a newline. A
refactor that keeps results must keep these bytes. Regenerate only when a
report is meant to change, from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from k3fermat.catalog import ORDERS, catalog_entry, load_catalog
from k3fermat.cli import main
from k3fermat.pointcount import geometric_fibers

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "catalog": ["catalog", "--k", "19"],
    "verify": ["verify", "--k", "12"],
    "zeta": ["zeta", "--k", "12", "--q", "13"],
    "jacobi": ["jacobi", "--m", "2", "--q", "5", "--alpha", "1,1,1"],
    "count": ["count", "--k", "12", "--q", "13"],
    "lattice": ["lattice", "--k", "7"],
    "mirror": ["mirror", "--k", "9"],
    "delsarte": ["delsarte", "--equation", "y^2 = x^3 + t^7*x + 1"],
}
for _k in ORDERS:
    COMMANDS[f"lattice-k{_k}"] = ["lattice", "--k", str(_k)]
    COMMANDS[f"zeta-k{_k}"] = ["zeta", "--k", str(_k), "--q", str(catalog_entry(_k).zeta_primes[0])]


def report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--json"])
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def fiber_rows():
    doc = {
        str(e.k): [[r["kind"], r["place"], r["degree"]] for r in geometric_fibers(e.model)]
        for e in load_catalog()
        if e.model is not None
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert report(COMMANDS[name]) == expected


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_bytes_are_what_json_dumps_writes(path):
    # the reports come from the package's own writer; the standard library
    # stays the independent reference for their bytes, and a report read
    # with json.loads and written back with json.dumps reproduces them
    text = path.read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_geometric_fibers_match_golden():
    rows = fiber_rows()
    assert len(json.loads(rows)) == 15
    assert rows == (GOLDEN / "fibers.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_text(report(argv))
    (GOLDEN / "fibers.json").write_text(fiber_rows())
