"""The benchmark's inputs, stored answers and metric names stay consistent."""

import json
import subprocess
import sys

import pytest

from k3fermat.catalog import catalog_entry
from k3fermat.field import MAX_PRIME
from run import HERE, ROOT, check, load_answers, per_layer_units
from workloads import WORKLOADS, all_ops, op_key, op_name, op_option


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


@pytest.mark.parametrize("op", all_ops(), ids=op_key)
def test_op_prime_is_admissible(op):
    q = op_option(op, "--q")
    if q is None:
        assert op == ("verify", "--all")
        return
    assert is_prime(q) and q <= MAX_PRIME
    k, fermat = op_option(op, "--k"), op_option(op, "--fermat")
    if k == 3:
        assert q not in (2, 3)
    else:
        m = catalog_entry(k).m if k is not None else fermat
        assert (q - 1) % m == 0, f"q = {q} is not 1 mod {m}"


def test_every_op_has_one_stored_answer():
    assert set(load_answers()) == {op_key(op) for op in all_ops()}


def test_op_names_are_unique():
    names = [op_name(op) for op in all_ops()]
    assert len(names) == len(set(names))


def test_check_rejects_changed_output():
    op = WORKLOADS["zeta-large-q"][0]
    answer = load_answers()[op_key(op)]
    assert check(op, {"rc": 0, "stdout": "{}"}, answer) is not None
    assert check(op, {"rc": 1, "stdout": ""}, answer) == "exit code 1"


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    units = per_layer_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-all",
         "--seed", "3", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    meta_line, last = proc.stdout.splitlines()[-2:]
    assert json.loads(meta_line.removeprefix("meta "))["backend"] in ("pure", "compiled")
    doc = json.loads(last)
    assert list(doc) == ["correct", "attempted", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in wanted}
    if trace == "1":
        assert doc["metrics"]["field.make_field.reuse"]["value"] == 27 / 66
