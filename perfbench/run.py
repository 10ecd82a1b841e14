"""The k3fermat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's ops (see workloads.py), each a `k3fermat ... --json`
call in a fresh interpreter, in repetitions until S seconds have passed,
and checks every output against perfbench/answers.json. The seed only
permutes the op order of each repetition. The last stdout line is one
JSON object: correct, attempted, failed and metrics. The line before it
starts with "meta " and records the backend, Python version, nproc and
commit of the run.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb.
--trace 1 alternates plain and traced repetitions and reports the
per-layer metrics (tracer.py wraps the layers' public functions).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, all_ops, facts, op_key, op_name, op_option

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A run must end within 180 s even when an op hangs.
HARD_LIMIT_S = 170
# The machine's speed drifts by up to 30% within a minute (a shared VM), for
# every process on a CPU alike. So each op's times are scaled to a reference
# speed: a fixed pure-Python loop is timed in this process, which never
# imports k3fermat, on the same CPU just before and after each op, and the
# op's times are multiplied by REFERENCE_S / (the mean of those two loop
# times). REFERENCE_S is a fixed constant near the loop's time on the
# machine where the benchmark was defined (2 vCPUs, Python 3.11), so scaled
# times are seconds at that reference speed.
REFERENCE_ITERS = 300_000
REFERENCE_S = 0.039

STAT_UNITS = {"calls": "count", "s": "s", "incl_s": "s", "work": "count",
              "distinct": "count"}
RUN_METRICS = {  # name: (unit, better)
    "field.make_field.reuse": ("ratio", "lower"),
    "catalog.checks.pass": ("count", "higher"),
    "catalog.checks.fail": ("count", "lower"),
    "catalog.checks.skip": ("count", "lower"),
    "jacobi_zeta.q_exponent": ("slope", "lower"),
    "pointcount.q_exponent": ("slope", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.raw_wall_s": ("s", "lower"),
    "proc.scale": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.covered_frac": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
}


def per_layer_units():
    """Every per-layer metric name with its unit and direction."""
    out = {}
    for spec in LAYERS:
        for stat in spec.report:
            out[f"{spec.label}.{stat}"] = (STAT_UNITS[stat], "lower")
    for op in all_ops():
        out[f"rung.{op_name(op)}.s"] = ("s", "lower")
    out.update(RUN_METRICS)
    return out


def reference_s():
    """Time of the fixed reference loop, in seconds."""
    table = list(range(1024))
    acc = 0
    t0 = time.perf_counter()
    for i in range(REFERENCE_ITERS):
        acc += table[(i * 7) & 1023] % 13
    return time.perf_counter() - t0


def run_worker(argv, trace, timeout=HARD_LIMIT_S):
    """(result dict, None) from one worker process, or (None, error text)."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(SRC),
           "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"worker exit {proc.returncode}"
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "worker printed no result line"


def load_answers():
    with open(HERE / "answers.json") as fh:
        return json.load(fh)["ops"]


def check(op, result, answer):
    """None when the op's output matches its stored answer, else why not."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    out = result["stdout"]
    if hashlib.sha256(out.encode()).hexdigest() != answer["sha256"]:
        return "JSON report differs from the stored bytes"
    got = facts(op, json.loads(out))
    if got != answer["facts"]:
        return f"facts {got} differ from the stored answer"
    return None


def run_op(op, trace, answers, timeout):
    result, error = run_worker(list(op), trace, timeout)
    if error is None:
        error = check(op, result, answers[op_key(op)])
    return result, error


def median(values):
    return statistics.median(values) if values else 0.0


def op_medians(reps, field, scaled=True):
    """{op: median of a time field, scaled unless told not to, over the
    repetitions where the op succeeded}."""
    samples = {}
    for rep in reps:
        for op, result in rep.items():
            if result is not None:
                scale = result["scale"] if scaled else 1
                samples.setdefault(op, []).append(result[field] * scale)
    return {op: median(values) for op, values in samples.items()}


def q_exponent(walls, ops, command):
    """Least-squares slope of log wall time against log q over the
    workload's k = 66 rungs of one command; 0 with fewer than two."""
    pts = [(math.log(op_option(op, "--q")), math.log(walls[op]))
           for op in ops
           if op[0] == command and op_option(op, "--k") == 66 and op in walls]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def unscaled(reps):
    """Unscaled wall_s and setup_s, and the median time scale applied."""
    results = [r for rep in reps for r in rep.values() if r is not None]
    return {
        "raw_wall_s": sum(op_medians(reps, "wall_s", scaled=False).values()),
        "raw_setup_s": median([r["setup_s"] for r in results]),
        "scale": median([r["scale"] for r in results]),
    }


def end_to_end(plain):
    results = [r for rep in plain for r in rep.values() if r is not None]
    return {
        "setup_s": median([r["setup_s"] * r["scale"] for r in results]),
        "wall_s": sum(op_medians(plain, "wall_s").values()),
        "peak_rss_mb": max((r["maxrss_kb"] for r in results), default=0) / 1024,
    }


def per_layer(ops, plain, traced, attempted, failed):
    out = dict.fromkeys(per_layer_units(), 0.0)
    walls = op_medians(plain, "wall_s")
    for op in ops:
        out[f"rung.{op_name(op)}.s"] = walls.get(op, 0.0)
    out["jacobi_zeta.q_exponent"] = q_exponent(walls, ops, "zeta")
    out["pointcount.q_exponent"] = q_exponent(walls, ops, "count")
    out["proc.cpu_s"] = sum(op_medians(plain, "cpu_s").values())
    raw = unscaled(plain)
    out["proc.raw_wall_s"] = raw["raw_wall_s"]
    out["proc.scale"] = raw["scale"]
    plain_wall = sum(walls.values())
    traced_wall = sum(op_medians(traced, "wall_s").values())
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1 if plain_wall else 0.0
    complete = [rep for rep in traced if None not in rep.values()]
    out["trace.covered_frac"] = median([
        sum(r["covered_s"] for r in rep.values()) / sum(r["wall_s"] for r in rep.values())
        for rep in complete])
    out["failed_frac"] = failed / attempted

    # Counts repeat exactly, so one traced repetition gives them; times are
    # medians over the traced repetitions of each repetition's sum.
    for spec in LAYERS:
        for stat in spec.report:
            timed = stat in ("s", "incl_s")
            per_rep = [sum(r["layers"][spec.label][stat] * (r["scale"] if timed else 1)
                           for r in rep.values())
                       for rep in complete]
            if per_rep:
                out[f"{spec.label}.{stat}"] = median(per_rep) if timed else per_rep[0]
    calls = out["field.make_field.calls"]
    out["field.make_field.reuse"] = out["field.make_field.distinct"] / calls if calls else 0.0
    for rep in plain[:1]:
        for op, result in rep.items():
            if result is not None and op[0] == "verify":
                for _k, _name, status in facts(op, json.loads(result["stdout"]))["statuses"]:
                    out[f"catalog.checks.{status}"] += 1
    return out


def commit():
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "k3fermat" / "cli.py").is_file():
        print(f"error: no k3fermat sources under {SRC}", file=sys.stderr)
        return 2
    answers = load_answers()
    nproc = len(os.sched_getaffinity(0))
    # One CPU for this process and every op: the reference loop then times
    # the CPU the ops run on, and no op migrates between CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The warm-up compiles the package's bytecode and names the backend;
    # it is not measured.
    warm, error = run_worker([], False)
    if error:
        print(f"error: k3fermat does not start: {error}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": warm["backend"],
        "python": platform.python_version(), "nproc": nproc,
        "commit": commit(),
    }

    ops = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    modes = (False, True) if args.trace else (False,)
    reps = {False: [], True: []}
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while (i < len(modes) or time.perf_counter() < deadline) and \
            time.perf_counter() < start + HARD_LIMIT_S:
        traced = modes[i % len(modes)]
        order = list(ops)
        rng.shuffle(order)
        rep = {}
        before = reference_s()
        for op in order:
            timeout = max(1.0, start + HARD_LIMIT_S - time.perf_counter())
            result, error = run_op(op, traced, answers, timeout)
            after = reference_s()
            attempted += 1
            if error:
                failed += 1
                errors.append(f"{op_key(op)}: {error}")
                result = None
            else:
                result["scale"] = 2 * REFERENCE_S / (before + after)
            rep[op] = result
            before = after
        reps[traced].append(rep)
        i += 1

    for line in errors:
        print(f"failed: {line}", file=sys.stderr)
    if args.trace:
        values = per_layer(ops, reps[False], reps[True], attempted, failed)
        units = {name: unit for name, (unit, _better) in per_layer_units().items()}
    else:
        values = end_to_end(reps[False])
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    meta["unscaled"] = unscaled(reps[False])
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
