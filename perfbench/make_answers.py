"""Write perfbench/answers.json, the stored answer for every benchmark op.

    python3 perfbench/make_answers.py

Each answer holds the sha256 of the op's JSON report (seed output: the
reports must stay byte-identical) and the facts workloads.facts() reads
from it. Facts come from an independent path wherever one exists: a zeta
rung's predicted_count must equal the brute-force `count --k` at the same
q (counted here once for rungs no workload counts), and a `count --k`
must equal the closed form's predicted_count, except for affine-chart
counts. The rest is labelled seed output. Run it only when a change is
meant to alter the reports.
"""

import hashlib
import json
import sys

from run import HERE, run_worker
from workloads import all_ops, facts, op_key


def report(op):
    result, error = run_worker(list(op), False)
    if error or result["rc"] != 0:
        sys.exit(f"{op_key(op)} failed: {error or result['rc']}")
    return result["stdout"]


def main():
    outputs = {op_key(op): report(op) for op in all_ops()}
    answers = {}
    for op in all_ops():
        key = op_key(op)
        out = outputs[key]
        got = facts(op, json.loads(out))
        command, rest = op[0], op[1:]
        if command in ("zeta", "count") and rest[0] == "--k":
            other = op_key(("count" if command == "zeta" else "zeta",) + rest)
            if other not in outputs:
                outputs[other] = report(other.split())
            twin = json.loads(outputs[other])["result"]
            counted = twin if command == "zeta" else json.loads(out)["result"]
            if counted["note"] is not None:
                source = "seed output; the count covers an affine chart only"
            else:
                want = twin["count"] if command == "zeta" else twin["predicted_count"]
                if want != next(iter(got.values())):
                    sys.exit(f"{key} disagrees with its independent check {other}")
                source = f"checked against {other}"
        elif command == "verify":
            if not got["ok"]:
                sys.exit(f"{key} reports a failure")
            source = "ok checked; check statuses are seed output"
        else:
            source = "seed output; no independent check"
        answers[key] = {
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "facts": got,
            "source": source,
        }
    with open(HERE / "answers.json", "w") as fh:
        json.dump({"ops": answers}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
