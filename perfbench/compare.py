"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER each hold the standard output of one or more runs of
perfbench/run.py, concatenated. For every workload and metric it prints
each side's median with its quartiles and the change of the median.
It refuses, with exit code 2, to compare runs whose kernel backends
differ: the compiled and pure-Python kernels differ by up to 30x, so
such a comparison measures the build, not the change.
"""

import json
import statistics
import sys


def load(path):
    """[(meta, result)] for every run in the file."""
    runs, meta = [], None
    with open(path) as fh:
        for line in fh:
            if line.startswith("meta "):
                meta = json.loads(line[5:])
            elif line.startswith("{") and meta is not None:
                runs.append((meta, json.loads(line)))
                meta = None
    if not runs:
        sys.exit(f"{path}: no benchmark runs found")
    return runs


def samples(runs):
    out = {}
    for meta, result in runs:
        for name, metric in result["metrics"].items():
            out.setdefault((meta["workload"], name), []).append(metric["value"])
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = load(argv[0]), load(argv[1])
    backends = {meta["backend"] for meta, _ in before + after}
    if len(backends) != 1:
        print(f"error: runs use different kernel backends {sorted(backends)}; "
              "refusing to compare", file=sys.stderr)
        return 2
    old, new = samples(before), samples(after)
    print(f"{'workload':<14} {'metric':<40} {'before (q1 med q3)':>30} "
          f"{'after (q1 med q3)':>30} {'change':>8}")
    for key in sorted(old.keys() & new.keys()):
        a, b = summary(old[key]), summary(new[key])
        change = f"{b[1] / a[1] - 1:+.1%}" if a[1] else "-"
        print(f"{key[0]:<14} {key[1]:<40} "
              f"{a[0]:>10.4g}{a[1]:>10.4g}{a[2]:>10.4g} "
              f"{b[0]:>10.4g}{b[1]:>10.4g}{b[2]:>10.4g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
