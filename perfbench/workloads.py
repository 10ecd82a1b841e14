"""The benchmark's workloads: fixed lists of k3fermat CLI invocations.

Every op is one `k3fermat <argv> --json` call. Every q is an admissible
prime for its entry (prime, q = 1 mod m), so no op is refused. The lists
are fixed rather than drawn from the seed, because every op needs a stored
answer from an independent path; the seed only permutes the order in
which a repetition runs them.
"""

WORKLOADS = {
    # The checker's main job at small q: cyclotomic orbit products and
    # Fraction lattice algebra dominate, the O(q^2) kernels are minor.
    "verify-all": (
        ("verify", "--all"),
    ),
    # The closed form on a q-doubling ladder; 4027 is a rung the oracle
    # skips. Nearly all time is kernels.jacobi_counts, no brute counting.
    "zeta-large-q": (
        ("zeta", "--k", "66", "--q", "1123"),
        ("zeta", "--k", "66", "--q", "2113"),
        ("zeta", "--k", "66", "--q", "4027"),
        ("zeta", "--k", "19", "--q", "1901"),
    ),
    # The brute-force oracle over all three counters, with no Jacobi sums.
    # The k = 66 and k = 19 rungs share q with zeta-large-q.
    "count-large-q": (
        ("count", "--k", "66", "--q", "1123"),
        ("count", "--k", "66", "--q", "2113"),
        ("count", "--fermat", "66", "--q", "2113"),
        ("count", "--k", "25", "--q", "601"),
        ("count", "--k", "19", "--q", "1901"),
    ),
}


def all_ops():
    return [op for ops in WORKLOADS.values() for op in ops]


def op_key(op):
    """The op as typed, e.g. 'zeta --k 66 --q 1123'; keys the stored answers."""
    return " ".join(op)


def op_name(op):
    """Metric-safe op name, e.g. 'zeta-k66-q1123' or 'verify-all'."""
    return op_key(op).replace(" --", "-").replace(" ", "")


def op_option(op, flag):
    """Integer value of `--flag` in op, or None."""
    if flag in op:
        return int(op[op.index(flag) + 1])
    return None


def facts(op, doc):
    """The parts of an op's JSON report that the stored answer pins down."""
    if op[0] == "zeta":
        return {"predicted_count": doc["result"]["predicted_count"]}
    if op[0] == "count":
        return {"count": doc["result"]["count"]}
    if op[0] == "verify":
        return {
            "ok": doc["ok"],
            "statuses": [[r["k"], c["name"], c["status"]]
                         for r in doc["reports"] for c in r["checks"]],
        }
    raise ValueError(f"no stored facts for command {op[0]!r}")
