"""Run one k3fermat CLI invocation in a fresh interpreter and report on it.

    python3 -I perfbench/worker.py SRC_DIR TRACE ARG...

SRC_DIR holds the k3fermat package, TRACE is 0 or 1, and ARG... is the
command line, to which --json is added. With no ARG the worker only sets
up and reports the kernel backend. It prints one JSON line: setup_s
(import k3fermat.cli plus load_catalog), wall_s (the CLI call alone), rc,
stdout, maxrss_kb and cpu_s. With TRACE=1 it adds the per-function layer
stats of the call and covered_s, the self time of wrapped functions during
the call; catalog.load_catalog's s also adds the inclusive time of the
set-up call, which builds the catalog.
"""

import os
import sys
import time


def _call(cli, argv, tracer):
    import contextlib
    import io

    if not argv:
        from k3fermat.kernels import backend_name
        return {"backend": backend_name()}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--json"])
        wall_s = time.perf_counter() - t0
    out = {"wall_s": wall_s, "rc": rc, "stdout": buf.getvalue()}
    if tracer:
        out["covered_s"] = tracer.self_ns() / 1e9
    return out


def main():
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    t0 = time.perf_counter()
    import k3fermat.cli as cli
    if trace:
        from tracer import Tracer
        with Tracer() as tracer:
            cli.load_catalog()
            setup_s = time.perf_counter() - t0
            build_s = tracer.stats["catalog.load_catalog"].incl_ns / 1e9
            tracer.reset()
            out = _call(cli, argv, tracer)
        out["layers"] = tracer.snapshot()
        out["layers"]["catalog.load_catalog"]["s"] += build_s
    else:
        cli.load_catalog()
        setup_s = time.perf_counter() - t0
        out = _call(cli, argv, None)

    import json
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(setup_s=setup_s, maxrss_kb=usage.ru_maxrss,
               cpu_s=usage.ru_utime + usage.ru_stime)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
