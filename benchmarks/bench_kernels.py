"""Timing comparison: compiled kernels vs the pure-Python fallback.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

The workloads mirror the hot paths: Jacobi sum exponent counting
(over 90% of a large-q zeta report, about 7% of `verify --all`; see
`perfbench/README.md`), quadratic-character sweeps (elliptic point
counts), and the affine Fermat loop.
"""

import time

from k3fermat import _kernels_py as pure
from k3fermat.field import make_field

try:
    from k3fermat import _kernels as compiled
except ImportError:
    compiled = None


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def workloads():
    field = make_field(2113)  # 2113 = 1 mod 66 (2112 = 32 * 66)
    dlog = field.dlog_table
    yield ("jacobi_counts q=2113 m=66",
           lambda impl: impl.jacobi_counts(dlog, 2113, 66, 1, 2, 5))

    big = make_field(10007)
    chi2 = big.chi2_table()
    cubes = [x * x * x % 10007 for x in range(10007)]
    def chi_sweep(impl):
        total = 0
        for a in range(40):
            total += impl.chi_cubic_sum(chi2, cubes, a, a + 1, 10007)
        return total
    yield ("chi_cubic_sum q=10007 x40", chi_sweep)

    f = make_field(1093)  # 1093 = 1 mod 12
    powm = [pow(v, 12, 1093) for v in range(1093)]
    rootcnt = f.power_count_table(12)
    yield ("fermat_affine q=1093 m=12",
           lambda impl: impl.fermat_affine(powm, rootcnt, 1093))


def main():
    if compiled is None:
        print("compiled extension not built; showing pure timings only")
    print(f"{'workload':<28} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for name, fn in workloads():
        t_pure, r_pure = best_of(lambda: fn(pure))
        if compiled is None:
            print(f"{name:<28} {t_pure * 1000:>8.1f}ms {'-':>10} {'-':>8}")
            continue
        t_comp, r_comp = best_of(lambda: fn(compiled))
        if r_pure != r_comp:
            raise AssertionError(f"{name}: backends disagree")
        print(f"{name:<28} {t_pure * 1000:>8.1f}ms {t_comp * 1000:>8.1f}ms "
              f"{t_pure / t_comp:>7.1f}x")


if __name__ == "__main__":
    main()
