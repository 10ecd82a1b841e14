"""The three innermost counting loops.

Plain lists in, ints or lists out: each is a tight loop over a finite
field, kept free of package imports.
"""


def backend_name():
    """Name of the kernel implementation; perfbench records it per run."""
    return "pure"


def jacobi_counts(dlog, q, m, a1, a2, a3):
    """Group-ring exponent counts for a Jacobi sum.

    dlog[v] is the discrete log of v (unused at v=0). Returns counts of
    length m where counts[e] is the number of pairs (v1, v2) with
    v1, v2, -1-v1-v2 all nonzero and a1*dlog(v1) + a2*dlog(v2) +
    a3*dlog(-1-v1-v2) = e mod m.
    """
    t1 = [0] * q
    t2 = [0] * q
    t3 = [0] * q
    for v in range(1, q):
        d = dlog[v]
        t1[v] = a1 * d % m
        t2[v] = a2 * d % m
        t3[v] = a3 * d % m
    counts = [0] * m
    for v1 in range(1, q):
        base = t1[v1]
        w = -1 - v1
        for v2 in range(1, q):
            v3 = (w - v2) % q
            if v3:
                counts[(base + t2[v2] + t3[v3]) % m] += 1
    return counts


def chi_cubic_sum(chi2, cubes, a, b, q):
    """Sum of the quadratic character over x^3 + a*x + b for x in F_q."""
    total = 0
    for x in range(q):
        total += chi2[(cubes[x] + a * x + b) % q]
    return total


def fermat_affine(powm, rootcnt, q):
    """Points on 1 + u^m + v^m + w^m = 0 in affine 3-space over F_q.

    powm[v] = v^m mod q and rootcnt[c] counts the m-th roots of c.
    """
    total = 0
    for u in range(q):
        w = -1 - powm[u]
        for v in range(q):
            total += rootcnt[(w - powm[v]) % q]
    return total
