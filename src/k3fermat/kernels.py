"""The three innermost counting loops.

Plain lists in, ints or lists out: each is a tight loop over a finite
field, kept free of package imports. jacobi_counts is O(q + m^2), a
change of variables that splits the pair sum into two marginals;
chi_cubic_sum is O(q). fermat_affine is O(q + n^2) for the n =
1 + (q-1)/gcd(m, q-1) distinct values of u^m: it counts over pairs of
values, each weighted by how often it occurs.
"""

from collections import Counter


def backend_name():
    """Name of the kernel implementation; perfbench records it per run."""
    return "pure"


def jacobi_counts(dlog, q, m, a1, a2, a3):
    """Group-ring exponent counts for a Jacobi sum, in O(q + m^2).

    dlog[v] is the discrete log of v (unused at v=0) and m divides q - 1.
    Returns counts of length m where counts[e] is the number of pairs
    (v1, v2) with v1, v2, -1-v1-v2 all nonzero and a1*dlog(v1) +
    a2*dlog(v2) + a3*dlog(-1-v1-v2) = e mod m.

    With s = a1 + a2 and h = dlog(-1), the pairs with v2 = -v1 have
    v3 = -1 and exponent s*dlog(v1) + (a2+a3)*h; each residue of dlog(v1)
    mod m occurs (q-1)/m times. Every other pair is uniquely
    (v1, v2) = c*(x, 1-x) with c = -y, so v3 = -(1-y) and x, y lie outside
    {0, 1}. Its exponent splits into a1*dlog(x) + a2*dlog(1-x) plus
    s*dlog(y) + a3*dlog(1-y) + (s+a3)*h, so those counts are the cyclic
    convolution of the two marginals over x and y.
    """
    s = a1 + a2
    h = dlog[q - 1]
    counts = [0] * m
    for r in range(m):
        counts[(s * r + (a2 + a3) * h) % m] += (q - 1) // m
    p1 = [0] * m
    p2 = [0] * m
    shift = (s + a3) * h
    # d = dlog(x) and e = dlog(1-x) as x runs over 2..q-1
    for d, e in zip(dlog[2:], dlog[q - 1:1:-1]):
        p1[(a1 * d + a2 * e) % m] += 1
        p2[(s * d + a3 * e + shift) % m] += 1
    for i, n1 in enumerate(p1):
        if n1:
            for j, n2 in enumerate(p2):
                counts[(i + j) % m] += n1 * n2
    return counts


def chi_cubic_sum(chi2, cubes, a, b, q):
    """Sum of the quadratic character over x^3 + a*x + b for x in F_q."""
    total = 0
    for x in range(q):
        total += chi2[(cubes[x] + a * x + b) % q]
    return total


def fermat_affine(powm, rootcnt, q):
    """Points on 1 + u^m + v^m + w^m = 0 in affine 3-space over F_q.

    powm[v] = v^m mod q and rootcnt[c] counts the m-th roots of c. The
    count over (u, v) depends only on the values u^m and v^m, so each pair
    of values (a, b) adds n_a * n_b * rootcnt[-1 - a - b], where n_a is the
    number of u with u^m = a.
    """
    tally = list(Counter(powm).items())
    total = 0
    for a, na in tally:
        w = -1 - a
        total += na * sum(nb * rootcnt[(w - b) % q] for b, nb in tally)
    return total
