"""The three innermost counting loops.

Plain lists and ints in, ints or lists out: each is a tight loop over a finite
field, kept free of package imports. jacobi_counts takes O(q + m)
steps and one integer product: a change of variables splits the pair
sum into two marginals, whose cyclic convolution is the product of two
packed ints; chi_cubic_sum is O(q). fermat_affine counts the affine
cone over a Fermat surface through the scaling symmetry alone, in one
walk over half the subgroup of m-th powers, from the primitive root
and no table.
"""

from math import gcd


def backend_name():
    """Name of the kernel implementation; perfbench records it per run."""
    return "pure"


def jacobi_counts(dlog, q, m, a1, a2, a3):
    """Group-ring exponent counts for a Jacobi sum, in O(q + m) steps and
    one integer product.

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

    The convolution is one product of two ints (Kronecker substitution):
    each marginal is packed into m slots of w bytes, and w holds
    (q-2)^2, the number of pairs (x, y), so no slot of the product, and
    no sum of the two slots that fold onto one residue mod m, carries
    into the next.
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
    w = max(1, ((q - 2) ** 2).bit_length() + 7 >> 3)
    x = int.from_bytes(b"".join(n.to_bytes(w, "little") for n in p1), "little")
    y = int.from_bytes(b"".join(n.to_bytes(w, "little") for n in p2), "little")
    xy = x * y
    folded = (xy & ((1 << 8 * w * m) - 1)) + (xy >> 8 * w * m)
    packed = folded.to_bytes(w * m, "little")
    for e in range(m):
        counts[e] += int.from_bytes(packed[e * w:(e + 1) * w], "little")
    return counts


def chi_cubic_sum(chi2, cubes, a, b, q):
    """Sum of the quadratic character over x^3 + a*x + b for x in F_q."""
    total = 0
    for x in range(q):
        total += chi2[(cubes[x] + a * x + b) % q]
    return total


def fermat_affine(g, m, q):
    """Points of x0^m + x1^m + x2^m + x3^m = 0 in F_q^4, from (n-1)/2
    powers mod q and no table, n = (q-1)/d.

    g is a primitive root mod q. With d = gcd(m, q-1) and H = <g^d>, the
    number of w with w^m = x is d on H, 1 at 0 and 0 elsewhere. So for
    c != 0, N2(c) = #{(u, v) : u^m + v^m = c} is d^2 times the number of
    pairs (h, c - h) in H^2, plus 2d when c lies in H. Those pairs map
    one to one, by (h, h') -> h'/h, onto the t in H with 1 + t in the
    class dlog(c) mod d, so one walk over H tallies N2 for every class.
    The class of y is read off y^n, which is a d-th root of unity. t and
    1/t share a class, since 1 + 1/t = (1 + t)/t and t lies in H, so the
    walk takes half of H, counts each t twice, adds t = 1 and skips
    t = -1: about (q/2d) log q products. At d = 1 every t != -1 is in
    the one class. N2(0) is 1, plus (q-1)d when -1 = g^((q-1)/2) lies
    in H. The cone count is the sum of N2(c) N2(-c) over c, and each
    class holds n values.
    """
    d = gcd(m, q - 1)
    n = (q - 1) // d
    if d == 1:
        pairs = [n - 1]
    else:
        zeta = pow(g, n, q)
        classes = {}
        root = 1
        for k in range(d):
            classes[root] = k
            root = root * zeta % q
        pairs = [0] * d
        pairs[classes[pow(2, n, q)]] += 1  # t = 1
        step = pow(g, d, q)
        t = step
        for _ in range((n - 1) // 2):
            pairs[classes[pow(t + 1, n, q)]] += 2
            t = t * step % q
    n2 = [d * d * count for count in pairs]
    n2[0] += 2 * d
    minus = (q - 1) // 2  # dlog(-1)
    n2_zero = 1 + (q - 1) * d if minus % d == 0 else 1
    return n2_zero ** 2 + n * sum(n2[k] * n2[(k + minus) % d] for k in range(d))
