"""Reference zeta helpers for the tests.

The package takes each zeta factor once per Galois orbit of characters and
reduces in Z[zeta_m] from a power table, so it no longer divides
polynomials or builds the factor of the whole Fermat surface. These
helpers keep those constructions: long division by a monic divisor, the
Jacobi sums of any Galois-stable set of characters, the Fermat factor over
every character, and the transcendental factor of a catalog surface on its
own. They also keep two orbit products that share nothing with the
package's evaluation map: the factor-by-factor product over Z[zeta_m][T],
and power sums by traces with Newton's identities. The power table is
kept as it was first built, one dict per power of zeta. The tests compare
the package against them.
"""

from collections import Counter
from math import gcd

from characters_reference import enumerate_A
from k3fermat import catalog
from k3fermat.characters import units_mod
from k3fermat.cyclotomic import IntPoly, cyclotomic_poly, orbit_product, totient
from k3fermat.field import prime_factors
from k3fermat.jacobi_zeta import _admissible_field, _row_factor, jacobi_sum


def sparse_power_table(m):
    """The rows of cyclotomic._power_table(m), with every power of zeta a
    dict {index: coefficient} shifted up one place and its top coefficient
    folded back through x^phi = x^phi - Phi_m(x), from zeta^0 on."""
    phi_m = cyclotomic_poly(m)
    top = phi_m.degree - 1
    fold = [(i, -a) for i, a in enumerate(phi_m.coeffs[:-1]) if a]
    rows = []
    row = {0: 1}
    for _ in range(m):
        rows.append(tuple(sorted(row.items())))
        c = row.pop(top, 0)
        row = {i + 1: a for i, a in row.items()}
        if c:
            for i, a in fold:
                b = row.get(i, 0) + c * a
                if b:
                    row[i] = b
                else:
                    del row[i]
    return rows


def poly_divmod(num, den):
    """Quotient and remainder by a monic divisor."""
    if not den or den.coeffs[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num.coeffs)
    dn = den.degree
    quo = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn]
        if c:
            quo[i] = c
            for j, dcoef in enumerate(den.coeffs):
                rem[i + j] -= c * dcoef
    return IntPoly(quo), IntPoly(rem)


def orbit_values(field, alphas):
    """{alpha: j(alpha)} for every vector in a Galois-stable set, one sum
    per orbit.

    The O(q + m) exponent count in jacobi_sum runs once per orbit, and
    the mates u * alpha get sigma_u(j) through galois_apply.
    """
    values = {}
    for alpha in alphas:
        if alpha in values:
            continue
        j = values[alpha] = jacobi_sum(field, alpha.m, alpha)
        for u in units_mod(alpha.m)[1:]:
            mate = alpha.scaled(u)
            if mate not in values:
                values[mate] = j.galois_apply(u)
    return values


def fermat_zeta_factor(m, q):
    """(1 - qT) * prod over all alpha of (1 - j(alpha)T), in Z[T]."""
    field = _admissible_field(q, m)
    if m == 1:
        return IntPoly([1, -field.q])
    values = orbit_values(field, enumerate_A(m))
    return IntPoly([1, -field.q]) * orbit_product(values.values())


def transcendental_factor(k, q):
    """Degree-phi(k) factor carried by the transcendental orbit of surface
    k, read from catalog.transcendental_row at call time."""
    if k == 3:
        raise ValueError("the order-3 surface has no Fermat cover; use cm_factor_k3")
    row = catalog.transcendental_row(k)
    field = _admissible_field(q, row[0].m)
    _, poly = _row_factor(field, row)
    if poly.degree != totient(k):
        raise AssertionError(f"transcendental factor has degree {poly.degree}")
    return poly


def reference_orbit_product(values):
    """prod (1 - v*T) factor by factor over Z[zeta_m][T], certified by
    every coefficient being a rational integer."""
    poly = IntPoly([1])
    for v in values:
        poly = poly * IntPoly([1, -v])
    out = []
    for c in poly.coeffs:
        n = c if isinstance(c, int) else c.as_rational_integer()
        if n is None:
            raise ValueError(f"coefficient {c!r} is not a rational integer")
        out.append(n)
    return IntPoly(out)


def _trace_vector(m):
    """Tr(zeta^i) from Q(zeta_m) to Q for i < phi(m).

    Tr(zeta^i) is the Ramanujan sum c_m(i) = mu(n) phi(m) / phi(n) with
    n = m / gcd(i, m), so Tr(x) is the dot product of this vector with the
    canonical coefficients of x.
    """
    phi = totient(m)
    out = []
    for i in range(phi):
        n = m // gcd(i, m)
        primes = prime_factors(n)
        squarefree = all(n % (f * f) for f in primes)
        mu = (-1) ** len(primes) if squarefree else 0
        out.append(mu * phi // totient(n))
    return out


def _exact_div(num, den, what):
    quo, rem = divmod(num, den)
    if rem:
        raise ValueError(f"{what} {num} is not divisible by {den}")
    return quo


def newton_orbit_factor(v, size):
    """prod (1 - wT) over the `size` distinct conjugates w of v, in Z[T].

    The power sums p_k = Tr(v^k) / s, s = phi(m) / size the stabiliser
    order, take one multiplication in Z[zeta_m] each. Newton's identities
    for the coefficients a_k = (-1)^k e_k of the factor read
    k a_k = -sum_{i=1..k} a_(k-i) p_i.

    A non-real Weil number needs only half of them: when conj(v) != v and
    v conj(v) is a rational integer Q, every conjugate w has w conj(w) = Q
    (the Galois group is abelian, so sigma commutes with complex
    conjugation), and conjugation pairs the orbit without a fixed point.
    So size is even, w -> Q / w permutes the orbit, and the factor obeys
    the functional equation a_(size-j) = a_j Q^(size/2 - j). Newton runs
    for k <= size/2, and the top half is read off the bottom half. Any
    other v runs the full loop: a real v too, for which v conj(v) = v^2
    may well be rational ({sqrt 3, -sqrt 3} gives 1 - 3T^2, while the
    functional equation would give 1 + 3T^2).
    """
    trace = _trace_vector(v.m)
    stabiliser = totient(v.m) // size
    bar = v.conj()
    norm = None if bar == v else (v * bar).as_rational_integer()
    steps = size if norm is None else size // 2
    power = v
    sums = []
    coeffs = [1]
    for k in range(1, steps + 1):
        if k > 1:
            power = power * v
        tr = sum(t * c for t, c in zip(trace, power.coeffs))
        sums.append(_exact_div(tr, stabiliser, f"trace of v^{k}"))
        newton = -sum(coeffs[k - i] * sums[i - 1] for i in range(1, k + 1))
        coeffs.append(_exact_div(newton, k, f"Newton sum {k}"))
    for j in range(steps + 1, size + 1):
        coeffs.append(coeffs[size - j] * norm ** (j - steps))
    return IntPoly(coeffs)


def newton_orbit_product(values):
    """prod (1 - v*T) over a Galois-stable multiset of CycInt values, one
    Galois orbit at a time through newton_orbit_factor, each raised to the
    power of its multiplicity; the multiset is assumed stable."""
    counts = Counter(values)
    poly = IntPoly([1])
    while counts:
        v = next(iter(counts))
        c = counts[v]
        orbit = {v}.union(v.galois_apply(u) for u in units_mod(v.m)[1:])
        for w in orbit:
            del counts[w]
        factor = newton_orbit_factor(v, len(orbit))
        for _ in range(c):
            poly = poly * factor
    return poly
