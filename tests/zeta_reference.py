"""Reference zeta helpers for the tests.

The package takes each zeta factor once per Galois orbit of characters and
reduces in Z[zeta_m] from a power table, so it no longer divides
polynomials or builds the factor of the whole Fermat surface. These
helpers keep those constructions: long division by a monic divisor, the
Jacobi sums of any Galois-stable set of characters, the Fermat factor over
every character, and the transcendental factor of a catalog surface on its
own. The tests compare the package against them.
"""

from characters_reference import enumerate_A
from k3fermat import catalog
from k3fermat.characters import units_mod
from k3fermat.cyclotomic import IntPoly, orbit_product, totient
from k3fermat.jacobi_zeta import _admissible_field, _row_factor, jacobi_sum


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
