"""Reference character helpers for the tests.

The Delsarte analysis takes the invariant characters as the row space of
the cover's exponent matrix and the transcendental ones as the Galois
orbit of the one weight-one invariant character, so the package no longer
builds the deck group or tests characters one at a time. These helpers
keep those direct definitions: every character vector of a degree, the
deck group as a kernel mod m, the characters it fixes as the kernel of
that, and the non-algebraic filter. The tests compare the package against
them.
"""

from itertools import product
from math import gcd, prod
from typing import NamedTuple

from k3fermat.characters import CharacterVector, alpha_norm, units_mod
from k3fermat.delsarte import INVARIANT_LIMIT, verify_cover
from k3fermat.intmat import smith_normal_form


def enumerate_A(m):
    """All character vectors of degree m, lexicographic on (a1, a2, a3)."""
    if m < 2:
        raise ValueError("degree must be at least 2")
    out = []
    for a1 in range(1, m):
        for a2 in range(1, m):
            for a3 in range(1, m):
                a0 = -(a1 + a2 + a3) % m
                if a0 != 0:
                    out.append(CharacterVector(m, (a0, a1, a2, a3)))
    return out


def kernel_mod(mat, m):
    """Solve mat @ x = 0 over ZZ/m.

    Returns (generators, orders): generators[i] is a vector mod m of order
    orders[i], and the solution group is the direct sum of the cyclic groups
    they generate. orders follows the Smith chain, so the nontrivial entries
    are the invariant factors of the kernel group.
    """
    nc = len(mat[0])
    d, _u, v = smith_normal_form(mat)
    gens = []
    orders = []
    for j in range(nc):
        dj = d[j] if j < len(d) else 0
        g = gcd(dj, m)
        # x = V w with d_j w_j = 0 mod m: w_j multiple of m/g, order g
        if g > 1:
            step = m // g
            gens.append([(v[r][j] * step) % m for r in range(nc)])
            orders.append(g)
    return gens, orders


class DeckGroup(NamedTuple):
    m: int
    generators: tuple  # exponent triples (c1, c2, c3) mod m
    orders: tuple      # invariant-factor orders, aligned with generators

    @property
    def order(self):
        return prod(self.orders)


def compute_G(pi):
    """Deck group of the cover: diagonal m-th root tuples fixing every
    image monomial."""
    rows = [list(exps) for _var, _sign, exps in pi.images]
    gens, orders = kernel_mod(rows, pi.m)
    for g in gens:
        for row in rows:
            if sum(r * c for r, c in zip(row, g)) % pi.m:
                raise AssertionError("deck generator fails invariance")
    return DeckGroup(pi.m, tuple(tuple(g) for g in gens), tuple(orders))


def invariant_characters(G):
    """Characters fixed by the deck group, as a set of (a0, a1, a2, a3)
    tuples with every coordinate in (0, m): alpha with (a1,a2,a3) . c = 0
    mod m for every generator c.

    The triples fixed by G form a group whose order is the product of its
    invariant factors. ValueError when that order exceeds INVARIANT_LIMIT,
    before any element is built.
    """
    m = G.m
    rows = [list(g) for g in G.generators] or [[0, 0, 0]]
    gens, orders = kernel_mod(rows, m)
    order = prod(orders)
    if order > INVARIANT_LIMIT:
        raise ValueError(f"the deck-invariant character group has order {order}, "
                         f"over the limit {INVARIANT_LIMIT}")
    triples = [(0, 0, 0)]
    for (g1, g2, g3), o in zip(gens, orders):
        triples = [((a1 + k * g1) % m, (a2 + k * g2) % m, (a3 + k * g3) % m)
                   for k in range(o) for a1, a2, a3 in triples]
    return {(-(a1 + a2 + a3) % m, a1, a2, a3)
            for a1, a2, a3 in triples if a1 and a2 and a3 and (a1 + a2 + a3) % m}


def is_algebraic(alpha):
    """True when every unit multiple of alpha has weight 2."""
    return all(alpha_norm(alpha.scaled(u)) == 2 for u in units_mod(alpha.m))


def galois_orbit(alpha):
    """The set of unit multiples u * alpha."""
    return {alpha.scaled(u) for u in units_mod(alpha.m)}


def hodge_type(alpha):
    n = alpha_norm(alpha)
    return (n - 1, 3 - n)


def filtered_characters(surface, pi):
    """Every deck-invariant character that is not algebraic, weight one
    first, or the refusal text when not exactly one has weight one: the
    invariant set built one combination of its generators at a time and
    filtered with is_algebraic, as the package did before it took the
    Galois orbit."""
    if not verify_cover(surface, pi):
        raise ValueError("map does not cover the surface")
    m = pi.m
    rows = [list(g) for g in compute_G(pi).generators] or [[0, 0, 0]]
    gens, orders = kernel_mod(rows, m)
    invariant = set()
    for combo in product(*(range(o) for o in orders)):
        a = [sum(lam * g[i] for lam, g in zip(combo, gens)) % m for i in range(3)]
        if 0 not in a and sum(a) % m:
            invariant.add(CharacterVector.from_triple(m, a))
    chars = [a for a in invariant if not is_algebraic(a)]
    chars.sort(key=lambda a: (alpha_norm(a) != 1,) + a.triple)
    weight_one = sum(1 for a in chars if alpha_norm(a) == 1)
    if weight_one != 1:
        raise ValueError(f"not a K3 surface: {weight_one} invariant weight-one characters, "
                         "but h^(2,0) = 1 needs exactly one")
    return chars
