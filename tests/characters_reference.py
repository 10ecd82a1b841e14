"""Reference character helpers for the tests.

The Delsarte analysis takes the transcendental characters as the Galois
orbit of the one weight-one invariant character, so the package no longer
tests characters one at a time. These helpers keep that direct definition:
the tests compare the package against them.
"""

from itertools import product

from k3fermat.characters import CharacterVector, alpha_norm, units_mod
from k3fermat.delsarte import compute_G, verify_cover
from k3fermat.intmat import kernel_mod


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
