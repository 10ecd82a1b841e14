"""Reference lattice helpers for the tests.

lattice.mirror_split finds a hyperbolic plane in a transcendental lattice
by two patterns: a U2 block visible in the stated basis, and the
<2> + (-A2) configuration. Every indefinite catalog T splits on one of
them, so the package no longer carries a third strategy that no catalog
input reached: a search over {-1, 0, 1}^n for an isotropic pair x, y with
x.y = 1. The tests keep that search here.
"""

from itertools import product

from k3fermat.lattice import _complement_of_hyperbolic, _pair

BOX_RANK_LIMIT = 8


def box_mirror_split(t_lat):
    """The complement of the first hyperbolic pair x, y in {-1, 0, 1}^n,
    in lexicographic order, for T of rank n at most BOX_RANK_LIMIT. Raises
    ValueError when the box holds no such pair or T is too large."""
    if t_lat.rank > BOX_RANK_LIMIT:
        raise ValueError(f"rank {t_lat.rank} is over the box limit {BOX_RANK_LIMIT}")
    g = t_lat.gram
    box = product(*[(-1, 0, 1)] * t_lat.rank)
    isotropic = [v for v in box if any(v) and _pair(g, v, v) == 0]
    for x in isotropic:
        for y in isotropic:
            if _pair(g, x, y) == 1:
                return _complement_of_hyperbolic(t_lat, list(x), list(y))
    raise ValueError("no hyperbolic splitting found in the box {-1, 0, 1}^n")
