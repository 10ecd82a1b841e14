"""Reference lattice helpers for the tests.

lattice.mirror_split finds a hyperbolic plane in a transcendental lattice
by two patterns: a U2 block visible in the stated basis, and the
<2> + (-A2) configuration. Every indefinite catalog T splits on one of
them, so the package no longer carries a third strategy that no catalog
input reached: a search over {-1, 0, 1}^n for an isotropic pair x, y with
x.y = 1. The tests keep that search here.

intmat.smith_normal_form stops its pivot scan at the first unit and skips
the divisibility sweep after a unit pivot. The full scan it must agree
with, operation for operation, is kept here as full_scan_smith_normal_form.
"""

from itertools import product

from k3fermat.intmat import identity
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


def full_scan_smith_normal_form(mat):
    """Return (d, u, v) with u*mat*v diagonal.

    u and v are unimodular; d is the list of diagonal entries, nonnegative,
    each dividing the next. mat is not modified.
    """
    a = [row[:] for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)

    def row_op(i, j, c):  # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col i += c * col j
        for r in range(nr):
            a[r][i] += c * a[r][j]
        for r in range(nc):
            v[r][i] += c * v[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def smallest_nonzero(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        # clear row and column t by division; pivot may need refreshing
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, -q)
                    if a[i][t] != 0:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # divisibility: pivot must divide every remaining entry
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    row_op(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    d = [a[i][i] for i in range(min(nr, nc))]
    for i, di in enumerate(d):
        if di < 0:
            d[i] = -di
            for r in range(nr):
                a[r][i] = -a[r][i]
            for r in range(nc):
                v[r][i] = -v[r][i]
    return d, u, v
