"""Even lattices and the finite quadratic forms on their discriminant groups.

Everything here is computed in integers. Gram matrices are plain integer
matrices. A lattice stated by its Gram matrix takes its signature and
determinant from one fraction-free elimination of that matrix; a direct
sum and a twist take theirs from their blocks, as signatures add and
determinants multiply over an orthogonal sum. Smith forms come from
intmat. A discriminant form holds its values in Q/2Z and its pairings in
Q/Z as integer numerators over the group exponent e, so n stands for n/e.
Discriminant forms are compared by brute-force isomorphism search, which
certifies genus-level equality (signature plus discriminant form) without
normal-form theory; the groups involved here are tiny. Heights of
Mordell-Weil generators are reduced (numerator, denominator) pairs; they
and the hyperbolic splittings behind mirror partners live here too. The
fiber root lattices that disc_from_height multiplies come from
pointcount.kodaira_lattice, which every point count reads as well.

The catalog builds its lattices from this module on their first read,
and zeta and count read none, so neither command imports it.
"""

from itertools import product as iter_product
from math import gcd, lcm, prod

from .characters import Record, rational_text
from .intmat import (
    integer_kernel,
    mat_mul,
    smith_normal_form,
    symmetric_invariants,
    transpose,
)
from .pointcount import kodaira_lattice

FQF_ORDER_CAP = 10 ** 4


class GramLattice(Record):
    """Non-degenerate symmetric integer bilinear form on Z^rank.

    GramLattice(gram) checks that gram is square, symmetric and
    non-degenerate, and reads the signature and determinant off one
    fraction-free elimination of it. direct_sum and twisted assemble new
    Gram matrices from lattices that are already checked, and derive the
    invariants from those lattices' invariants instead of eliminating
    again. discriminant_form keeps the form it computes in the slot
    _form, outside the fields, so a lattice takes at most one Smith form.
    """

    _fields = ("gram", "rank", "signature", "determinant")
    __slots__ = _fields + ("_form",)

    def __init__(self, gram):
        rows = tuple(tuple(int(x) for x in row) for row in gram)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i}, {j})")
        try:
            sig, d = symmetric_invariants(rows)
        except ValueError:
            raise ValueError("Gram matrix is degenerate") from None
        self._set(rows, n, sig, d)

    @classmethod
    def _assembled(cls, rows, signature, determinant):
        """A lattice on rows (a tuple of int tuples) whose signature and
        determinant the caller has derived from checked blocks."""
        lat = object.__new__(cls)
        lat._set(rows, len(rows), signature, determinant)
        return lat

    def rows(self):
        return [list(row) for row in self.gram]

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def twisted(self, sign):
        """The lattice with form sign * (x, y). Negating the form swaps
        (n_plus, n_minus) and multiplies the determinant by (-1)^rank."""
        if sign not in (1, -1):
            raise ValueError("twist must be +1 or -1")
        if sign == 1:
            return self
        plus, minus = self.signature
        return GramLattice._assembled(
            tuple(tuple(-x for x in row) for row in self.gram),
            (minus, plus), (-1) ** self.rank * self.determinant)

    def __repr__(self):
        return f"GramLattice(rank={self.rank}, det={self.determinant}, sig={self.signature})"


def _dynkin_chain_with_branch(n):
    # A-chain on nodes 0..n-2 plus node n-1 attached to node 2; arm lengths
    # 2, 1, n-4 off the branch node give E6, E7, E8 for n = 6, 7, 8
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    g[2][n - 1] = g[n - 1][2] = -1
    return g


def standard_lattice(name, n=None, twist=1):
    """Named Gram matrices: U2, A (needs n), E6/E7/E8, twisted by
    twist = +1 or -1. Any other Gram matrix is GramLattice(gram)."""
    if name == "U2":
        g = [[0, 1], [1, 0]]
    elif name == "A":
        if n is None or n < 1:
            raise ValueError("A-series needs a rank n >= 1")
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2
        for i in range(n - 1):
            g[i][i + 1] = g[i + 1][i] = -1
    elif name in ("E6", "E7", "E8"):
        g = _dynkin_chain_with_branch(int(name[1]))
    else:
        raise ValueError(f"unknown lattice name {name!r}")
    return GramLattice(g).twisted(twist)


def direct_sum(*lattices):
    """The orthogonal sum of lattices, as a block-diagonal Gram matrix.

    Its signature is the sum of the blocks' signatures and its
    determinant the product of theirs, so no elimination runs here: each
    block already carries its own, from GramLattice(gram) or from the
    same rules.
    """
    total = sum(lat.rank for lat in lattices)
    rows = []
    offset = 0
    for lat in lattices:
        left = (0,) * offset
        right = (0,) * (total - offset - lat.rank)
        rows += [left + row + right for row in lat.gram]
        offset += lat.rank
    signature = (sum(lat.signature[0] for lat in lattices),
                 sum(lat.signature[1] for lat in lattices))
    return GramLattice._assembled(
        tuple(rows), signature, prod(lat.determinant for lat in lattices))


class FiniteQuadraticForm(Record):
    """Quadratic form on a finite abelian group, values in Q/2Z.

    orders: invariant factors (each > 1, ascending divisibility chain), so
    the group exponent e is orders[-1] (1 for the trivial group).
    matrix[i][j]: integer numerators over e, generator pairings in Q/Z
    (reduced mod e) off the diagonal and generator values in Q/2Z (reduced
    mod 2e) on it.
    """

    __slots__ = _fields = ("orders", "exponent", "matrix")

    def __init__(self, orders, matrix):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise ValueError("orders must all exceed 1")
        e = orders[-1] if orders else 1
        r = len(orders)
        m = [[int(matrix[i][j]) % (2 * e if i == j else e) for j in range(r)]
             for i in range(r)]
        if any(m[i][j] != m[j][i] for i in range(r) for j in range(i)):
            raise ValueError("pairing matrix must be symmetric")
        self._set(orders, e, tuple(tuple(row) for row in m))

    def group_order(self):
        return prod(self.orders)

    def value(self, coeffs):
        """q(sum coeffs[i] * g_i) in Q/2Z, as its numerator over e mod 2e."""
        total = 0
        r = len(self.orders)
        for i in range(r):
            if coeffs[i] % self.orders[i]:
                total += coeffs[i] * coeffs[i] * self.matrix[i][i]
        for i in range(r):
            for j in range(i + 1, r):
                total += 2 * coeffs[i] * coeffs[j] * self.matrix[i][j]
        return total % (2 * self.exponent)

    def pairing(self, a, b):
        """b(x, y) in Q/Z, as its numerator over e mod e."""
        total = 0
        r = len(self.orders)
        for i in range(r):
            for j in range(r):
                total += a[i] * b[j] * self.matrix[i][j]
        return total % self.exponent

    def negated(self):
        r = len(self.orders)
        return FiniteQuadraticForm(
            self.orders, [[-self.matrix[i][j] for j in range(r)] for i in range(r)]
        )

    def __repr__(self):
        vals = ", ".join(f"{self.matrix[i][i]}/{self.exponent}" for i in range(len(self.orders)))
        return f"FiniteQuadraticForm(orders={self.orders}, q=({vals}))"


def discriminant_form(lattice):
    """The form x -> x^2 on dual-quotient generators read off the Smith form.

    A unimodular lattice (|det| = 1, known from its elimination) has the
    trivial form and needs no Smith form. The form is kept on the lattice,
    which is immutable, so a second call returns it with no Smith form.
    """
    if not lattice.is_even():
        raise ValueError("discriminant form needs an even lattice")
    form = getattr(lattice, "_form", None)
    if form is not None:
        return form
    n = lattice.rank
    if abs(lattice.determinant) == 1:
        form = FiniteQuadraticForm((), ())
    else:
        g = lattice.rows()
        d, _u, v = smith_normal_form(g)
        # u*G*v = diag(d), so G Z^n = u^{-1} diag(d) Z^n and the class of
        # u^{-1} e_i generates the i-th cyclic factor; its dual vector is
        # G^{-1} u^{-1} e_i = v e_i / d_i, giving value matrix
        # (v^T G v)_ij / (d_i d_j), which is (u G u^T)^{-1} as G is symmetric.
        # G v e_j = d_j u^{-1} e_j, so d_j divides w_ij, and the numerator
        # over the exponent e is (w_ij / d_j) (e / d_i), an integer
        keep = [i for i in range(n) if d[i] > 1]
        orders = [d[i] for i in keep]
        if prod(orders) != abs(lattice.determinant):
            raise AssertionError("group order does not match the determinant")
        e = orders[-1]
        vk = [[row[i] for i in keep] for row in v]
        w = mat_mul(mat_mul(transpose(vk), g), vk)
        form = FiniteQuadraticForm(
            orders, [[w[a][b] // db * (e // da) for b, db in enumerate(orders)]
                     for a, da in enumerate(orders)])
    object.__setattr__(lattice, "_form", form)
    return form


def _element_order(coeffs, orders):
    n = 1
    for c, d in zip(coeffs, orders):
        n = lcm(n, d // gcd(c, d))
    return n


def fqf_equivalent(q1, q2):
    """True iff some group isomorphism carries q1 to q2 (search, pruned)."""
    if q1.orders != q2.orders:
        return False
    r = len(q1.orders)
    if r == 0:
        return True
    if q1.group_order() > FQF_ORDER_CAP:
        raise ValueError(f"group order exceeds the search cap {FQF_ORDER_CAP}")
    elements = list(iter_product(*[range(d) for d in q1.orders]))
    by_value = {}
    for el in elements:
        by_value.setdefault((q2.value(el), _element_order(el, q1.orders)), []).append(el)

    def span_is_everything(images):
        seen = {tuple(0 for _ in q1.orders)}
        frontier = [tuple(0 for _ in q1.orders)]
        while frontier:
            cur = frontier.pop()
            for img in images:
                nxt = tuple((a + b) % d for a, b, d in zip(cur, img, q1.orders))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == q1.group_order()

    def extend(i, chosen):
        if i == r:
            return span_is_everything(chosen)
        want_value = q1.matrix[i][i]
        for cand in by_value.get((want_value, q1.orders[i]), []):
            ok = True
            for j, prev in enumerate(chosen):
                if q2.pairing(prev, cand) != q1.matrix[j][i]:
                    ok = False
                    break
            if ok and extend(i + 1, chosen + [cand]):
                return True
        return False

    return extend(0, [])


def _correction(term):
    """The local correction of one fiber term, as (numerator, denominator)."""
    kind = term[0]
    if kind == "E6":
        return 4, 3
    if kind == "E7":
        return 3, 2
    if kind == "A":
        _, n, j = term
        if n < 2 or not 1 <= j <= n - 1:
            raise ValueError(f"invalid component index in {term}")
        return j * (n - j), n
    raise ValueError(f"unknown correction term {term}")


def height(pai, corrections):
    """h(P) = 4 + 2 (P.O) - sum of the correction terms, as a reduced
    (numerator, denominator) pair with a positive denominator.

    pai is (P.O), the intersection number with the zero section. Each
    correction is ("A", n, j) for a fiber with n components in a cycle
    (I_n, III, IV) met in component j, or ("E6",) / ("E7",). ValueError
    for a negative pai or a term that is unknown or out of range.
    """
    if pai < 0:
        raise ValueError("(P.O) must be nonnegative")
    num, den = 4 + 2 * pai, 1
    for term in corrections:
        cn, cd = _correction(tuple(term))
        num, den = num * cd - cn * den, den * cd
    g = gcd(num, den)
    return num // g, den // g


def disc_from_height(h, fibers):
    """disc(S_X) = h(P) * prod disc(F_v), reported with the hyperbolic sign.

    h is a (numerator, denominator) pair with a positive denominator.
    """
    num, den = h
    for kind in fibers:
        num *= kodaira_lattice(kind)[1]
    if num % den or num <= 0:
        raise ValueError("height times fiber discriminants is not a positive "
                         f"integer: {rational_text((num, den))}")
    return -(num // den)


def nikulin_complement_check(s_lat, t_lat):
    """Genus-level complementarity inside the K3 lattice.

    Ranks must sum to 22, signatures to (3, 19), and the discriminant
    forms must satisfy q_S = -q_T.
    """
    if s_lat.rank + t_lat.rank != 22:
        return False
    sig_sum = (
        s_lat.signature[0] + t_lat.signature[0],
        s_lat.signature[1] + t_lat.signature[1],
    )
    if sig_sum != (3, 19):
        return False
    return fqf_equivalent(discriminant_form(s_lat), discriminant_form(t_lat).negated())


def _pair(gram, a, b):
    return mat_mul(mat_mul([a], gram), transpose([b]))[0][0]


def _complement_of_hyperbolic(lattice, x, y):
    g = lattice.rows()
    basis = integer_kernel(mat_mul([x, y], g))
    if len(basis) != lattice.rank - 2:
        raise AssertionError("hyperbolic complement has wrong rank")
    return GramLattice(mat_mul(mat_mul(basis, g), transpose(basis)) if basis else [])


def mirror_split(t_lat):
    """Split T = U2 + complement and return the complement, or "none".

    A definite T admits no isotropic vectors, so no splitting exists. For
    indefinite T, first look for a visible U2 block in the stated basis,
    then for the <2> + (-A2) configuration whose vectors b+a1, b+a1+a2
    span a hyperbolic plane. Every indefinite catalog T splits on one of
    the two; any other lattice raises ValueError.
    """
    g = t_lat.gram
    n = t_lat.rank
    if 0 in t_lat.signature:
        return "none"
    # visible block: rows i, j vanish outside the 2x2 hyperbolic corner
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][i] or g[j][j] or abs(g[i][j]) != 1:
                continue
            if all(g[i][c] == 0 and g[j][c] == 0 for c in range(n) if c not in (i, j)):
                keep = [c for c in range(n) if c not in (i, j)]
                return GramLattice([[g[a][b] for b in keep] for a in keep])
    # b + a1, b + a1 + a2 with b^2 = 2 and <a1, a2> a (-A2) block
    for i in range(n):
        if g[i][i] != 2:
            continue
        for j in range(n):
            if j == i or g[j][j] != -2 or g[i][j] != 0:
                continue
            for k in range(n):
                if k in (i, j) or g[k][k] != -2 or g[i][k] != 0 or abs(g[j][k]) != 1:
                    continue
                s = g[j][k]
                x = [0] * n
                y = [0] * n
                x[i] = 1
                x[j] = 1
                y[i] = 1
                y[j] = 1
                y[k] = s
                if _pair(g, x, x) == 0 and _pair(g, y, y) == 0 and _pair(g, x, y) == 1:
                    return _complement_of_hyperbolic(t_lat, x, y)
    raise ValueError("no hyperbolic splitting found; lattice may need a larger search")
