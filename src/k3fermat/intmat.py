"""Exact linear algebra over ZZ and QQ on plain list-of-lists matrices.

Small, dependency-free routines used by the lattice and covering-map code:
Bareiss determinants, Smith normal form with transform tracking, integer
kernels, rational inverses, and the signature and determinant of a
symmetric matrix from one fraction-free (Bareiss) elimination. Every
elimination here runs in integers: fraction_inverse, which only
delsarte.derive_cover calls, forms its Fractions only from its result,
and discriminant forms read their values off the Smith transform. Matrix
sizes here are tiny (rank <= 22), so clarity wins over asymptotics.
"""

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(mat):
    """Determinant of an integer matrix by the Bareiss fraction-free scheme."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat):
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


def integer_kernel(mat):
    """Basis (list of length-nc vectors) for {x in ZZ^nc : mat @ x = 0}.

    The basis is saturated (spans the full kernel sublattice), a property of
    reading off the Smith-form V columns with zero elementary divisor.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    if nr == 0:
        return [[1 if i == j else 0 for i in range(nc)] for j in range(nc)]
    d, _u, v = smith_normal_form(mat)
    cols = []
    for j in range(nc):
        if j >= len(d) or d[j] == 0:
            cols.append([v[r][j] for r in range(nc)])
    return cols


def fraction_inverse(mat):
    """Inverse of a square integer matrix, as Fractions.

    One fraction-free (Bareiss) Gauss-Jordan pass over [A | I]: step k
    forms every row i != k as (p_k a_i - a_ik a_k) / p_(k-1), an exact
    division, so the pass stays in integers. Each step keeps every pivot
    already taken equal to the newest one, so the pass ends at [d I | d A^-1]
    with d = +-det A the last pivot, and the n^2 Fractions are formed only
    then. Raises ValueError if singular.
    """
    n = len(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        ak = a[k]
        p = ak[k]
        for i in range(n):
            if i != k:
                ai = a[i]
                f = ai[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ai, ak)]
        prev = p
    return [[Fraction(x, prev) for x in row[n:]] for row in a]


def symmetric_invariants(gram):
    """((n_plus, n_minus), det) of a symmetric integer matrix in one pass.

    Fraction-free symmetric elimination: Bareiss steps with symmetric row
    and column swaps, and, when every remaining diagonal entry is zero, an
    off-diagonal entry folded into the pivot by adding row and column j to
    row and column k. Both moves are unimodular congruences, so neither
    signature nor determinant changes. Pivot k is then the leading minor
    M_k, the k-th Schur pivot M_k / M_(k-1) has sign sign(M_k) sign(M_(k-1)),
    and the last pivot is the determinant. Raises ValueError on a
    degenerate form.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    raise ValueError("degenerate symmetric form")
                # new diagonal entry 2*a[k][off]
                a[k] = [x + y for x, y in zip(a[k], a[off])]
                for row in a:
                    row[k] += row[off]
        ak = a[k]
        p = ak[k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (p * ai[j] - f * ak[j]) // prev
        prev = p
    return (pos, neg), prev


def signature(gram):
    """Signature (n_plus, n_minus) of a symmetric integer matrix.

    Raises ValueError on a degenerate form.
    """
    return symmetric_invariants(gram)[0]
