import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from characters_reference import kernel_mod
from k3fermat import intmat
from k3fermat.catalog import _build_catalog, load_catalog
from k3fermat.intmat import (
    det,
    fraction_inverse,
    identity,
    integer_kernel,
    mat_mul,
    signature,
    smith_normal_form,
    symmetric_invariants,
)


def gauss_det(mat):
    # independent reference: fraction Gaussian elimination
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    assert out.denominator == 1
    return out.numerator


def reference_signature(gram):
    """Independent reference: symmetric Schur-complement reduction over Q."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                for j in range(n):
                    a[k][j], a[swap][j] = a[swap][j], a[k][j]
                for i in range(n):
                    a[i][k], a[i][swap] = a[i][swap], a[i][k]
            else:
                off = next((i for i in range(k + 1, n) if a[k][i] != 0), None)
                if off is None:
                    raise ValueError("degenerate symmetric form")
                # fold row/col `off` into k: new diagonal entry 2*a[k][off]
                for j in range(n):
                    a[k][j] += a[off][j]
                for i in range(n):
                    a[i][k] += a[i][off]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / p
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return pos, neg


def random_mat(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_det_known_values():
    assert det([[2]]) == 2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 1], [1, 2]]) == 3
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_det_matches_gaussian_reference():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_mat(rng, n, n)
        assert det(m) == gauss_det(m)


def test_smith_normal_form_properties():
    rng = random.Random(11)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = random_mat(rng, nr, nc)
        d, u, v = smith_normal_form(m)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        umv = mat_mul(mat_mul(u, m), v)
        for i in range(nr):
            for j in range(nc):
                expect = d[i] if i == j and i < len(d) else 0
                assert umv[i][j] == expect
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 or d[i + 1] == 0
            if d[i] != 0:
                assert d[i + 1] % d[i] == 0
        assert all(x >= 0 for x in d)


def test_smith_diag_example():
    d, _, _ = smith_normal_form([[33, 0, 0], [0, 22, 0], [0, 0, 6]])
    assert d == [1, 66, 66]


def test_integer_kernel():
    basis = integer_kernel([[1, 2, 3]])
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0
    assert integer_kernel([[1, 0], [0, 1]]) == []
    rng = random.Random(13)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        m = random_mat(rng, nr, nc, -4, 4)
        for vec in integer_kernel(m):
            assert all(sum(m[i][j] * vec[j] for j in range(nc)) == 0 for i in range(nr))


def test_kernel_mod_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        m = rng.choice([2, 3, 4, 6, 12])
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        mat = random_mat(rng, nr, nc, 0, m - 1)
        gens, orders = kernel_mod(mat, m)
        # span of the generators
        span = {tuple([0] * nc)}
        for g, o in zip(gens, orders):
            span = {
                tuple((s[j] + c * g[j]) % m for j in range(nc))
                for s in span
                for c in range(o)
            }
        brute = set()
        import itertools

        for x in itertools.product(range(m), repeat=nc):
            if all(sum(mat[i][j] * x[j] for j in range(nc)) % m == 0 for i in range(nr)):
                brute.add(x)
        assert span == brute
        prod = 1
        for o in orders:
            prod *= o
        assert prod == len(brute)


def gauss_jordan_inverse(mat):
    """Inverse by Gauss-Jordan elimination over Fraction, row by row: the
    reference for fraction_inverse."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(deadline=None, max_examples=200)
@given(square_matrices)
def test_fraction_inverse_matches_gauss_jordan(mat):
    if det(mat) == 0:
        with pytest.raises(ValueError):
            fraction_inverse(mat)
    else:
        assert fraction_inverse(mat) == gauss_jordan_inverse(mat)


@settings(deadline=None, max_examples=100)
@given(square_matrices, st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(0, 4))
def test_fraction_inverse_refuses_a_singular_matrix(mat, coeffs, at):
    # one row replaced by a combination of the others
    rows = mat[:-1]
    rows.insert(at % len(mat), [sum(c * row[j] for c, row in zip(coeffs, rows))
                                for j in range(len(mat))])
    with pytest.raises(ValueError, match="singular"):
        fraction_inverse(rows)


def test_fraction_inverse():
    m = [[19, 37, 3], [0, 12, 2], [0, 36, 7]]
    inv = fraction_inverse(m)
    n = len(m)
    prod = [[sum(Fraction(m[i][k]) * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError):
        fraction_inverse([[1, 2], [2, 4]])


def test_signature_basics():
    assert signature([[0, 1], [1, 0]]) == (1, 1)
    assert signature([[2]]) == (1, 0)
    assert signature([[-2, 1], [1, -2]]) == (0, 2)
    with pytest.raises(ValueError):
        signature([[1, 0], [0, 0]])


def test_signature_congruence_invariance():
    # signature of P^T D P equals the sign pattern of D for unimodular P
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 5)
        diag = [rng.choice([-3, -1, 1, 2, 5]) for _ in range(n)]
        p = identity(n)
        for _ in range(6):  # random unimodular transform
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for r in range(n):
                    p[r][i] += c * p[r][j]
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        g = mat_mul(mat_mul([list(r) for r in zip(*p)], d), p)
        want = (sum(1 for x in diag if x > 0), sum(1 for x in diag if x < 0))
        assert signature(g) == want


def _congruent(gram, p):
    return mat_mul(mat_mul([list(r) for r in zip(*p)], gram), p)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of rank 0-10: random entries, optionally a
    zero diagonal, hyperbolic U blocks and a unimodular change of basis."""
    n = draw(st.integers(0, 10))
    entry = st.integers(-6, 6)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entry)
    if draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        for b in range(0, draw(st.integers(1, n // 2)) * 2, 2):
            for i in range(n):
                g[b][i] = g[i][b] = g[b + 1][i] = g[i][b + 1] = 0
            g[b][b + 1] = g[b + 1][b] = 1
    if n >= 2 and draw(st.booleans()):
        p = identity(n)
        for _ in range(draw(st.integers(1, 4))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                c = draw(st.integers(-2, 2))
                for r in range(n):
                    p[r][i] += c * p[r][j]
        g = _congruent(g, p)
    return g


@settings(deadline=None, max_examples=300)
@given(symmetric_matrices())
def test_elimination_matches_schur_reference(g):
    d = det(g)
    try:
        want = reference_signature(g)
    except ValueError:
        assert d == 0
        with pytest.raises(ValueError, match="degenerate"):
            symmetric_invariants(g)
        with pytest.raises(ValueError, match="degenerate"):
            signature(g)
        return
    assert symmetric_invariants(g) == (want, d)
    assert signature(g) == want


@settings(deadline=None, max_examples=150)
@given(symmetric_matrices())
def test_degenerate_input_raises(g):
    # repeat the first basis vector: E g E^T has rank at most len(g)
    n = len(g)
    if n == 0:
        return
    e = identity(n) + [[1] + [0] * (n - 1)]
    singular = mat_mul(mat_mul(e, g), [list(r) for r in zip(*e)])
    assert det(singular) == 0
    with pytest.raises(ValueError, match="degenerate"):
        symmetric_invariants(singular)


def test_zero_diagonal_fold():
    # every diagonal entry zero: the fold makes the pivot 2*a[0][1]
    g = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    assert symmetric_invariants(g) == (reference_signature(g), det(g)) == ((1, 2), 12)
    assert symmetric_invariants([]) == ((0, 0), 1)


def test_catalog_lattices_match_both_references():
    for entry in load_catalog():
        for lat in (entry.s_gram, entry.t_gram):
            g = lat.rows()
            assert lat.signature == reference_signature(g)
            assert lat.determinant == det(g)


def test_catalog_lattices_need_no_fractions(monkeypatch):
    def refuse(*_args):
        raise AssertionError("Fraction used while building Gram lattices")

    monkeypatch.setattr(intmat, "Fraction", refuse)
    entries = _build_catalog()
    assert [(e.s_gram, e.t_gram) for e in entries] == [
        (e.s_gram, e.t_gram) for e in load_catalog()]
