"""Property tests for the two exact cores: the Smith transform and the
discriminant forms read off it, and orbit products over Z[zeta_m]."""

from fractions import Fraction
from itertools import combinations
from itertools import product as iter_product
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_intmat import gauss_jordan_inverse

from k3fermat.catalog import load_catalog
from k3fermat.characters import units_mod
from k3fermat.cyclotomic import CycInt, orbit_product, totient
from k3fermat.intmat import det, mat_mul, smith_normal_form, transpose
from k3fermat.lattice import GramLattice, discriminant_form

exact = settings(deadline=None, max_examples=50)


@st.composite
def even_grams(draw, max_rank=5):
    n = draw(st.integers(1, max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    assume(det(g) != 0)
    return g


def assert_form_is_the_inverse_of_u_g_ut(lattice):
    """The integer form over the exponent e equals the Fraction form
    (u G u^T)^-1 on the Smith generators, entry by entry (values mod 2,
    pairings mod 1) and in the value of every element of a small group."""
    g = lattice.rows()
    form = discriminant_form(lattice)
    d, u, _v = smith_normal_form(g)
    inverse = gauss_jordan_inverse(mat_mul(mat_mul(u, g), transpose(u)))
    keep = [i for i in range(len(g)) if d[i] > 1]
    assert form.orders == tuple(d[i] for i in keep)
    assert form.group_order() == abs(det(g))
    e = form.exponent
    assert e == (d[keep[-1]] if keep else 1)
    assert [[Fraction(x, e) for x in row] for row in form.matrix] == [
        [inverse[i][j] % (2 if i == j else 1) for j in keep] for i in keep]
    if form.group_order() <= 512:
        for x in iter_product(*(range(o) for o in form.orders)):
            reference = sum(x[a] * x[b] * inverse[i][j]
                            for a, i in enumerate(keep) for b, j in enumerate(keep))
            assert Fraction(form.value(x), e) == reference % 2


@exact
@given(even_grams())
def test_discriminant_form_is_the_inverse_of_u_g_ut(g):
    assert_form_is_the_inverse_of_u_g_ut(GramLattice(g))


def test_catalog_discriminant_forms_are_the_inverse_of_u_g_ut():
    lattices = [lat for e in load_catalog() for lat in (e.s_gram, e.t_gram)]
    assert len(lattices) == 32
    for lat in lattices:
        assert_form_is_the_inverse_of_u_g_ut(lat)


def laplace_det(mat):
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum((-1) ** j * mat[0][j] * laplace_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


@st.composite
def integer_matrices(draw, max_size=4):
    nr = draw(st.integers(1, max_size))
    nc = draw(st.integers(1, max_size))
    return [draw(st.lists(st.integers(-6, 6), min_size=nc, max_size=nc)) for _ in range(nr)]


@exact
@given(integer_matrices())
def test_smith_diagonal_products_are_the_minor_gcds(mat):
    # d_1 ... d_k = gcd of all k x k minors (determinantal divisors),
    # which fixes the diagonal without trusting u and v
    d, _u, _v = smith_normal_form(mat)
    rows, cols = range(len(mat)), range(len(mat[0]))
    product = 1
    for k in range(1, min(len(mat), len(mat[0])) + 1):
        product *= d[k - 1]
        minors = [laplace_det([[mat[i][j] for j in cs] for i in rs])
                  for rs in combinations(rows, k) for cs in combinations(cols, k)]
        assert product == gcd(*minors), k


@st.composite
def cyclotomic_integers(draw):
    m = draw(st.sampled_from([3, 4, 5, 7, 8, 9, 12]))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=totient(m), max_size=totient(m)))
    return CycInt(m, coeffs)


@exact
@given(cyclotomic_integers(), st.integers(-5, 5), st.booleans())
def test_comparison_with_an_int_matches_from_integer(v, n, constant):
    if constant:
        v = CycInt.from_integer(v.m, v.coeffs[0])
    assert (v == n) == (v == CycInt.from_integer(v.m, n))
    assert (n == v) == (v == n)


@exact
@given(cyclotomic_integers(), st.integers(-5, 5))
def test_arithmetic_with_an_int_matches_from_integer(v, n):
    c = CycInt.from_integer(v.m, n)
    assert v + n == n + v == v + c
    assert v - n == v - c
    assert n - v == c - v


@exact
@given(cyclotomic_integers())
def test_orbit_product_of_a_full_galois_orbit(v):
    conjugates = [v.galois_apply(u) for u in units_mod(v.m)]
    poly = orbit_product(conjugates)
    trace = CycInt.from_integer(v.m, 0)
    norm = CycInt.from_integer(v.m, 1)
    for w in conjugates:
        trace = trace + w
        norm = norm * (1 - w)
    assert poly.coeff(1) == -trace.as_rational_integer()
    assert poly(1) == norm.as_rational_integer()
