"""Property tests for the two exact cores: discriminant forms read off the
Smith transform, and orbit products over Z[zeta_m] on IntPoly."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3fermat.characters import units_mod
from k3fermat.cyclotomic import CycInt, orbit_product, totient
from k3fermat.intmat import det, fraction_inverse, mat_mul, smith_normal_form, transpose
from k3fermat.lattice import FiniteQuadraticForm, GramLattice, discriminant_form

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


@exact
@given(even_grams())
def test_discriminant_form_is_the_inverse_of_u_g_ut(g):
    form = discriminant_form(GramLattice(g))
    d, u, _v = smith_normal_form(g)
    inverse = fraction_inverse(mat_mul(mat_mul(u, g), transpose(u)))
    keep = [i for i in range(len(g)) if d[i] > 1]
    reference = FiniteQuadraticForm([d[i] for i in keep],
                                    [[inverse[i][j] for j in keep] for i in keep])
    assert form == reference
    assert form.group_order() == abs(det(g))


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
