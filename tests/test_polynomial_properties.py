"""Property tests for IntPoly over Z and over Q (Fraction coefficients)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3fermat.cyclotomic import IntPoly, exact_quotient, poly_divmod, poly_gcd
from k3fermat.pointcount import _yun_squarefree

exact = settings(deadline=None, max_examples=50)

integers = st.integers(-12, 12)
rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)
DOMAINS = {"Z": integers, "Q": rationals}


def polys(coeffs, max_degree=5):
    return st.lists(coeffs, max_size=max_degree + 1).map(IntPoly)


def nonzero_polys(coeffs, max_degree=5):
    return polys(coeffs, max_degree).filter(bool)


def monic_polys(coeffs, max_degree=4):
    return st.lists(coeffs, max_size=max_degree).map(lambda cs: IntPoly(cs + [1]))


def assert_exact(*ps):
    for p in ps:
        for c in p.coeffs:
            assert type(c) in (int, Fraction), f"{type(c).__name__} coefficient {c!r} in {p!r}"


def is_monic(p):
    return p.coeffs[-1] == 1


both = pytest.mark.parametrize("domain", sorted(DOMAINS))


@both
@exact
@given(data=st.data())
def test_divmod_by_monic_divisor(domain, data):
    num = data.draw(polys(DOMAINS[domain], 8))
    den = data.draw(monic_polys(DOMAINS[domain]))
    quo, rem = poly_divmod(num, den)
    assert_exact(quo, rem)
    assert quo * den + rem == num
    assert rem.degree < den.degree


@both
@exact
@given(data=st.data())
def test_exact_quotient_inverts_multiplication(domain, data):
    a = data.draw(polys(DOMAINS[domain]))
    b = data.draw(nonzero_polys(DOMAINS[domain]))
    quo = exact_quotient(a * b, b)
    assert_exact(quo)
    assert quo == a
    if b.degree > 0:
        with pytest.raises(ArithmeticError):
            exact_quotient(a * b + IntPoly([1]), b)


@both
@exact
@given(data=st.data())
def test_gcd_is_monic_and_divides_both(domain, data):
    a = data.draw(polys(DOMAINS[domain]))
    b = data.draw(polys(DOMAINS[domain]))
    c = data.draw(nonzero_polys(DOMAINS[domain], 3))
    g = poly_gcd(a, b)
    assert_exact(g)
    if not (a or b):
        assert not g
        return
    assert is_monic(g)
    assert exact_quotient(a, g) * g == a
    assert exact_quotient(b, g) * g == b
    # a common factor comes out in full
    assert poly_gcd(a * c, b * c) == (g * c).monic()


@both
@exact
@given(data=st.data())
def test_primitive_part(domain, data):
    f = data.draw(nonzero_polys(DOMAINS[domain]))
    p = f.primitive()
    assert_exact(p)
    assert all(type(c) is int for c in p.coeffs)
    assert gcd(*p.coeffs) == 1
    assert p.coeffs[-1] > 0
    assert p.monic() == f.monic()
    assert p.primitive() == p


@both
@exact
@given(data=st.data())
def test_derivative_obeys_leibniz(domain, data):
    f = data.draw(polys(DOMAINS[domain]))
    g = data.draw(polys(DOMAINS[domain]))
    assert_exact(f.derivative(), g.derivative())
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    assert (f + g).derivative() == f.derivative() + g.derivative()


@both
@exact
@given(data=st.data())
def test_monic(domain, data):
    f = data.draw(nonzero_polys(DOMAINS[domain]))
    m = f.monic()
    assert_exact(m)
    assert is_monic(m)
    assert m * f.coeffs[-1] == f


@both
@exact
@given(data=st.data())
def test_yun_factors_reassemble(domain, data):
    coeffs = DOMAINS[domain]
    lead = data.draw(coeffs.filter(bool))
    factors = data.draw(st.lists(
        st.tuples(nonzero_polys(coeffs, 2).filter(lambda p: p.degree > 0),
                  st.integers(1, 3)),
        min_size=1, max_size=3))
    f = IntPoly([lead])
    for p, e in factors:
        for _ in range(e):
            f = f * p
    out = _yun_squarefree(f)
    product = IntPoly([1])
    for g, i in out:
        assert_exact(g)
        assert is_monic(g) and g.degree > 0
        assert poly_gcd(g, g.derivative()) == 1
        for _ in range(i):
            product = product * g
    assert product == f.monic()
    assert [i for _g, i in out] == sorted({i for _g, i in out})
