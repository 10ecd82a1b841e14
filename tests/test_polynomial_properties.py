"""Property tests for IntPoly over Z, and parity with the Q[T] routines
that Yun's algorithm once ran on.

gcd, exact quotient and Yun's decomposition work in Z[T]: a gcd is the
primitive polynomial with positive leading coefficient, and quotients are
exact integer divisions. The reference routines below are the Q[T]
versions (monic Euclid and division with Fraction coefficients); over Q
the inputs are drawn with denominators and handed to the Z routines as
integer multiples, which changes neither gcds nor squarefree parts.
"""

import fractions
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fiber_properties import models

from k3fermat.catalog import load_catalog
from k3fermat.cyclotomic import IntPoly, exact_quotient, poly_gcd
from k3fermat.pointcount import (
    _INF,
    _fiber_row,
    _geometric_kind,
    _yun_squarefree,
    geometric_fibers,
)
from zeta_reference import poly_divmod

exact = settings(deadline=None, max_examples=50)

integers = st.integers(-12, 12)
rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)
DOMAINS = {"Z": integers, "Q": rationals}
scales = st.integers(-6, 6).filter(bool)


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


def assert_integral(*ps):
    for p in ps:
        assert all(type(c) is int for c in p.coeffs), p


def is_primitive(p):
    return gcd(*p.coeffs) == 1 and p.coeffs[-1] > 0


def over_z(f):
    """The integer multiple of f by the lcm of its denominators."""
    den = lcm(*(Fraction(c).denominator for c in f.coeffs))
    return IntPoly([int(c * den) for c in f.coeffs])


# ---------------------------------------------------------------------------
# reference routines over Q

def reference_monic(f):
    """f divided by its leading coefficient, over Q; zero stays zero."""
    if not f:
        return f
    lead = Fraction(f.coeffs[-1])
    return IntPoly([c / lead for c in f.coeffs])


def reference_primitive(f):
    """The primitive integer multiple of f in Q[T], positive leading coefficient."""
    if not f:
        return f
    ints = over_z(f).coeffs
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return IntPoly([c // content for c in ints])


def reference_exact_quotient(num, den):
    """num / den over Q; raises ArithmeticError unless den divides num."""
    lead = Fraction(den.coeffs[-1])
    quo, rem = poly_divmod(num, reference_monic(den))
    if rem:
        raise ArithmeticError("division was expected to be exact")
    return IntPoly([c / lead for c in quo.coeffs])


def reference_poly_gcd(a, b):
    """Monic greatest common divisor over Q, by Euclid's algorithm."""
    while b:
        a, b = b, poly_divmod(a, reference_monic(b))[1]
    return reference_monic(a)


def reference_yun_squarefree(f):
    """Yun decomposition prod g_i^i of a nonzero polynomial over Q, as
    (g_i, i) pairs with g_i monic and non-constant."""
    d = f.derivative()
    g = reference_poly_gcd(f, d)
    c = reference_exact_quotient(f, g)
    w = reference_exact_quotient(d, g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        p = reference_poly_gcd(c, w)
        if p.degree > 0:
            out.append((p, i))
        c2 = reference_exact_quotient(c, p)
        w = reference_exact_quotient(w, p) - c2.derivative()
        c = c2
        i += 1
    return out


def reference_split_by_valuation(f, target):
    """The roots of squarefree f by their multiplicity in target, over Q."""
    if not target:
        return [(f, _INF)] if f.degree > 0 else []
    out = []
    rest = target
    roots = f
    v = 0
    while roots.degree > 0:
        deeper = reference_poly_gcd(roots, rest)
        piece = reference_exact_quotient(roots, deeper)
        if piece.degree > 0:
            out.append((piece, v))
        if deeper.degree > 0:
            rest = reference_exact_quotient(rest, deeper)
        roots = deeper
        v += 1
    return out


def reference_geometric_fibers(model):
    """geometric_fibers on the Q[T] routines, rows printed as primitive
    polynomials."""
    disc = model.discriminant()
    rows = []
    for g, vd in reference_yun_squarefree(disc):
        for piece_a, va in reference_split_by_valuation(g, model.a):
            for piece, vb in reference_split_by_valuation(piece_a, model.b):
                kind = _geometric_kind(va, vb, vd)
                if kind != "I0":
                    poly = reference_primitive(piece)
                    rows.append(_fiber_row(poly.format("t"), poly.degree, kind))
    va = 8 - model.a.degree if model.a else _INF
    vb = 12 - model.b.degree if model.b else _INF
    kind = _geometric_kind(va, vb, 24 - disc.degree)
    if kind != "I0":
        rows.append(_fiber_row("inf", 1, kind))
    return rows


both = pytest.mark.parametrize("domain", sorted(DOMAINS))


# ---------------------------------------------------------------------------
# generic arithmetic: any exact coefficient ring

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
def test_derivative_obeys_leibniz(domain, data):
    f = data.draw(polys(DOMAINS[domain]))
    g = data.draw(polys(DOMAINS[domain]))
    assert_exact(f.derivative(), g.derivative())
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    assert (f + g).derivative() == f.derivative() + g.derivative()


# ---------------------------------------------------------------------------
# Z[T]: inputs drawn over the domain, cleared of denominators

@both
@exact
@given(data=st.data())
def test_exact_quotient_inverts_multiplication(domain, data):
    a = data.draw(polys(DOMAINS[domain]))
    b = data.draw(nonzero_polys(DOMAINS[domain]))
    assert reference_exact_quotient(a * b, b) == a
    a, b = over_z(a), over_z(b)
    quo = exact_quotient(a * b, b)
    assert_integral(quo)
    assert quo == a
    if b.degree > 0:
        with pytest.raises(ArithmeticError):
            exact_quotient(a * b + IntPoly([1]), b)
    if any(c % 2 for c in a.coeffs):
        # 2b divides ab over Q but not over Z
        with pytest.raises(ArithmeticError):
            exact_quotient(a * b, b * 2)


@both
@exact
@given(data=st.data())
def test_gcd_is_primitive_and_divides_both(domain, data):
    a = over_z(data.draw(polys(DOMAINS[domain])))
    b = over_z(data.draw(polys(DOMAINS[domain])))
    c = over_z(data.draw(nonzero_polys(DOMAINS[domain], 3)))
    g = poly_gcd(a, b)
    assert_integral(g)
    if not (a or b):
        assert not g
        return
    assert is_primitive(g)
    assert exact_quotient(a, g) * g == a
    assert exact_quotient(b, g) * g == b
    # a common factor comes out in full, up to its content
    assert poly_gcd(a * c, b * c) == (g * c).primitive()


@both
@exact
@given(data=st.data(), s=scales, t=scales)
def test_gcd_matches_the_q_reference(domain, data, s, t):
    a = data.draw(polys(DOMAINS[domain]))
    b = data.draw(polys(DOMAINS[domain]))
    c = data.draw(nonzero_polys(DOMAINS[domain], 3))
    a, b = a * c, b * c
    want = reference_primitive(reference_poly_gcd(a, b))
    # contents and signs of the inputs do not matter
    assert poly_gcd(over_z(a) * s, over_z(b) * t) == want
    assert poly_gcd(over_z(b) * t, over_z(a) * s) == want


@both
@exact
@given(data=st.data(), s=scales)
def test_primitive_part(domain, data, s):
    f = data.draw(nonzero_polys(DOMAINS[domain]))
    p = over_z(f).primitive()
    assert_integral(p)
    assert is_primitive(p)
    assert p == reference_primitive(f) == (over_z(f) * s).primitive()
    assert p.primitive() == p
    assert exact_quotient(over_z(f), p).degree == 0


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
    out = _yun_squarefree(over_z(f))
    product = IntPoly([1])
    for g, i in out:
        assert_integral(g)
        assert is_primitive(g) and g.degree > 0
        assert poly_gcd(g, g.derivative()) == 1
        for _ in range(i):
            product = product * g
    for k, (g, _) in enumerate(out):
        for h, _ in out[:k]:
            assert poly_gcd(g, h) == 1
    assert product == over_z(f).primitive()
    assert [i for _g, i in out] == sorted({i for _g, i in out})
    assert out == [(reference_primitive(g), i) for g, i in reference_yun_squarefree(f)]


# ---------------------------------------------------------------------------
# geometric_fibers against the Q[T] reference

ELLIPTIC = [e for e in load_catalog() if e.elliptic]


@pytest.mark.parametrize("entry", ELLIPTIC, ids=lambda e: f"k{e.k}")
def test_geometric_fibers_match_the_q_reference_on_the_catalog(entry):
    assert geometric_fibers(entry.model) == reference_geometric_fibers(entry.model)


@exact
@given(model=models())
def test_geometric_fibers_match_the_q_reference_at_random(model):
    assert geometric_fibers(model) == reference_geometric_fibers(model)


def test_geometric_fibers_construct_no_fraction(monkeypatch):
    entries = [(e.k, e.model) for e in ELLIPTIC]
    want = {k: reference_geometric_fibers(model) for k, model in entries}

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction constructed while splitting the discriminant")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1)
    for k, model in entries:
        assert geometric_fibers(model) == want[k], k
