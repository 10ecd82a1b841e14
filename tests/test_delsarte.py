from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_intmat import gauss_jordan_inverse

from characters_reference import (
    DeckGroup,
    compute_G,
    enumerate_A,
    filtered_characters,
    invariant_characters,
)
from k3fermat.catalog import K11_ALTERNATE_EQUATION, load_catalog
from k3fermat.characters import CharacterVector, alpha_norm
from k3fermat.delsarte import (
    INVARIANT_LIMIT,
    MonomialMap,
    SurfaceSyntaxError,
    action_on_form,
    cover_invariant_characters,
    cover_remainder,
    derive_cover,
    parse_surface,
    transcendental_characters,
    verify_cover,
)

# Covering maps exercised below (degree, variable -> signed (eU,eV,eW) image).
MAP_44 = MonomialMap(44, (("y", 1, (22, 11, 0)), ("x", -1, (0, 22, 0)), ("t", -1, (0, 2, 4))))
MAP_19 = MonomialMap(38, (("y", 1, (19, -1, 3)), ("x", -1, (0, 12, 2)), ("t", 1, (0, -2, 6))))
MAP_66 = MonomialMap(66, (("y", 1, (33, 0, 0)), ("x", -1, (0, 22, 0)), ("s", 1, (0, 0, 6))))
# Fermat variables labeled so the character triples come out in table order.
MAP_12 = MonomialMap(12, (("y", 1, (15, 6, 0)), ("x", -1, (10, 0, 4)), ("t", -1, (6, 0, 0))))

EQ_44 = "y^2 = x^3 + x + t^11"
EQ_19 = "y^2 = x^3 + t^7*x - t"
EQ_66_VARIANT = "y^2 = x^3 - 1 - s^11"
EQ_12 = "y^2 = x^3 + t^7 + t^5"


def test_parse_examples():
    s = parse_surface(EQ_19)
    assert s.variables == ("y", "x", "t")
    assert s.terms == ((-1, (2, 0, 0)), (1, (0, 3, 0)), (1, (0, 1, 7)), (-1, (0, 0, 1)))
    s2 = parse_surface("y^2 = u^5 + u*v^5 - 1")
    assert s2.variables == ("y", "u", "v")
    assert len(s2.terms) == 4
    assert (-1, (0, 0, 0)) in s2.terms


def test_parse_errors():
    with pytest.raises(SurfaceSyntaxError) as info:
        parse_surface("y^2 = x^3 +")
    assert info.value.position == 11
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("y^2 == x")
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("y^2 = x^")
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("y^2 = x$3")
    with pytest.raises(ValueError, match="3 variables"):
        parse_surface("a + b + c + d = 0")


def test_parse_normalization():
    # left side negated, duplicate monomials merged, zero terms dropped
    s = parse_surface("t + t = y^2 - y^2 + 2*t + x")
    assert s.terms == ((1, (0, 1)),) if s.variables == ("t", "x") else s.terms
    assert s.variables == ("t", "y", "x")
    assert s.terms == ((1, (0, 0, 1)),)
    s2 = parse_surface("y^2 = 3*t^2*t*2")
    assert s2.terms == ((-1, (2, 0)), (6, (0, 3)))


def test_verify_cover_examples():
    assert verify_cover(parse_surface(EQ_44), MAP_44)
    assert verify_cover(parse_surface(EQ_19), MAP_19)
    assert verify_cover(parse_surface(EQ_66_VARIANT), MAP_66)
    assert verify_cover(parse_surface(EQ_12), MAP_12)
    # flipping t's sign breaks the k=44 cover, with a nonzero remainder
    flipped = MonomialMap(44, (("y", 1, (22, 11, 0)), ("x", -1, (0, 22, 0)), ("t", 1, (0, 2, 4))))
    assert not verify_cover(parse_surface(EQ_44), flipped)
    assert cover_remainder(parse_surface(EQ_44), flipped)


def test_verify_cover_fermat_identity():
    fermat = parse_surface("u^5 + v^5 + w^5 + 1 = 0")
    ident = MonomialMap(5, (("u", 1, (1, 0, 0)), ("v", 1, (0, 1, 0)), ("w", 1, (0, 0, 1))))
    assert verify_cover(fermat, ident)


def test_compute_G_k66():
    G = compute_G(MAP_66)
    assert G.order == 4356
    assert sorted(G.orders) == [66, 66]


def test_compute_G_identity_is_trivial():
    ident = MonomialMap(7, (("u", 1, (1, 0, 0)), ("v", 1, (0, 1, 0)), ("w", 1, (0, 0, 1))))
    G = compute_G(ident)
    assert G.order == 1
    assert G.generators == ()


def _deck_elements(G):
    from itertools import product

    elems = set()
    for combo in product(*(range(o) for o in G.orders)):
        c = [0, 0, 0]
        for lam, g in zip(combo, G.generators):
            for i in range(3):
                c[i] = (c[i] + lam * g[i]) % G.m
        elems.add(tuple(c))
    return elems


def test_deck_group_matches_brute_force():
    for m, rows in ((6, ((2, 0, 0), (0, 3, 0), (0, 0, 1))),
                    (12, ((6, 0, 15), (0, 4, 10), (0, 0, 6))),
                    (10, ((5, 7, -21), (0, 8, -14), (0, 2, -6)))):
        pi = MonomialMap(m, (("a", 1, rows[0]), ("b", 1, rows[1]), ("c", 1, rows[2])))
        G = compute_G(pi)
        brute = {
            (c1, c2, c3)
            for c1 in range(m) for c2 in range(m) for c3 in range(m)
            if all((r[0] * c1 + r[1] * c2 + r[2] * c3) % m == 0 for r in rows)
        }
        assert _deck_elements(G) == brute


def test_invariant_characters_trivial_group():
    G = DeckGroup(5, (), ())
    everything = {a.a for a in enumerate_A(5)}
    assert invariant_characters(G) == everything
    ident = MonomialMap(5, (("u", 1, (1, 0, 0)), ("v", 1, (0, 1, 0)), ("w", 1, (0, 0, 1))))
    assert compute_G(ident).order == 1
    assert cover_invariant_characters(ident) == everything


def test_invariant_characters_matches_brute_filter():
    for m, rows in ((6, ((2, 0, 0), (0, 3, 0), (0, 0, 1))),
                    (12, ((6, 0, 15), (0, 4, 10), (0, 0, 6))),
                    (10, ((5, 7, -21), (0, 8, -14), (0, 2, -6)))):
        pi = MonomialMap(m, (("a", 1, rows[0]), ("b", 1, rows[1]), ("c", 1, rows[2])))
        G = compute_G(pi)
        elems = _deck_elements(G)
        brute = {
            a.a for a in enumerate_A(m)
            if all(sum(x * c for x, c in zip(a.triple, g)) % m == 0 for g in elems)
        }
        assert invariant_characters(G) == brute
        assert cover_invariant_characters(pi) == brute


def test_transcendental_characters_k12():
    chars = transcendental_characters(parse_surface(EQ_12), MAP_12)
    assert [a.triple for a in chars] == [(1, 6, 4), (5, 6, 8), (7, 6, 4), (11, 6, 8)]
    assert alpha_norm(chars[0]) == 1
    assert 22 - len(chars) == 18
    bad = MonomialMap(12, (("y", 1, (6, 0, 15)), ("x", 1, (0, 4, 10)), ("t", -1, (0, 0, 6))))
    with pytest.raises(ValueError, match="cover"):
        transcendental_characters(parse_surface(EQ_12), bad)


def outcome(function, surface, pi):
    """The characters, or the text of the ValueError that refuses them."""
    try:
        return function(surface, pi)
    except ValueError as exc:
        return str(exc)


def test_orbit_equals_the_non_algebraic_filter_on_every_catalog_cover():
    checked = 0
    for e in load_catalog():
        if e.cover is None:
            continue
        surface = e.cover_surface()
        for pi in (e.cover, derive_cover(surface)[1]):
            assert transcendental_characters(surface, pi) == filtered_characters(surface, pi), e.k
        checked += 1
    assert checked == 15
    surface = parse_surface(K11_ALTERNATE_EQUATION)
    pi = derive_cover(surface)[1]
    assert transcendental_characters(surface, pi) == filtered_characters(surface, pi)


def monomial(exponents):
    return "*".join(f"{v}^{e}" for v, e in zip("xyz", exponents) if e) or "1"


four_monomial_terms = st.lists(
    st.tuples(st.sampled_from("+-"), st.tuples(*[st.integers(0, 7)] * 3)),
    min_size=4, max_size=4, unique_by=lambda term: term[1])


@settings(deadline=None, max_examples=150)
@given(four_monomial_terms)
@example([("+", (4, 0, 0)), ("+", (0, 4, 0)), ("+", (0, 0, 4)), ("+", (0, 0, 0))])
@example([("-", (0, 2, 0)), ("+", (3, 0, 0)), ("+", (0, 0, 13)), ("+", (0, 0, 0))])
def test_orbit_equals_the_non_algebraic_filter_on_four_monomial_equations(terms):
    equation = " ".join(f"{sign} {monomial(e)}" for sign, e in terms) + " = 0"
    surface = parse_surface(equation)
    try:
        _m, pi = derive_cover(surface)
    except ValueError:
        assume(False)
    assert (outcome(transcendental_characters, surface, pi)
            == outcome(filtered_characters, surface, pi)), equation


@settings(deadline=None, max_examples=150)
@given(four_monomial_terms)
@example([("+", (5, 0, 0)), ("+", (0, 5, 0)), ("+", (0, 0, 5)), ("+", (0, 0, 0))])
def test_derive_cover_degree_is_the_least_common_denominator(terms):
    # the rows e_i - e_0 span the same lattice whichever term is the pivot,
    # so the least m with m M^-1 integral is the same for every pivot
    equation = " ".join(f"{sign} {monomial(e)}" for sign, e in terms) + " = 0"
    surface = parse_surface(equation)
    try:
        m, _pi = derive_cover(surface)
    except ValueError:
        assume(False)
    exponents = [e for _c, e in surface.terms]
    inverse = gauss_jordan_inverse([[a - b for a, b in zip(e, exponents[0])]
                                    for e in exponents[1:]])
    assert m == lcm(*(f.denominator for row in inverse for f in row)), equation


def test_invariant_group_order_is_refused_over_the_limit_before_enumerating():
    # x^8, y^2 and t^625 give a diagonal cover whose invariant group has
    # order 2 * 8 * 625; the exponent matrix [[2, 1, 0], [1, 69, 0],
    # [0, 0, 73]] has determinant (2 * 69 - 1) * 73
    assert INVARIANT_LIMIT == 10_000
    surface = parse_surface("y^2 = x^8 + t^625 + 1")
    pi = derive_cover(surface)[1]
    with pytest.raises(ValueError) as exc:
        transcendental_characters(surface, pi)
    assert str(exc.value) == ("not a K3 surface: 468 invariant weight-one characters, "
                              "but h^(2,0) = 1 needs exactly one")
    surface = parse_surface("x^2*y + x*y^69 + z^73 + 1 = 0")
    pi = derive_cover(surface)[1]
    with pytest.raises(ValueError) as exc:
        transcendental_characters(surface, pi)
    assert str(exc.value) == ("the deck-invariant character group has order 10001, "
                              "over the limit 10000")


def _sorted_triples(chars):
    # invariant under relabeling all four Fermat coordinates between two covers
    return sorted(tuple(sorted(a.a)) for a in chars)


def test_derive_cover_k44():
    s = parse_surface(EQ_44)
    m, pi = derive_cover(s)
    assert m == 44
    assert pi.term_signs is None
    assert verify_cover(s, pi)
    # same transcendental data as the hand-written map, up to relabeling
    assert _sorted_triples(transcendental_characters(s, pi)) == _sorted_triples(
        transcendental_characters(s, MAP_44)
    )


def test_derive_cover_k19_degree():
    s = parse_surface(EQ_19)
    m, pi = derive_cover(s)
    assert m == 38
    assert pi.term_signs is None
    assert _sorted_triples(transcendental_characters(s, pi)) == _sorted_triples(
        transcendental_characters(s, MAP_19)
    )


def test_derive_cover_fermat_identity():
    fermat = parse_surface("u^5 + v^5 + w^5 + 1 = 0")
    m, pi = derive_cover(fermat)
    assert m == 5
    assert pi.term_signs is None
    assert [pi.image(v) for v in "uvw"] == [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]


def test_derive_cover_sign_variant_fixture_w():
    # -y^2 and +1 cannot rescale to a common sign, so the map covers the
    # variant with the constant flipped; the exponent data is unaffected.
    s = parse_surface("y^2 = x^3 + t^7*x + 1")
    m, pi = derive_cover(s)
    assert m == 42
    assert pi.term_signs == (1, 1, 1, -1)
    assert verify_cover(s, pi)
    chars = transcendental_characters(s, pi)
    assert len(chars) == 6
    assert 22 - len(chars) == 16


def test_derive_cover_sign_variant_fixture_z():
    # the even x^2 term forces a variant here as well
    s = parse_surface("y^2 = x^3 + x^2 + t^11")
    m, pi = derive_cover(s)
    assert m == 22
    assert pi.term_signs == (1, 1, -1, 1)
    assert verify_cover(s, pi)
    assert len(transcendental_characters(s, pi)) == 10


def test_derive_cover_errors():
    with pytest.raises(ValueError, match="four monomials"):
        derive_cover(parse_surface("y^2 = x^3 + t^7*x + t + 1"))
    with pytest.raises(ValueError, match="three variables"):
        derive_cover(parse_surface("y^2 = y^3 + y^5 + 1"))
    with pytest.raises(ValueError, match="singular"):
        derive_cover(parse_surface("1 + u*w + v*w + u*v*w^2 = 0"))
    with pytest.raises(ValueError, match="coefficients"):
        derive_cover(parse_surface("y^2 = x^3 + 2*t^6 + t^5"))


def test_action_on_form_examples():
    s66 = parse_surface("y^2 = x^3 - t^12 - t")
    assert action_on_form(s66, 66, {"x": 2, "y": 3, "t": 6}) == (5, True)
    s12 = parse_surface(EQ_12)
    assert action_on_form(s12, 12, {"x": 2, "y": 3, "t": 6}) == (5, True)
    s25 = parse_surface("y^2 = u^5 + u*v^5 - 1")
    assert action_on_form(s25, 25, {"u": 20, "v": 1, "y": 0}) == (21, True)
    # doubling the k=66 action keeps the equation but loses primitivity
    assert action_on_form(s66, 66, {"x": 4, "y": 6, "t": 12}) == (10, False)
    with pytest.raises(ValueError, match="preserve"):
        action_on_form(s66, 66, {"x": 1, "y": 1, "t": 1})
    with pytest.raises(ValueError, match="missing"):
        action_on_form(s66, 66, {"x": 2, "y": 3})
