"""Catalog fixtures: shape, equations, actions, covers, lattices, reports."""

import re
from collections import Counter
from fractions import Fraction

import pytest

from characters_reference import galois_orbit
from k3fermat import catalog, cli, delsarte
from k3fermat.catalog import (
    K11_ALTERNATE_EQUATION,
    NON_UNIMODULAR_ORDERS,
    ORDERS,
    K3CatalogEntry,
    SectionRecord,
    UNIMODULAR_ORDERS,
    catalog_as_dicts,
    catalog_entry,
    entry_as_dict,
    load_catalog,
    read_equation,
    section_satisfies,
    transcendental_row,
    verify_entry,
)
from k3fermat.characters import CharacterVector, alpha_norm, units_mod
from k3fermat.cyclotomic import IntPoly
from k3fermat.delsarte import (
    MonomialMap,
    action_on_form,
    derive_cover,
    parse_surface,
    transcendental_characters,
    verify_cover,
)
from k3fermat.lattice import discriminant_form, kodaira_lattice, nikulin_complement_check
from k3fermat.pointcount import geometric_fibers


def phi(k):
    return len(units_mod(k))


# ---------------------------------------------------------------------------
# shape and bookkeeping

def test_catalog_shape():
    cat = load_catalog()
    assert [e.k for e in cat] == list(ORDERS)
    assert len(cat) == 16
    assert len(UNIMODULAR_ORDERS) == 6 and len(NON_UNIMODULAR_ORDERS) == 10
    for e in cat:
        expected = "unimodular" if e.k in UNIMODULAR_ORDERS else "non-unimodular"
        assert e.lattice_class == expected
        assert e.t_gram.rank == phi(e.k)
        assert e.s_gram.rank == 22 - phi(e.k)
        if e.k == 3:
            assert e.m is None and e.cover is None
            assert e.expected_characters is None
            assert e.mirror_partner == "none"
        elif e.k in UNIMODULAR_ORDERS:
            assert e.m == e.k
        else:
            assert e.m == 2 * e.k
    assert [e.k for e in cat if not e.elliptic] == [25]
    assert catalog_entry(25).sextic_coeffs() == {(5, 0): 1, (1, 5): 1, (0, 0): -1}


def test_catalog_entry_unknown_order():
    with pytest.raises(ValueError, match="no catalog entry"):
        catalog_entry(8)
    with pytest.raises(ValueError, match="no catalog entry"):
        catalog_entry(14)


def tpoly(*pairs):
    """Integer polynomial in t from (degree, coefficient) pairs."""
    coeffs = [0] * (1 + max((d for d, _c in pairs), default=-1))
    for d, c in pairs:
        coeffs[d] = c
    return IntPoly(coeffs)


# (A, B) of each elliptic entry, typed out independently of its equation
WEIERSTRASS = {
    66: (tpoly(), tpoly((12, -1), (1, -1))),
    44: (tpoly((0, 1)), tpoly((11, 1))),
    42: (tpoly(), tpoly((12, -1), (5, -1))),
    36: (tpoly(), tpoly((11, -1), (5, -1))),
    28: (tpoly((0, 1)), tpoly((7, 1))),
    12: (tpoly(), tpoly((7, 1), (5, 1))),
    19: (tpoly((7, 1)), tpoly((1, -1))),
    17: (tpoly((7, 1)), tpoly((2, -1))),
    13: (tpoly((5, 1)), tpoly((1, -1))),
    11: (tpoly((5, 1)), tpoly((2, -1))),
    7: (tpoly((3, 1)), tpoly((8, -1))),
    5: (tpoly((3, 1)), tpoly((7, -1))),
    27: (tpoly(), tpoly((10, -1), (1, -1))),
    9: (tpoly(), tpoly((8, -1), (5, -1))),
    3: (tpoly(), tpoly((7, 1), (6, -2), (5, 1))),
}


def test_defining_equations():
    assert catalog_entry(66).equation == "y^2 = x^3 - t^12 - t"
    assert catalog_entry(25).equation == "y^2 = u^5 + u*v^5 - 1"
    for e in load_catalog():
        assert len(parse_surface(e.equation).variables) == 3
        if e.k == 25:
            assert e.model is None
            assert e.sextic == ((5, 0, 1), (1, 5, 1), (0, 0, -1))
        else:
            # the model is read off the equation, not stated a second time
            assert (e.model.a, e.model.b) == WEIERSTRASS[e.k], e.k
            assert e.sextic is None
    assert sorted(WEIERSTRASS) == sorted(e.k for e in load_catalog() if e.elliptic)


def test_cover_equation_defaults_to_the_equation():
    substituted = {66: "y^2 = x^3 - 1 - s^11", 42: "y^2 = x^3 - 1 - s^7"}
    for e in load_catalog():
        if e.cover is None:
            assert e.cover_equation is None
        else:
            assert e.cover_equation == substituted.get(e.k, e.equation), e.k


@pytest.mark.parametrize("text, message", [
    (K11_ALTERNATE_EQUATION, "is not y^2 = x^3 + A(t)*x + B(t)"),
    ("x^3 = y^2 + t", "not of the form y^2 = f"),
    ("2*y^2 = x^3 + t", "not of the form y^2 = f"),
    ("y^2 = x^3 + y*t + 1", "not of the form y^2 = f"),
    ("y^2 = x^3 + t^9*x + 1", "deg A = 9 exceeds 8"),
    ("y^2 = t^5*x + 1", "is not y^2 = x^3 + A(t)*x + B(t)"),
    ("y^2 = 2*x^3 + t", "is not y^2 = x^3 + A(t)*x + B(t)"),
    ("y^2 = x^3 + u^5 + 1", "neither"),
    ("y^2 = x^3 + x + 1", "neither"),
])
def test_read_equation_refuses_other_shapes(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_equation(text)


def test_default_zeta_primes():
    expected = {
        66: (67, 199), 44: (89, 353), 42: (43, 127), 36: (37, 73),
        28: (29, 113), 12: (13, 37), 19: (191, 229), 17: (103, 137),
        13: (53, 79), 11: (23, 67), 7: (29, 43), 5: (11, 31),
        27: (109, 163), 9: (19, 37), 3: (5, 7, 11, 13), 25: (101, 151),
    }
    for e in load_catalog():
        assert e.zeta_primes == expected[e.k]
        if e.m is not None:
            assert all(q % e.m == 1 for q in e.zeta_primes)


# ---------------------------------------------------------------------------
# automorphism actions

def test_actions_preserve_equations():
    for e in load_catalog():
        surface = parse_surface(e.equation)
        act = dict(zip(e.action_vars, e.action))
        expo, primitive = action_on_form(surface, e.k, act)
        assert primitive, e.k


def test_action_exponents():
    assert catalog_entry(66).action == (2, 3, 6)
    assert catalog_entry(44).action == (22, 11, 2)
    assert catalog_entry(19).action == (7, 1, 2)
    assert catalog_entry(3).action == (1, 0, 0)
    e25 = catalog_entry(25)
    assert e25.action_vars == ("u", "v", "y")
    assert e25.action == (20, 1, 0)


# ---------------------------------------------------------------------------
# character rows

def test_rows_are_single_orbits():
    for e in load_catalog():
        if e.expected_characters is None:
            continue
        chars = [CharacterVector.from_triple(e.m, t) for t in e.expected_characters]
        assert len(chars) == phi(e.k) == len(set(chars))
        assert galois_orbit(chars[0]) == set(chars)
        norms = sorted(alpha_norm(c) for c in chars)
        assert norms[0] == 1 and norms[-1] == 3
        assert norms.count(1) == 1 and norms.count(3) == 1


def test_printed_first_element_weight():
    # the unique weight-one character leads the stored row only for these
    leading = set()
    for e in load_catalog():
        if e.expected_characters is None:
            continue
        first = CharacterVector.from_triple(e.m, e.expected_characters[0])
        if alpha_norm(first) == 1:
            leading.add(e.k)
    assert leading == {66, 42, 36, 12, 9}


def test_transcendental_row_normalized():
    for e in load_catalog():
        if e.expected_characters is None:
            continue
        row = transcendental_row(e.k)
        assert alpha_norm(row[0]) == 1
        assert {c.triple for c in row} == set(e.expected_characters)
    with pytest.raises(ValueError, match="order 3"):
        transcendental_row(3)


# ---------------------------------------------------------------------------
# covering maps

def test_stored_covers_verify():
    for e in load_catalog():
        if e.cover is None:
            continue
        surface = e.cover_surface()
        assert verify_cover(surface, e.cover), e.k
        assert e.cover.m == e.m
        found = transcendental_characters(surface, e.cover)
        expected = {CharacterVector.from_triple(e.m, t) for t in e.expected_characters}
        assert set(found) == expected, e.k


def test_derived_covers_match_up_to_coordinates():
    # derive_cover picks its own Fermat coordinates; the degree and the
    # multiset of sorted character tuples are coordinate-free invariants
    for e in load_catalog():
        if e.cover is None:
            continue
        surface = e.cover_surface()
        m, pi = derive_cover(surface)
        assert m == e.m, e.k
        derived = sorted(tuple(sorted(c.a)) for c in transcendental_characters(surface, pi))
        stored = sorted(tuple(sorted(CharacterVector.from_triple(e.m, t).a))
                        for t in e.expected_characters)
        assert derived == stored, e.k


def test_alternate_order_11_fibration():
    surface = parse_surface(K11_ALTERNATE_EQUATION)
    m, pi = derive_cover(surface)
    assert m == 22
    assert len(transcendental_characters(surface, pi)) == 10


# ---------------------------------------------------------------------------
# lattices and sections

def test_lattice_determinants():
    dets = {e.k: (e.s_gram.determinant, e.t_gram.determinant) for e in load_catalog()}
    assert dets == {
        66: (-1, 1), 44: (-1, 1), 42: (-1, 1), 36: (-1, 1), 28: (-1, 1),
        12: (-1, 1), 19: (-19, 19), 17: (-17, 17), 13: (-13, 13),
        11: (-11, 11), 7: (-7, 7), 5: (-5, 5), 27: (-3, 3), 9: (-3, 3),
        3: (-3, 3), 25: (-5, 5),
    }
    for e in load_catalog():
        assert nikulin_complement_check(e.s_gram, e.t_gram), e.k


def test_sections_satisfy_equations():
    heights = {19: (19, 2), 17: (17, 6), 13: (13, 2), 11: (11, 6), 7: (7, 6), 5: (5, 2)}
    for k, h in heights.items():
        e = catalog_entry(k)
        assert e.section is not None
        assert section_satisfies(e.model, e.section), k
        assert e.mw_height == e.section.height() == h
    assert all(catalog_entry(k).section is None
               for k in (66, 44, 42, 36, 28, 12, 27, 9, 3, 25))


def test_broken_section_detected():
    e = catalog_entry(19)
    bad = SectionRecord("1/t^6", "1/t^8", ((-6, 1, 0),), ((-8, 1, 0),),
                        3, (("A", 2, 1),))
    assert not section_satisfies(e.model, bad)


def test_section_needs_the_imaginary_unit():
    # y^2 = x^3 + t^7*x - t^2 (order 17) is met by (0, +/-i*t), not by (0, t)
    e = catalog_entry(17)
    assert e.section.y_laurent == ((1, 0, 1),)
    bad = SectionRecord("0", "t", (), ((1, 1, 0),), 0, (("A", 2, 1), ("A", 3, 1)))
    assert not section_satisfies(e.model, bad)
    minus_i = SectionRecord("0", "-i*t", (), ((1, 0, -1),), 0, (("A", 2, 1), ("A", 3, 1)))
    assert section_satisfies(e.model, minus_i)


def test_mordell_weil_discriminant_forms():
    # rank-one rows: the discriminant group is Z/k carrying -1/height
    for k in (19, 17, 13, 11, 7, 5):
        e = catalog_entry(k)
        q = discriminant_form(e.s_gram)
        assert q.orders == (k,)
        target = (-1 / Fraction(*e.mw_height)) % 2
        assert any(Fraction(q.value((c,)), q.exponent) == target for c in range(1, k))


def test_fiber_profiles():
    for e in load_catalog():
        if e.model is None:
            assert e.fibers is None
            continue
        rows = geometric_fibers(e.model)
        assert tuple(sorted((r["kind"], r["degree"]) for r in rows)) == e.fibers, e.k
        assert sum(r["degree"] * r["euler"] for r in rows) == 24, e.k


def test_reducible_fibers_are_the_fibers_with_a_root_lattice():
    # one kind per geometric fiber of positive root-lattice rank, II* included
    entries = [e for e in load_catalog() if e.reducible_fibers]
    assert sorted(e.k for e in entries) == [3, 5, 7, 9, 11, 13, 17, 19, 27]
    for e in entries:
        want = Counter()
        for kind, degree in e.fibers:
            if kodaira_lattice(kind)[0] > 0:
                want[kind] += degree
        assert Counter(e.reducible_fibers) == want, e.k


def test_mirror_partners():
    partners = {e.k: e.mirror_partner for e in load_catalog()}
    assert partners == {
        66: (12,), 44: (12,), 42: (28, 36, 42), 36: (28, 36, 42),
        28: (28, 36, 42), 12: (44, 66), 19: "family", 17: "family",
        13: (13,), 11: "family", 7: "family", 5: (25,), 25: (5,),
        27: (9,), 9: (27,), 3: "none",
    }


# ---------------------------------------------------------------------------
# verification reports

def test_verify_entry_k12_all_pass():
    rep = verify_entry(catalog_entry(12))
    assert rep.ok
    status = {c.name: c.status for c in rep.checks}
    assert status["action"] == "pass"
    assert status["cover"] == "pass"
    assert status["characters"] == "pass"
    assert status["lattice"] == "pass"
    assert status["height-disc"] == "skip"  # unimodular, no discriminant row
    assert status["fibers"] == "pass"
    assert status["mirror"] == "pass"
    assert status["zeta-q13"] == "pass"
    assert status["zeta-q37"] == "pass"


def test_verify_entry_k25_skips_smooth_count():
    rep = verify_entry(catalog_entry(25))
    assert rep.ok
    status = {c.name: c.status for c in rep.checks}
    assert status["zeta-q101"] == "skip"
    assert status["zeta-q151"] == "skip"
    assert status["fibers"] == "skip"
    assert status["cover"] == "pass"
    assert status["lattice"] == "pass"
    detail = next(c.detail for c in rep.checks if c.name == "zeta-q101")
    assert "out of scope" in detail


def test_verify_entry_k3_cm_checks():
    rep = verify_entry(catalog_entry(3))
    assert rep.ok
    status = {c.name: c.status for c in rep.checks}
    assert status["cover"] == "skip"
    assert status["characters"] == "skip"
    for p in (5, 7, 11, 13):
        assert status[f"zeta-q{p}"] == "pass"


def test_verify_entry_all_pass():
    for e in load_catalog():
        rep = verify_entry(e)
        assert rep.ok, (e.k, [c.detail for c in rep.checks if c.status == "fail"])


def test_verify_entry_reports_bad_prime_without_aborting():
    rep = verify_entry(catalog_entry(66), primes=(11,))
    status = {c.name: c.status for c in rep.checks}
    assert status["zeta-q11"] == "fail"
    assert status["cover"] == "pass"  # later and earlier checks still ran
    assert status["mirror"] == "pass"
    assert not rep.ok
    assert [c.name for c in rep.checks if c.status == "fail"] == ["zeta-q11"]


def test_verify_all_checks_each_stored_cover_once(monkeypatch, capsys):
    calls = []
    original = delsarte.verify_cover

    def counted(surface, pi):
        calls.append(pi)
        return original(surface, pi)

    for module in (delsarte, catalog):
        monkeypatch.setattr(module, "verify_cover", counted)
    assert cli.main(["verify", "--all"]) == 0
    capsys.readouterr()
    covers = [e.cover for e in load_catalog() if e.cover is not None]
    assert len(covers) == 15
    assert len(calls) <= 15
    assert sorted(calls, key=repr) == sorted(covers, key=repr)


def test_characters_fail_when_the_stored_map_does_not_cover():
    # flipping t's sign keeps the exponents, and so the deck-invariant
    # characters, but the map no longer covers the k = 44 equation
    entry = catalog_entry(44)
    flipped = MonomialMap(44, tuple((v, 1 if v == "t" else s, e)
                                    for v, s, e in entry.cover.images))
    fields = {name: getattr(entry, name) for name in K3CatalogEntry._fields}
    rep = verify_entry(K3CatalogEntry(**{**fields, "cover": flipped}))
    checks = {c.name: c for c in rep.checks}
    assert checks["cover"].status == "fail"
    assert checks["characters"].status == "fail"
    assert checks["characters"].detail == \
        "AssertionError: the stored map does not cover the equation"
    assert [c.name for c in rep.checks if c.status == "fail"] == ["cover", "characters"]


def _characters_with_stored_row(k, edit):
    """The characters check of entry k with its stored triples edited."""
    entry = catalog_entry(k)
    fields = {name: getattr(entry, name) for name in K3CatalogEntry._fields}
    triples = tuple(edit(entry.m, list(entry.expected_characters)))
    rep = verify_entry(K3CatalogEntry(**{**fields, "expected_characters": triples}))
    return next(c for c in rep.checks if c.name == "characters")


def test_characters_fail_on_an_edited_stored_triple():
    def edit(m, triples):
        a1, a2, a3 = triples[0]
        return [(a1, a2, a3 % m + 1)] + triples[1:]

    check = _characters_with_stored_row(44, edit)
    assert check.status == "fail"
    assert check.detail == "AssertionError: invariant characters differ from the stored row"


def test_characters_pass_on_a_stored_triple_that_is_not_reduced():
    def edit(m, triples):
        a1, a2, a3 = triples[0]
        return [(a1 + m, a2, a3)] + triples[1:]

    assert _characters_with_stored_row(44, edit).status == "pass"


def test_characters_fail_on_a_stored_triple_with_a_zero_coordinate():
    # a triple with a zero coordinate names no character, so it cannot
    # match one the cover gives
    def edit(m, triples):
        _a1, a2, a3 = triples[0]
        return [(m, a2, a3)] + triples[1:]

    check = _characters_with_stored_row(44, edit)
    assert check.status == "fail"
    assert check.detail == "AssertionError: invariant characters differ from the stored row"


def test_verify_all_builds_380_character_vectors(monkeypatch, capsys):
    # the 190 characters the covers give and the 190 of the cached rows
    # that the zeta checks read; the stored triples are compared as tuples
    calls = []
    init = CharacterVector.__init__
    monkeypatch.setattr(CharacterVector, "__init__",
                        lambda self, m, a: calls.append(m) or init(self, m, a))
    catalog._transcendental_row.cache_clear()
    assert cli.main(["verify", "--all"]) == 0
    capsys.readouterr()
    assert len(calls) == 380


# ---------------------------------------------------------------------------
# JSON export

def _assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError("float leaked into the export")
    if isinstance(node, dict):
        for k, v in node.items():
            _assert_no_floats(k)
            _assert_no_floats(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            _assert_no_floats(v)


def test_entry_as_dict():
    doc = entry_as_dict(catalog_entry(19))
    assert doc["k"] == 19
    assert doc["class"] == "non-unimodular"
    assert doc["m"] == 38
    assert doc["weierstrass"] == {"a": "t^7", "b": "-t"}
    assert doc["section"] == {"x": "1/t^6", "y": "1/t^9", "pai": 3,
                              "corrections": [["A", 2, 1]]}
    assert doc["height"] == "19/2"
    assert doc["disc_s"] == -19
    assert doc["mirror_partner"] == "family"
    assert doc["cover"]["m"] == 38


def test_catalog_json_round_trip():
    import json

    docs = catalog_as_dicts()
    assert len(docs) == 16
    _assert_no_floats(docs)
    text = json.dumps(docs, sort_keys=False)
    assert json.loads(text) == docs
    d3 = next(d for d in docs if d["k"] == 3)
    assert d3["cover"] is None and d3["characters"] is None
    d25 = next(d for d in docs if d["k"] == 25)
    assert d25["weierstrass"] is None and d25["sextic"] == [[5, 0, 1], [1, 5, 1], [0, 0, -1]]
