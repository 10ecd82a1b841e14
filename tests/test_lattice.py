"""Lattice, discriminant-form, height and mirror-splitting tests.

The standard Gram data (U2, A_n, E-series) is pinned against textbook
determinants and signatures; discriminant forms against hand-inverted
2x2 blocks; heights and discriminants against the catalog's section data.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lattice_reference import BOX_RANK_LIMIT, box_mirror_split
from test_intmat import reference_signature

from k3fermat import delsarte, intmat, lattice
from k3fermat.catalog import _build_catalog, catalog_entry, load_catalog, verify_entry
from k3fermat.intmat import det, mat_mul, symmetric_invariants, transpose
from k3fermat.lattice import (
    FiniteQuadraticForm,
    GramLattice,
    direct_sum,
    disc_from_height,
    discriminant_form,
    fqf_equivalent,
    height,
    kodaira_lattice,
    mirror_split,
    nikulin_complement_check,
    rational_text,
    standard_lattice,
)

U2 = standard_lattice("U2")
E8M = standard_lattice("E8", twist=-1)


def test_standard_lattice_u2():
    assert U2.rows() == [[0, 1], [1, 0]]
    assert U2.signature == (1, 1)
    assert U2.determinant == -1


def test_standard_lattice_root_systems():
    for name, rank, want_det in (("E6", 6, 3), ("E7", 7, 2), ("E8", 8, 1)):
        lat = standard_lattice(name)
        assert (lat.rank, lat.determinant, lat.signature) == (rank, want_det, (rank, 0))
    for n in (1, 2, 6, 10):
        lat = standard_lattice("A", n=n)
        assert (lat.rank, lat.determinant, lat.signature) == (n, n + 1, (n, 0))


def test_standard_lattice_twist():
    assert E8M.signature == (0, 8)
    assert E8M.determinant == 1  # even rank: determinant survives negation
    a2m = standard_lattice("A", n=2, twist=-1)
    assert a2m.determinant == 3 and a2m.signature == (0, 2)


def test_standard_lattice_diag_and_explicit():
    # a diagonal or explicit Gram matrix is a GramLattice; standard_lattice
    # names only the root and hyperbolic blocks
    d = GramLattice([[2, 0], [0, -2]])
    assert d.rows() == [[2, 0], [0, -2]]
    x = GramLattice([[2, 1], [1, 10]])
    assert x.determinant == 19
    for name in ("diag", "explicit", "F4"):
        with pytest.raises(ValueError, match="unknown lattice name"):
            standard_lattice(name)


def test_gram_validation():
    with pytest.raises(ValueError):
        GramLattice([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        GramLattice([[2, 2], [2, 2]])  # degenerate
    with pytest.raises(ValueError):
        GramLattice([[1, 2, 3], [2, 1, 1]])  # not square


def test_direct_sum_bookkeeping():
    both = direct_sum(U2, U2)
    assert (both.rank, both.determinant, both.signature) == (4, 1, (2, 2))
    t66 = direct_sum(U2, U2, E8M, E8M)
    assert (t66.rank, t66.determinant, t66.signature) == (20, 1, (2, 18))
    s19 = direct_sum(U2, GramLattice([[-2, 1], [1, -10]]))
    assert s19.determinant == -19


NAMED_BLOCKS = [("U2",), ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
                ("E6",), ("E7",), ("E8",)]


@st.composite
def blocks(draw):
    """A named block or a random non-degenerate symmetric matrix of size
    1-4, twisted by +1 or -1."""
    if draw(st.booleans()):
        lat = standard_lattice(*draw(st.sampled_from(NAMED_BLOCKS)))
    else:
        n = draw(st.integers(1, 4))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = draw(st.integers(-6, 6))
        assume(det(g) != 0)
        lat = GramLattice(g)
    return lat.twisted(draw(st.sampled_from([1, -1])))


@settings(deadline=None, max_examples=150)
@given(st.lists(blocks(), max_size=4))
def test_direct_sum_and_twist_invariants_match_a_full_elimination(parts):
    # the block rule (signatures add, determinants multiply, a twist swaps
    # the signature and multiplies the determinant by (-1)^rank) against
    # an elimination of the assembled rows and two independent references
    whole = direct_sum(*parts)
    for lat in (whole, whole.twisted(-1)):
        rows = lat.rows()
        got = (lat.signature, lat.determinant)
        assert got == symmetric_invariants(rows) == (reference_signature(rows), det(rows))


def test_direct_sum_and_twist_eliminate_nothing(monkeypatch):
    def refuse(rows):
        raise AssertionError("symmetric_invariants called on an assembled lattice")

    monkeypatch.setattr(lattice, "symmetric_invariants", refuse)
    t66 = direct_sum(U2, U2, E8M, E8M)
    assert (t66.signature, t66.determinant) == ((2, 18), 1)
    assert (t66.twisted(-1).signature, U2.twisted(-1).determinant) == ((18, 2), -1)
    with pytest.raises(AssertionError, match="symmetric_invariants"):
        GramLattice(t66.rows())


def test_discriminant_form_unimodular_is_trivial():
    assert discriminant_form(U2).orders == ()
    assert discriminant_form(E8M).orders == ()


def test_discriminant_form_of_a_unimodular_lattice_takes_no_smith_form(monkeypatch):
    # |det| = 1 comes from the lattice's own elimination, so the trivial
    # form needs no Smith form; the six catalog entries with unimodular
    # S and T are checked with it too
    def refuse(matrix):
        raise AssertionError("smith_normal_form called on a unimodular lattice")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    e8 = standard_lattice("E8")
    pairs = [(e.s_gram, e.t_gram) for e in load_catalog() if abs(e.s_gram.determinant) == 1]
    assert sorted(e.k for e in load_catalog() if abs(e.s_gram.determinant) == 1) == [
        12, 28, 36, 42, 44, 66]
    for lat in [e8, U2, direct_sum(e8, U2, e8)] + [lat for pair in pairs for lat in pair]:
        assert discriminant_form(lat) == FiniteQuadraticForm((), ())
    # |det| = 2 is not unimodular: E7 and A1 still take the Smith form
    for lat in (standard_lattice("E7"), standard_lattice("A", 1)):
        with pytest.raises(AssertionError, match="smith_normal_form"):
            discriminant_form(lat)


def test_verify_takes_one_smith_form_per_lattice(monkeypatch):
    # the lattice check forms q_S and q_T; the height check reuses q_S
    calls = []
    monkeypatch.setattr(lattice, "smith_normal_form",
                        lambda m, run=lattice.smith_normal_form: calls.append(len(m)) or run(m))
    entry = next(e for e in _build_catalog() if e.k == 19)
    report = verify_entry(entry, primes=[191])
    assert [c.status for c in report.checks if c.name in ("lattice", "height-disc")] == [
        "pass", "pass"]
    assert sorted(calls) == [4, 18]


def test_verify_all_takes_37_smith_forms(monkeypatch):
    # 20 discriminant forms of the non-unimodular catalog S and T, 15 cover
    # exponent matrices and the complement kernels of two T, each counted at
    # the binding it is called through
    calls = []
    run = intmat.smith_normal_form
    for module in (lattice, delsarte, intmat):
        site = module.__name__.rpartition(".")[2]
        monkeypatch.setattr(module, "smith_normal_form",
                            lambda m, site=site: calls.append((site, len(m), len(m[0]))) or run(m))
    for entry in _build_catalog():
        assert verify_entry(entry).ok
    assert Counter(site for site, _nr, _nc in calls) == {"lattice": 20, "delsarte": 15, "intmat": 2}
    assert sorted(shape for site, *shape in calls if site == "intmat") == [[2, 10], [2, 18]]


def test_discriminant_form_a2():
    # values are numerators over the exponent 3: 2 stands for 2/3
    q = discriminant_form(standard_lattice("A", n=2))
    assert (q.orders, q.exponent) == ((3,), 3)
    assert q.value((1,)) == 2
    assert q.value((2,)) == 2  # both generators take the same value
    qm = discriminant_form(standard_lattice("A", n=2, twist=-1))
    assert qm.value((1,)) == 4


def test_discriminant_form_order19_block():
    q = discriminant_form(GramLattice([[2, 1], [1, 10]]))
    assert (q.orders, q.exponent) == ((19,), 19)
    assert any(q.value((c,)) == 2 for c in range(1, 19))


def test_discriminant_form_group_order_matches_determinant():
    m4 = [[-2, 0, 0, 1], [0, -2, 1, 1], [0, 1, -2, 0], [1, 1, 0, -4]]
    q = discriminant_form(GramLattice(m4))
    assert q.group_order() == 17


def test_discriminant_form_with_a_negative_off_diagonal_pairing():
    # A1 + U(2)(-1): the U(2) block pairs its generators to -1/2, which is
    # 1/2 in Q/Z, so the form is symmetric there; numerators are over e = 2
    q = discriminant_form(GramLattice([[2, 0, 0], [0, 0, -2], [0, -2, 0]]))
    assert q.orders == (2, 2, 2)
    assert q == FiniteQuadraticForm((2, 2, 2), [[1, 0, 0],
                                                [0, 0, 1],
                                                [0, 1, 0]])
    assert q == FiniteQuadraticForm((2, 2, 2), [[5, 0, 0],
                                                [0, 4, -1],
                                                [0, 3, 0]])
    # q(g2 + g3) = 0 + 0 + 2 b(g2, g3) = 1: the numerator 2 over e = 2
    assert q.value((0, 1, 1)) == 2
    with pytest.raises(ValueError):
        FiniteQuadraticForm((2, 2), [[0, 1], [0, 0]])


def test_discriminant_form_rejects_odd_lattice():
    with pytest.raises(ValueError):
        discriminant_form(GramLattice([[1, 0], [0, 2]]))


def test_fqf_self_equivalence_and_opposite():
    pos = FiniteQuadraticForm((19,), [[2]])  # 2/19
    neg = FiniteQuadraticForm((19,), [[-2]])
    assert neg == pos.negated()
    assert fqf_equivalent(pos, pos)
    assert not fqf_equivalent(pos, neg)  # -1 is not a square mod 19
    assert fqf_equivalent(FiniteQuadraticForm((), ()), FiniteQuadraticForm((), ()))


def test_fqf_equivalence_respects_generator_change():
    # Z/5 with values 2/5 and 8/5: related by the generator scaling c = 2
    a = FiniteQuadraticForm((5,), [[2]])
    b = FiniteQuadraticForm((5,), [[8]])
    assert fqf_equivalent(a, b)
    c = FiniteQuadraticForm((5,), [[4]])
    assert not fqf_equivalent(a, c)  # 2 c^2 = 4 mod 10 has no solution


def test_fqf_order_cap():
    big = FiniteQuadraticForm((10007,), [[2]])
    with pytest.raises(ValueError):
        fqf_equivalent(big, big)


def test_section_heights_match_catalog_rows():
    assert height(3, (("A", 2, 1),)) == (19, 2)
    assert height(0, (("A", 2, 1), ("A", 3, 1))) == (17, 6)
    assert height(2, (("E7",),)) == (13, 2)
    assert height(0, (("A", 3, 1), ("E7",))) == (11, 6)
    assert height(0, (("E6",), ("E7",))) == (7, 6)
    assert height(0, (("E7",),)) == (5, 2)
    assert height(0, ()) == (4, 1)


def fraction_height(pai, corrections):
    """4 + 2 (P.O) - sum of the corrections, summed in Fractions: the
    reference for height."""
    table = {"E6": Fraction(4, 3), "E7": Fraction(3, 2)}
    total = Fraction(4 + 2 * pai)
    for term in corrections:
        if term[0] == "A":
            _, n, j = term
            total -= Fraction(j * (n - j), n)
        else:
            total -= table[term[0]]
    return total


def test_stored_section_heights_match_the_fraction_sum():
    sections = [e.section for e in load_catalog() if e.section is not None]
    assert len(sections) == 6
    for section in sections:
        ref = fraction_height(section.pai, section.corrections)
        assert section.height() == (ref.numerator, ref.denominator)


fiber_terms = st.one_of(
    st.sampled_from([("E6",), ("E7",)]),
    st.integers(2, 24).flatmap(lambda n: st.tuples(st.just("A"), st.just(n),
                                                   st.integers(1, n - 1))))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 6), st.lists(fiber_terms, max_size=6))
def test_height_is_the_reduced_fraction_sum(pai, terms):
    ref = fraction_height(pai, terms)
    assert height(pai, terms) == (ref.numerator, ref.denominator)
    assert rational_text(height(pai, terms)) == str(ref)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_rational_text_prints_the_reduced_fraction(num, den):
    assert rational_text((num, den)) == str(Fraction(num, den))


def test_section_validation():
    with pytest.raises(ValueError):
        height(-1, ())
    with pytest.raises(ValueError):
        height(0, (("A", 3, 3),))  # j out of range
    with pytest.raises(ValueError):
        height(0, (("E8",),))  # no correction term exists


def test_disc_from_height_table():
    assert disc_from_height((19, 2), ["III"]) == -19
    assert disc_from_height((17, 6), ["III", "IV"]) == -17
    assert disc_from_height((13, 2), ["III*"]) == -13
    assert disc_from_height((11, 6), ["IV", "III*"]) == -11
    assert disc_from_height((7, 6), ["IV*", "III*"]) == -7
    assert disc_from_height((5, 2), ["III*", "II*"]) == -5
    assert disc_from_height((1, 1), ["IV"]) == -3
    assert disc_from_height((1, 1), ["IV*", "II*"]) == -3
    assert disc_from_height((1, 1), ["IV", "II*", "II*"]) == -3


def d_gram(n):
    """D_n: a chain of n - 1 nodes with one more node on the second-to-last."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]:
        g[i][j] = g[j][i] = -1
    return g


def test_kodaira_lattice_matches_explicit_gram_matrices():
    for kind in ("I0", "I1", "II"):
        assert kodaira_lattice(kind) == (0, 1)
    for n in range(2, 9):
        assert kodaira_lattice(f"I{n}") == (n - 1, det(standard_lattice("A", n - 1).rows()))
    for n in range(5):
        assert kodaira_lattice(f"I{n}*") == (n + 4, det(d_gram(n + 4)))
    named = [("III", "A", 1), ("IV", "A", 2), ("IV*", "E6", None), ("III*", "E7", None),
             ("II*", "E8", None)]
    for kind, name, n in named:
        gram = standard_lattice(name, n).rows()
        assert kodaira_lattice(kind) == (len(gram), det(gram)), kind
    for bad in ("", "I", "I*", "X9", "I-1", "IV**", "V"):
        with pytest.raises(ValueError):
            kodaira_lattice(bad)


def test_disc_from_height_multiplicative_fibers():
    # I_n carries A_{n-1} with determinant n
    assert disc_from_height((1, 22), ["I11", "I2"]) == -1
    with pytest.raises(ValueError, match="integer: 2/3$"):
        disc_from_height((1, 3), ["III"])  # 2/3 is not an integer
    with pytest.raises(ValueError, match="integer: -3$"):
        disc_from_height((-1, 1), ["IV"])


def test_nikulin_complement_unimodular_pair():
    s = U2
    t = direct_sum(U2, U2, E8M, E8M)
    assert nikulin_complement_check(s, t)


def test_nikulin_complement_order19_pair():
    s = direct_sum(U2, GramLattice([[-2, 1], [1, -10]]))
    t = direct_sum(E8M, E8M, GramLattice([[2, 1], [1, 10]]))
    assert nikulin_complement_check(s, t)


def test_nikulin_complement_rejects_mismatch():
    s5 = direct_sum(E8M, E8M, GramLattice([[-2, 3], [3, -2]]))
    t7 = direct_sum(U2, U2, GramLattice([[-2, 1], [1, -4]]))
    assert not nikulin_complement_check(s5, t7)


def test_mirror_split_visible_block():
    t9 = direct_sum(U2, U2, standard_lattice("A", n=2, twist=-1))
    s27 = direct_sum(U2, standard_lattice("A", n=2, twist=-1))
    assert mirror_split(t9) == s27
    t5 = direct_sum(U2, GramLattice([[-2, 3], [3, -2]]))
    assert mirror_split(t5) == GramLattice([[-2, 3], [3, -2]])


def test_mirror_split_embedded_plane():
    # no U2 block is visible here; the <2> + (-A2) trick must fire
    t19 = direct_sum(E8M, E8M, GramLattice([[2, 1], [1, 10]]))
    s = mirror_split(t19)
    assert s != "none"
    assert (s.rank, s.determinant, s.signature) == (16, -19, (1, 15))
    t11 = direct_sum(E8M, GramLattice([[2, 1], [1, 6]]))
    s = mirror_split(t11)
    assert (s.rank, s.determinant, s.signature) == (8, -11, (1, 7))


def test_mirror_split_definite_lattice_has_none():
    assert mirror_split(GramLattice([[2, 1], [1, 2]])) == "none"


def test_mirror_split_bounded_search():
    # No catalog T needs the box search over {-1, 0, 1}^n, so it lives in
    # lattice_reference. [[0, 1], [1, 2]] is U2 in another basis but shows
    # neither of mirror_split's patterns, so mirror_split refuses it and
    # the box search splits it completely.
    u2_disguised = GramLattice([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="no hyperbolic splitting found"):
        mirror_split(u2_disguised)
    assert box_mirror_split(u2_disguised).rank == 0
    # diag(2, -4) has no isotropic vector at all over Z (2a^2 = 4b^2 forces
    # a = b = 0), so the search must report failure rather than fake a split.
    with pytest.raises(ValueError):
        box_mirror_split(GramLattice([[2, 0], [0, -4]]))


@pytest.mark.parametrize("k", [5, 7, 9, 12])
def test_box_search_agrees_with_mirror_split_on_small_catalog_lattices(k):
    # the four indefinite catalog T of rank at most 8; any two complements
    # of a hyperbolic plane in T share rank, signature and determinant
    t = catalog_entry(k).t_gram
    assert t.rank <= BOX_RANK_LIMIT
    pattern, box = mirror_split(t), box_mirror_split(t)
    assert (box.rank, box.signature, box.determinant) == (
        pattern.rank, pattern.signature, pattern.determinant)
    assert fqf_equivalent(discriminant_form(box), discriminant_form(pattern))


def test_embedding_check():
    # the Gram of (b + a1, b + a1 + a2) inside <2> + (-A2) is the hyperbolic plane
    g = [[2, 0, 0], [0, -2, 1], [0, 1, -2]]
    xy = [[1, 1, 0], [1, 1, 1]]
    assert mat_mul(mat_mul(xy, g), transpose(xy)) == [[0, 1], [1, 0]]
