"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Run with `pytest tests/test_acceptance.py -v` to get the per-criterion
lines. Every check is exact integer or exact rational arithmetic; there
are no tolerances anywhere.
"""

from fractions import Fraction

from characters_reference import enumerate_A, galois_orbit
from k3fermat.catalog import catalog_entry, load_catalog, transcendental_row
from k3fermat.characters import alpha_norm, units_mod
from k3fermat.cyclotomic import CycInt, IntPoly, totient
from k3fermat.delsarte import (
    derive_cover,
    parse_surface,
    transcendental_characters,
    verify_cover,
)
from k3fermat.field import PrimeField, QuadExtField, make_field
from k3fermat.jacobi_zeta import (
    algebraic_factor,
    cm_factor_k3,
    jacobi_sum,
    zeta_report,
)
from k3fermat.lattice import (
    disc_from_height,
    discriminant_form,
    mirror_split,
    nikulin_complement_check,
)
from k3fermat.pointcount import count_elliptic_smooth, count_fermat
from zeta_reference import transcendental_factor

# smallest admissible prime for each elliptic entry with a Fermat cover
SMALLEST_PRIME = {
    66: 67, 44: 89, 42: 43, 36: 37, 28: 29, 12: 13,
    19: 191, 17: 103, 13: 53, 11: 23, 7: 29, 5: 11,
    27: 109, 9: 19,
}

FERMAT_GRID = ((1, 5), (2, 5), (3, 7), (4, 5), (10, 11), (12, 13))


def _alt_root_field(q):
    """The same prime field built on the next primitive root up."""
    base = make_field(q)
    for c in range(base.g + 1, q):
        try:
            return PrimeField(q, primitive_root=c)
        except ValueError:
            continue
    raise AssertionError(f"no second primitive root mod {q}")


def test_a1_covering_maps():
    checked = 0
    for entry in load_catalog():
        if entry.k == 3:
            assert entry.cover is None
            continue
        if entry.lattice_class == "unimodular":
            expected_m = entry.k
        elif entry.k == 27:
            expected_m = 54
        elif entry.k == 25:
            expected_m = 50
        else:
            expected_m = 2 * entry.k
        assert entry.m == expected_m, f"k={entry.k}: degree {entry.m}"
        assert entry.cover.m == expected_m
        assert verify_cover(entry.cover_surface(), entry.cover), \
            f"k={entry.k}: stored map does not cover the equation"
        checked += 1
    assert checked == 15


def test_a2_character_tables():
    for entry in load_catalog():
        if entry.k == 3:
            continue
        k = entry.k
        row = transcendental_row(k)
        computed = transcendental_characters(entry.cover_surface(), entry.cover)
        assert set(computed) == set(row), f"k={k}: character sets differ"
        assert len(set(row)) == totient(k), f"k={k}: size {len(set(row))}"
        assert galois_orbit(row[0]) == set(row), f"k={k}: not a single orbit"
        norm_one = [a for a in row if alpha_norm(a) == 1]
        assert len(norm_one) == 1, f"k={k}: {len(norm_one)} weight-1 members"
        assert norm_one[0] == row[0], f"k={k}: weight-1 member not listed first"


def test_a3_zeta_matches_count():
    for k, q in SMALLEST_PRIME.items():
        entry = catalog_entry(k)
        assert entry.zeta_primes[0] == q, f"k={k}: smallest prime is {q}"
        rep = zeta_report(k, q)
        counted = count_elliptic_smooth(entry.model, q)
        assert counted == rep.predicted_count, \
            f"k={k}, q={q}: counted {counted}, predicted {rep.predicted_count}"
    # no cover at order 3: the CM factor supplies the trace instead
    model3 = catalog_entry(3).model
    for p in (7, 11, 13):
        trace = -cm_factor_k3(p).coeff(1)
        counted = count_elliptic_smooth(model3, p)
        assert counted == 1 + p * p + 20 * p + trace, f"order 3 at p={p}"


def test_a4_negative_sign_branch():
    k, q = 7, 43
    assert q % 4 == 3
    n_minus, n_plus, _ = algebraic_factor(k, q)
    assert (n_plus, n_minus) == (13, 3)
    rep = zeta_report(k, q)
    counted = count_elliptic_smooth(catalog_entry(k).model, q)
    assert counted == rep.predicted_count == 1 + q * q + 10 * q + rep.trace


def test_a5_fermat_oracle():
    for m, q in FERMAT_GRID:
        field = make_field(q)
        total = CycInt.from_integer(max(m, 2), 0)
        if m > 1:  # no nonzero residues exist mod 1, so A_1 is empty
            for alpha in enumerate_A(m):
                total = total + jacobi_sum(field, m, alpha)
        trace = total.as_rational_integer()
        assert trace is not None, f"m={m}: character sum not rational"
        assert count_fermat(m, q) == 1 + q * q + q + trace, f"(m, q) = {m, q}"


def test_a6_jacobi_invariants():
    # full character set on the Fermat oracle grid
    for m, q in FERMAT_GRID:
        if m == 1:
            continue
        field = make_field(q)
        values = {a: jacobi_sum(field, m, a) for a in enumerate_A(m)}
        units = units_mod(m)
        for alpha, value in values.items():
            assert (value * value.conj()).as_rational_integer() == q * q
            for u in units:
                assert values[alpha.scaled(u)] == value.galois_apply(u)
    # the transcendental orbit of every catalog pair, one kernel sum per
    # member, plus R_t independence from the character normalization
    for k, q in SMALLEST_PRIME.items():
        m = catalog_entry(k).m
        field = make_field(q)
        orbit = transcendental_row(k)
        assert galois_orbit(orbit[0]) == set(orbit)
        values = {a: jacobi_sum(field, m, a) for a in orbit}
        units = units_mod(m)
        for alpha, value in values.items():
            assert (value * value.conj()).as_rational_integer() == q * q, \
                f"k={k}: |j|^2 != q^2 at {alpha}"
            for u in units:
                assert values[alpha.scaled(u)] == value.galois_apply(u), \
                    f"k={k}: sigma_{u} equivariance fails at {alpha}"
        assert transcendental_factor(k, q) == \
            transcendental_factor(k, _alt_root_field(q)), \
            f"k={k}: R_t depends on the primitive root"


def test_a7_lattice_suite():
    heights = {19: Fraction(19, 2), 17: Fraction(17, 6), 13: Fraction(13, 2),
               11: Fraction(11, 6), 7: Fraction(7, 6), 5: Fraction(5, 2)}
    disc_column = {19: -19, 17: -17, 13: -13, 11: -11, 7: -7, 5: -5,
                   27: -3, 9: -3, 3: -3}
    for k, h in heights.items():
        entry = catalog_entry(k)
        assert entry.section.height() == h == entry.mw_height
    for k, disc in disc_column.items():
        entry = catalog_entry(k)
        h = entry.mw_height if entry.mw_height is not None else Fraction(1)
        assert disc_from_height(h, entry.reducible_fibers) == disc
        assert entry.disc_s == disc
    group_sizes = {66: 1, 44: 1, 42: 1, 36: 1, 28: 1, 12: 1,
                   19: 19, 17: 17, 13: 13, 11: 11, 7: 7, 5: 5,
                   27: 3, 9: 3, 3: 3, 25: 5}
    for entry in load_catalog():
        phi = totient(entry.k)
        s, t = entry.s_gram, entry.t_gram
        assert (s.rank, t.rank) == (22 - phi, phi)
        assert s.signature == (1, 21 - phi)
        assert t.signature == ((2, 0) if entry.k == 3 else (2, phi - 2))
        expected_det = group_sizes[entry.k]
        assert (s.determinant, t.determinant) == (-expected_det, expected_det)
        assert nikulin_complement_check(s, t), f"k={entry.k}: genus mismatch"
    for k in (5, 7, 11, 13, 17, 19):
        entry = catalog_entry(k)
        q_s = discriminant_form(entry.s_gram)
        assert q_s.orders == (k,), f"k={k}: group {q_s.orders}"
        target = (-1 / entry.mw_height) % 2
        assert any(q_s.value((c,)) == target for c in range(1, k)), \
            f"k={k}: no generator with value -1/h"


def test_a8_mirror_suite():
    pairings = {12: (44, 66), 44: (12,), 66: (12,),
                28: (28, 36, 42), 36: (28, 36, 42), 42: (28, 36, 42),
                9: (27,), 27: (9,), 5: (25,), 25: (5,), 13: (13,)}
    for k, partners in pairings.items():
        complement = mirror_split(catalog_entry(k).t_gram)
        assert complement != "none", f"k={k}: no hyperbolic split"
        grams = [catalog_entry(kp).s_gram.gram for kp in partners]
        assert complement.gram in grams, f"k={k}: complement matches no partner"
    for k in (11, 19):
        t = catalog_entry(k).t_gram
        complement = mirror_split(t)
        assert complement != "none", f"k={k}: no hyperbolic split"
        assert complement.rank == t.rank - 2
        assert complement.signature == (1, complement.rank - 1)
        assert complement.determinant == -abs(t.determinant)
    assert mirror_split(catalog_entry(3).t_gram) == "none"


def test_a9_order3_cm_consistency():
    model = catalog_entry(3).model
    expected_traces = {7: -13, 13: -1, 19: 11, 31: -46}
    for p, expected in expected_traces.items():
        r_t = cm_factor_k3(p)
        trace = -r_t.coeff(1)
        assert trace == expected
        assert r_t == IntPoly([1, -trace, p * p])
        assert count_elliptic_smooth(model, p) == 1 + p * p + 20 * p + trace
    for p in (5, 11):  # inert primes: 1 - p^2 T^2
        assert cm_factor_k3(p) == IntPoly([1, 0, -p * p])
    # Frobenius squares: t_2 = t^2 - 2 p^2 against a direct F_49 count
    p = 7
    t = -cm_factor_k3(p).coeff(1)
    t2 = t * t - 2 * p * p
    assert t2 == 71
    counted = count_elliptic_smooth(model, QuadExtField(p))
    assert counted == 1 + p ** 4 + 20 * p ** 2 + t2 == 3453


def test_a10_derived_cover_picard_number():
    surface = parse_surface("y^2 = x^3 + t^7*x + 1")
    m, pi = derive_cover(surface)
    assert m == 42
    assert verify_cover(surface, pi)
    chars = transcendental_characters(surface, pi)
    assert len(chars) == 6
    assert 22 - len(chars) == 16
