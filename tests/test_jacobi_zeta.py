"""Jacobi sums and zeta factors.

Expected values come from hand enumeration (m=2 cases), from the weight-2
Weil identities, and from cross-checks against the brute-force point
counters. Everything that depends on the character normalization is tested
for independence from it with an alternate primitive root.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from characters_reference import enumerate_A
from k3fermat.catalog import ORDERS, catalog_entry
from k3fermat.characters import CharacterVector
from k3fermat.cyclotomic import IntPoly, orbit_product, totient
from k3fermat.field import PrimeField, is_prime, make_field
from k3fermat import jacobi_zeta
from k3fermat.cli import main
from k3fermat.jacobi_zeta import (
    algebraic_factor,
    default_primes,
    jacobi_sum,
    primary_prime,
    zeta_report,
)
from k3fermat.pointcount import count_elliptic_smooth, count_fermat
from zeta_reference import fermat_zeta_factor, transcendental_factor


# hand enumeration for m=2, q=3: triples (1,2,2), (2,1,2), (2,2,1), each
# contributing chi(1)chi(2)chi(2) = +1
def test_jacobi_sum_hand_cases():
    assert jacobi_sum(3, 2, (1, 1, 1, 1)).as_rational_integer() == 3
    assert jacobi_sum(5, 2, (1, 1, 1, 1)).as_rational_integer() == 5


def brute_jacobi_quadratic(q):
    field = make_field(q)
    total = 0
    for v1 in range(1, q):
        for v2 in range(1, q):
            v3 = (-1 - v1 - v2) % q
            if v3:
                total += field.chi2(v1) * field.chi2(v2) * field.chi2(v3)
    return total


def test_jacobi_sum_matches_direct_character_loop():
    for q in (3, 5, 7, 13):
        assert jacobi_sum(q, 2, (1, 1, 1, 1)).as_rational_integer() == brute_jacobi_quadratic(q)


def test_jacobi_sum_weil_norm():
    field = make_field(13)
    for alpha in enumerate_A(4):
        j = jacobi_sum(field, 4, alpha)
        assert (j * j.conj()).as_rational_integer() == 169
    for alpha in enumerate_A(12)[:8]:
        j = jacobi_sum(field, 12, alpha)
        assert (j * j.conj()).as_rational_integer() == 169


def test_jacobi_sum_galois_equivariance():
    field = make_field(13)
    alpha = CharacterVector(12, (1, 6, 4, 1))
    j = jacobi_sum(field, 12, alpha)
    for u in (5, 7, 11):
        assert jacobi_sum(field, 12, alpha.scaled(u)) == j.galois_apply(u)


def test_jacobi_sum_requires_q_one_mod_m():
    with pytest.raises(ValueError):
        jacobi_sum(7, 4, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        jacobi_sum(make_field(5), 3, (1, 1, 1))


def test_jacobi_sum_rejects_mismatched_modulus():
    alpha = CharacterVector(4, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        jacobi_sum(make_field(13), 12, alpha)


def test_fermat_zeta_plane():
    assert fermat_zeta_factor(1, 7) == IntPoly([1, -7])


def test_fermat_zeta_plane_takes_a_field_and_refuses_composites():
    assert fermat_zeta_factor(1, PrimeField(7)) == IntPoly([1, -7])
    with pytest.raises(ValueError, match="not prime"):
        fermat_zeta_factor(1, 8)


def test_fermat_zeta_quadric():
    assert fermat_zeta_factor(2, 5) == IntPoly([1, -10, 25])  # (1-5T)^2


def test_fermat_zeta_degree_and_count():
    for m, q in [(3, 7), (4, 5), (2, 7)]:
        poly = fermat_zeta_factor(m, q)
        assert poly.degree == 1 + len(enumerate_A(m))
        assert poly.coeff(0) == 1
        # 1 + q^2 + (sum of the degree-1 eigenvalues) is the point count;
        # that sum is -coeff(1)
        assert 1 + q * q - poly.coeff(1) == count_fermat(m, q), (m, q)


@pytest.mark.parametrize("m,q", [(4, 40009), (6, 10009)])
def test_fermat_zeta_matches_the_count_at_large_q(m, q):
    # the coefficient of T is -q - (sum of the Jacobi sums)
    jacobi_total = -fermat_zeta_factor(m, q).coeff(1) - q
    assert count_fermat(m, q) == 1 + q + q * q + jacobi_total


def test_fermat_zeta_is_primitive_root_independent():
    canonical = fermat_zeta_factor(4, 5)
    assert fermat_zeta_factor(4, PrimeField(5, primitive_root=3)) == canonical
    assert fermat_zeta_factor(3, PrimeField(7, primitive_root=5)) == fermat_zeta_factor(3, 7)


def test_algebraic_factor_case_split():
    assert algebraic_factor(7, 29)[:2] == (0, 16)
    assert algebraic_factor(7, 43)[:2] == (3, 13)
    assert algebraic_factor(17, 103)[:2] == (2, 4)
    assert algebraic_factor(19, 191)[:2] == (0, 4)   # 191 = 3 mod 4, k not exceptional
    assert algebraic_factor(25, 31)[:2] == (1, 1)
    assert algebraic_factor(27, 7)[:2] == (1, 3)
    assert algebraic_factor(9, 7)[:2] == (2, 14)
    assert algebraic_factor(66, 67)[:2] == (0, 2)


def test_algebraic_factor_polynomial_shape():
    n_minus, n_plus, poly = algebraic_factor(7, 43)
    assert poly.degree == 16
    expected = IntPoly([1])
    for _ in range(13):
        expected = expected * IntPoly([1, -43])
    for _ in range(3):
        expected = expected * IntPoly([1, 43])
    assert poly == expected


def test_algebraic_factor_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        algebraic_factor(7, 7)
    with pytest.raises(ValueError):
        algebraic_factor(12, 3)


def test_default_primes():
    assert default_primes(12) == [13, 37]
    assert default_primes(2) == [3, 5]
    assert default_primes(66) == [67, 199]
    assert default_primes(14) == [29, 43]   # covers both q mod 4 branches
    assert default_primes(1) == [2, 3]
    # only primes under the dlog table cap 2^22
    assert default_primes(100000) == [700001, 900001]
    assert default_primes(1000000) == []
    assert default_primes(1 << 21) == []
    with pytest.raises(ValueError):
        default_primes(0)


def test_default_primes_match_a_scan_of_every_integer():
    sieve = [False, False] + [True] * 20000
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for m in range(1, 300):
        scan = [q for q in range(2, len(sieve)) if sieve[q] and q % m == 1 % m][:2]
        assert default_primes(m) == scan, m


# ---------------------------------------------------------------------------
# catalog-backed factors

def test_transcendental_factor_degrees():
    assert transcendental_factor(12, 13).degree == 4
    assert transcendental_factor(66, 67).degree == 20
    with pytest.raises(ValueError, match="order-3"):
        transcendental_factor(3, 7)
    with pytest.raises(ValueError, match="not 1 mod"):
        transcendental_factor(12, 11)


def test_transcendental_factor_functional_equation():
    # weight-2 symmetry: c_i * c_d == q^(2i) * c_(d-i), with c_d = q^d
    for k, q in ((12, 13), (9, 19), (5, 11), (7, 29), (36, 37)):
        poly = transcendental_factor(k, q)
        d = poly.degree
        assert poly.coeff(0) == 1
        assert poly.coeff(d) == q ** d
        for i in range(d + 1):
            assert poly.coeff(i) * poly.coeff(d) == q ** (2 * i) * poly.coeff(d - i)


def test_transcendental_factor_character_independence():
    default = make_field(13)
    alternate = PrimeField(13, primitive_root=6)
    assert alternate.g != default.g
    assert transcendental_factor(12, default) == transcendental_factor(12, alternate)


def test_zeta_factors_match_the_orbit_product_on_every_catalog_row():
    # the shared row factor raises the orbit of j(row[0]) to the power
    # len(row) / |orbit|; orbit_product certifies the same product from
    # the values alone, conjugating each one again
    for k in ORDERS:
        if k == 3:
            continue
        for q in default_primes(catalog_entry(k).m):
            rep = zeta_report(k, q)
            poly = orbit_product([value for _, value in rep.jacobi_values])
            assert rep.r_t == poly == transcendental_factor(k, q), (k, q)


def _edited_rows(row):
    # u * alpha = (., 1, 1, .) fixes u, so one orbit holds at most one of
    # these two vectors
    m = row[0].m
    outside = next(alpha for alpha in (CharacterVector.from_triple(m, (1, 1, t)) for t in (1, 2))
                   if alpha not in row)
    return {
        "dropped": row[:-1],
        "duplicated": row + row[1:2],
        "extra": row + [outside],
        "replaced": row[:-1] + [outside],
    }


@pytest.mark.parametrize("edit", ["dropped", "duplicated", "extra", "replaced"])
def test_a_row_that_is_not_one_galois_orbit_is_refused(monkeypatch, edit):
    from k3fermat import catalog

    k, q = 66, 67
    bad = _edited_rows(catalog.transcendental_row(k))[edit]
    monkeypatch.setattr(catalog, "transcendental_row", lambda k: bad)
    with pytest.raises(ValueError, match="not the Galois orbit"):
        zeta_report(k, q)
    with pytest.raises(ValueError, match="not the Galois orbit"):
        transcendental_factor(k, q)


def test_zeta_report_algebraic_split():
    rep = zeta_report(19, 191)
    assert (rep.n_plus, rep.n_minus) == (4, 0)
    assert rep.m == 38
    assert rep.r_t.degree == 18
    rep25 = zeta_report(25, 101)
    assert any("out of scope" in note for note in rep25.notes)
    assert rep25.r_t.degree == 20


def test_zeta_report_predicts_counts():
    from k3fermat.pointcount import count_elliptic_smooth

    for k, q in ((12, 13), (9, 19), (5, 11), (44, 89)):
        rep = zeta_report(k, q)
        assert rep.predicted_count == count_elliptic_smooth(catalog_entry(k).model, q)


@pytest.mark.parametrize("k", [5, 7, 11, 13, 17, 19, 28, 44])
def test_zeta_report_predicts_counts_past_20000(k):
    # A and B are monomials, so the oracle sums over cosets in O(q) and
    # reaches far past the stored zeta primes
    entry = catalog_entry(k)
    q = next(q for q in range(20001, 10 ** 6) if q % entry.m == 1 and is_prime(q))
    assert count_elliptic_smooth(entry.model, q) == zeta_report(k, q).predicted_count


@pytest.mark.parametrize("k", [k for k in ORDERS if catalog_entry(k).elliptic])
def test_zeta_report_predicts_counts_at_every_admissible_prime_below_3000(k):
    # q = 1 mod m, and q = 1 mod 3 for k = 3, which has no cover: a wrong
    # case in any class rule of the closed form or the oracle fails here,
    # not only at the two stored primes
    entry = catalog_entry(k)
    m = entry.m or 3
    for q in (q for q in range(m + 1, 3000, m) if is_prime(q)):
        assert count_elliptic_smooth(entry.model, q) == zeta_report(k, q).predicted_count, q


def test_cm_factor_order_3():
    from k3fermat.jacobi_zeta import cm_factor_k3

    assert cm_factor_k3(5) == IntPoly([1, 0, -25])     # inert
    assert cm_factor_k3(11) == IntPoly([1, 0, -121])
    assert cm_factor_k3(7) == IntPoly([1, 13, 49])     # split, trace -13
    assert cm_factor_k3(13) == IntPoly([1, 1, 169])    # split, trace -1
    assert cm_factor_k3(19) == IntPoly([1, -11, 361])  # split, trace 11
    with pytest.raises(ValueError):
        cm_factor_k3(3)


def test_primary_prime_has_norm_p_and_the_primary_congruences():
    for p in (q for q in range(7, 3000, 6) if is_prime(q)):
        a, b = primary_prime(p)
        assert (a * a - a * b + b * b, a % 3, b % 3) == (p, 2, 0), p
        assert b > 0
    with pytest.raises(ValueError):
        primary_prime(11)


def test_cm_trace_matches_the_point_count_at_every_split_prime_below_400():
    model = catalog_entry(3).model
    for p in (q for q in range(7, 400, 6) if is_prime(q)):
        trace = -jacobi_zeta.cm_factor_k3(p).coeff(1)
        assert count_elliptic_smooth(model, p) == 1 + p * p + 20 * p + trace, p


def verify_k3():
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["verify", "--k", "3", "--json"])


def test_verify_k3_fails_when_the_trace_rule_takes_a_wrong_unit(monkeypatch):
    # zeta_3 * pi = -b + (a - b) zeta_3 has norm p but is not primary
    assert verify_k3() == 0
    right = jacobi_zeta.primary_prime
    monkeypatch.setattr(jacobi_zeta, "primary_prime",
                        lambda p: (lambda a, b: (-b, a - b))(*right(p)))
    assert verify_k3() == 1


@st.composite
def covered_orders_and_primes(draw, q_max=20000):
    k = draw(st.sampled_from([k for k in ORDERS if k != 3]))
    m = catalog_entry(k).m
    q = draw(st.sampled_from([q for q in range(m + 1, q_max + 1, m) if is_prime(q)]))
    return k, q


@settings(deadline=None, max_examples=25)
@given(covered_orders_and_primes())
def test_jacobi_values_have_norm_q_squared_and_the_trace_its_weil_bound(case):
    k, q = case
    report = zeta_report(k, q)
    assert report.jacobi_values
    for _alpha, j in report.jacobi_values:
        assert j * j.conj() == q * q
    assert abs(report.trace) <= totient(k) * q
